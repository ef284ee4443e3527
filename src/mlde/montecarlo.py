"""Tail-probability estimation and rate experiments.

Every spec's terminal law is a sum of independent parts
(``MartingaleSpec.sum_parts``): one part for iid specs, a high-branch and a
low-branch half for variance switching, and one normal part for a gaussian
spec.  Estimators and oracles ask each part's step law (``model``) for its
sum law at a tilt, its re-tilt and that build's price, its draws, its top
and its reach, and never branch on its kind or read its table.

Estimators
----------
* crude: fraction of sampled X_n above the threshold.
* tilted: importance sampling under the exponentially tilted law; each draw
  carries the weight exp(-lam * X_n + Psi_n(lam)), with Psi_n deterministic
  (one cumulant_process call), so the weighted indicator is unbiased.
* exact oracles: one part's sum law read at every threshold (a closed-form
  normal tail for a gaussian spec), or the last part's tail at x minus each
  atom of the first, built once per call for all of a grid's thresholds.
* exact distances: the KS distance of X_n - B_n(lam) to the normal, which
  model reads from the parts' sum laws (``MartingaleSpec.ks``).

Every exact reader and every sampled hit compare with model's one tie rule,
``_cut``, so the sampler puts an atom at x on the same side as exact_tail
does; a sampled row past the top of the support reads 0.

Sampling draws each part's sufficient statistic (``draws``) in fixed-size
blocks from counter-based sub-streams, added by math.fsum in block order;
where it is priced lower (``_weighted_tail``) the histogram of the N draws
is drawn instead (``_histogram_sums``: the first part's counts, then one
multinomial call for the second part's counts at every drawn atom of the
first).  The route choice prices each part's sum law (``route``; a normal
part has no table, so it is drawn), 6 ns a histogram cell (min(N, outer
atoms) x inner atoms) and 150 ns a draw and category; draws priced at
_POOL_S or more run on one worker per CPU.  One kernel, ``_weigh``, weighs
both routes' hits.  Either route gives bit-identical estimates for any
worker count at a fixed seed.

Every estimate is a threshold grid, of one row or many, from one entry,
``_tail_rows``: an exact grid reads one build of the parts' laws, and a
sampled grid is one batch (``_weighted_tail``): one saddlepoint solve, the
routes priced once and Psi_n in one call.  On the histogram route each
part's law is built at the first row's tilt lam_b and re-tilted for each
later row (``retilted``, within model's bound on the mass it misses), or
built at the row's own tilt, to be the base, where some part refuses the
re-tilt.  A row's expected estimate under a re-tilted law is within its L1
error times e^(Psi_n - lam c) of the exact tail, c the least atom above x.
Every row draws from block_rng(seed, 0); a built row has the bits of the
one-row estimate.  Tilts at which |Psi_n| or |lam| max|X_n| reaches 2^32 are
refused.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import bounds, conditions, tilting
from .errors import ConfigError, DomainError
from .model import BLOCK, MartingaleSpec, _Binomial, _cut, _within_budgets, block_rng

# exact_tail's one route by either spelling; the benchmark pins "exact_enum"
EXACT_METHODS = ("exact", "exact_enum")
TAIL_METHODS = ("crude", "tilted") + EXACT_METHODS
MAX_SAMPLES = 1 << 30  # largest sample count an estimator takes (2^18 blocks of BLOCK)
# The route choice's unit costs (model prices each sum law's build), medians of 7 on one core of
# a shared 2-vCPU x86_64 (numpy 2.4.6), never measured at run time: a route picks the stream.
_CELL_S = 6e-9  # each histogram cell: 2.9-14 ns on the crossover table at N >= 1e4
_DRAW_S = 150e-9  # each draw and category of its parts: 70-250 ns
# Per-draw blocks priced at this or more run on min(CPUs, blocks) workers, the rest serially: on
# the same machine 2 workers beat 1 in under 10 of 11 alternated pairs wherever priced at 15 ms
_POOL_S = 16e-3  # or less, in 10-11 from 18 ms on; gaussian specs (priced 0) lost up to 1e6 draws


# -- result containers --------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    x: float
    p_hat: float
    std_err: float
    n_samples: int
    method: str  # the route taken: crude | tilted | exact_enum | exact_binomial | exact_gaussian
    seed: int
    lambda_used: float = 0.0

    def __post_init__(self):
        # a weighted estimate may poke above 1 by sampling noise; anything
        # beyond that, or nan, indicates a broken weight computation
        if not self.std_err >= 0.0:
            raise ValueError(f"std_err = {self.std_err!r} must be >= 0")
        if not 0.0 <= self.p_hat <= 1.0 + max(1e-9, 5.0 * self.std_err):
            raise ValueError(f"p_hat = {self.p_hat!r} outside [0, 1]")


@dataclass(frozen=True)
class RateRow:
    lam: float
    n: int
    epsilon: float
    delta: float
    ks_distance: float
    bound_value: float
    fitted_c: float


@dataclass(frozen=True)
class RatioRow:
    x: float
    p_hat: float
    std_err: float
    gaussian_tail: float
    ratio: float
    log_ratio: float
    theorem1_upper: float
    theorem2_lower: float
    valid: bool
    feasible: bool
    regime: str
    within_envelope_at_fitted_c: bool


@dataclass(frozen=True)
class RatioExperiment:
    rows: tuple
    fitted_c_star: float
    certificate: conditions.BernsteinCertificate


@dataclass(frozen=True)
class MdpRow:
    n: int
    a_n: float
    lam: float
    p_hat: float
    std_err: float
    p_exact: float
    value: float
    err_band: float
    target: float
    feasible: bool
    a_eps: float


# scipy.stats.binom's spelling of the law, for callers outside the library
binom = SimpleNamespace(
    pmf=lambda k, n, p: _Binomial(n, p).dense()[k],
    cdf=lambda k, n, p: _Binomial(n, p).tails(k)[0],
    sf=lambda k, n, p: _Binomial(n, p).tails(k)[1],
)


# -- tilted sampling ------------------------------------------------------------

def _check_samples(n_samples, least=0):
    """Reject a sample count below least or above MAX_SAMPLES before any work."""
    if not least <= n_samples <= MAX_SAMPLES:
        raise ConfigError(f"samples = {n_samples} outside [{least}, {MAX_SAMPLES}]")


def _weighted_tail(spec, xs, lams, n_samples, seed):
    """[(p, se)] at each threshold of xs under its own tilt of lams, every
    row drawn from the same seed: from the histogram of the parts' tilted
    sum laws (their builds and min(N, outer atoms) x inner atoms cells a
    row) where it fits the budgets and is priced below the n_samples draws
    (m - 1 categories per m-atom part), else from the draws, pooled where
    they are priced at _POOL_S or more.  The routes are priced once for the
    grid, as they do not depend on the tilt, and Psi_n is one
    cumulant_process call.

    A tilt is refused first where its weights e^(Psi_n - lam X_n) carry no
    information: where Psi_n overflows, so that every weight would be nan,
    and where |Psi_n| or |lam| max|X_n| reaches 2^32 (max |X_n| bounded by
    the sum of count * law.reach, 0 for a normal part), past which the
    exponent, rounded at 2^-53 of its size, is no longer good to 2^-20, and
    Psi_n - lam X_n cancels (at lam = 1e300 every weight of a draw at the top
    atom read as 1)."""
    with np.errstate(over="ignore"):  # an overflowing term reads as inf, refused below
        psi = tilting.cumulant_process(spec, np.array(lams, dtype=float)).tolist()
    parts = spec.sum_parts()
    largest = sum(count * d.reach for d, count in parts)  # bounds max |X_n|
    for t, p in zip(lams, psi):
        if not math.isfinite(p):
            raise DomainError(f"Psi_n({t:.6g}) = {p}: the tilt overflows every weight")
        if abs(p) >= 2.0**32 or abs(t) * largest >= 2.0**32:
            raise DomainError(f"Psi_n({t:.6g}) = {p:.6g}, lam max|X_n| = {abs(t) * largest:.6g}: "
                              "past 2^32 the weights' exponent Psi_n - lam X_n cancels")
    routes = [d.route(count) for d, count in parts]  # a normal part's is inf: per draw
    *outer, inner = [atoms for atoms, *_ in routes]
    cells = inner * (min(n_samples, outer[0]) if outer else 1)
    # the histogram's two 8-byte matrices must fit too
    price, fits, draws = cells * _CELL_S, _within_budgets(0.0, 16 * cells), 0.0
    for (d, _), (_, _, seconds, nbytes) in zip(parts, routes):
        price += seconds
        fits = fits and _within_budgets(seconds, nbytes)
        draws += n_samples * _DRAW_S * d.categories
    rows = list(zip(xs, lams, psi))
    if fits and price < draws:
        rng, sums = block_rng(seed, 0), []
        start = rng.bit_generator.state if len(rows) > 1 else None
        for laws, row in zip(_row_laws(parts, lams), rows):
            if sums:  # every row draws block_rng(seed, 0)'s stream from its start
                rng.bit_generator.state = start
            sums.append(_histogram_sums(laws, *row, n_samples, rng))
    else:
        sums = [_per_draw_sums(spec, *row, n_samples, seed, draws >= _POOL_S) for row in rows]
    out = []
    for s1, s2 in sums:
        p = s1 / n_samples
        var = max(s2 / n_samples - p * p, 0.0)
        out.append((p, math.sqrt(var / n_samples)))
    return out


def _row_laws(parts, lams):
    """Each row's part laws for its tilt: built (law.sum_law) at the first
    row's tilt lam_b, then re-tilted (law.retilted) for each later row,
    unless some part refuses; that row is built at its own tilt and becomes
    the base.  A crude grid (lam = 0 in every row) reads the laws it built."""
    base = None
    for lam in lams:
        laws = None
        if base is not None:
            lam_b, built = base
            laws = built if lam == lam_b else [
                d.retilted(count, law, lam - lam_b) for (d, count), law in zip(parts, built)]
        if laws is None or None in laws:
            laws = [d.sum_law(count, lam) for d, count in parts]
            base = lam, laws
        yield laws


def _weigh(sums, psi, lam, k):
    """(sum k w, sum k w^2) over hits at the sums, k draws at each, where
    w = exp(psi - lam * sum) is a hit's weight: the one reduction of both
    sampling routes."""
    w = np.exp(psi - lam * sums)
    return np.array([np.dot(k, w), np.dot(k, w * w)])


def _histogram_sums(laws, x, lam, psi, n_samples, rng):
    """(sum w, sum w^2) over the hits of n_samples draws from rng, from their
    histogram.

    The draws' histogram over the outer part's atoms a is Multinomial(N,
    outer law); given it, the c_a draws at a split over the inner atoms b
    above x - a and a miss category as Multinomial(c_a, .).  These counts
    are jointly Multinomial(N, outer law x inner law) over the cells a + b > x,
    so the sums have their per-draw distribution.  The splits are one
    rng.multinomial(c, P) call, a row of P per drawn outer atom in ascending
    order: zeros below its cut, the inner pmf above, the miss mass last (so
    numpy's running remainder never cancels on a small tail).  numpy draws a
    zero category as 0 without using the stream, so the counts are those of
    one call per row; _weigh reduces every row's hits at once.  A one-part
    spec is one row, all N draws at the outer atom 0."""
    law = laws[-1]
    atoms, pmf = law.atoms, law.pmf
    if len(laws) > 1:
        outer_counts = rng.multinomial(n_samples, laws[0].pmf)
        drawn = outer_counts > 0
        outer_atoms, outer_counts = laws[0].atoms[drawn], outer_counts[drawn]
        cut = law.above(x - outer_atoms)
        lo = cut.min()  # the columns below it are zero in every row
        p = np.where(np.arange(lo, len(atoms) + 1) >= cut[:, None], np.append(pmf[lo:], 0.0), 0.0)
        p[:, -1] = np.maximum(0.0, 1.0 - p[:, :-1].sum(axis=1))
        counts = rng.multinomial(outer_counts, p)[:, :-1]
        del p  # before the weights' K x M temporary: two such matrices at the peak, not three
    else:  # one row, no zeros: numpy's 1-D form, about 15 us a call cheaper
        outer_atoms, lo = np.zeros(1), law.above(x)
        tail = pmf[lo:]
        counts = rng.multinomial(n_samples, np.append(tail, max(0.0, 1.0 - tail.sum())))[None, :-1]
    hit = counts > 0  # weights of undrawn atoms far below may overflow
    s1, s2 = _weigh((outer_atoms[:, None] + atoms[lo:])[hit], psi, lam, counts[hit].astype(float))
    return float(s1), float(s2)


def _per_draw_sums(spec, x, lam, psi, n_samples, seed, pooled):
    """(sum w, sum w^2) over the hits of n_samples draws made one by one, in
    blocks: a draw is a hit where its last part is at or past the _cut of x
    minus its first, as in _histogram_sums.  The blocks run on min(CPUs,
    blocks) workers where pooled (_weighted_tail prices the draws at
    _POOL_S or more), serially otherwise.  Each block draws from its own
    stream and math.fsum adds their sums in block order, so no worker count
    moves the result."""
    n_blocks = (n_samples + BLOCK - 1) // BLOCK

    def one(b):
        m, rng = min(BLOCK, n_samples - b * BLOCK), block_rng(seed, b)
        *first, (last, lattice) = [d.draws(c, lam, rng, m) for d, c in spec.sum_parts()]
        a = first[0][0] if first else 0.0
        hit = last >= _cut(x - a, lattice)
        return _weigh((a + last)[hit], psi, lam, np.ones(np.count_nonzero(hit)))

    workers = min(os.cpu_count() or 1, n_blocks) if pooled else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(one, range(n_blocks)))
    else:
        sums = [one(b) for b in range(n_blocks)]
    return tuple(math.fsum(column) for column in zip(*sums))


def crude_tail_estimate(
    spec: MartingaleSpec, x: float, n_samples: int, seed: int
) -> TailEstimate:
    """Plain-Monte-Carlo P(X_n > x) with the binomial standard error.

    Internally runs the weighted estimator at lam = 0, where every weight is
    exactly 1, so the two estimators coincide bit for bit there.
    """
    return _tail_rows(spec, [x], "crude", 0.0, n_samples, seed)[0]


def tilted_tail_estimate(
    spec: MartingaleSpec, x: float, lam: float, n_samples: int, seed: int
) -> TailEstimate:
    """Importance-sampling estimate of P(X_n > x) under the lam-tilted law."""
    return _tail_rows(spec, [x], "tilted", lam, n_samples, seed)[0]


def saddlepoint_lambda(spec: MartingaleSpec, x):
    """The tilt making the drift process hit x, to a relative width of 1e-10:
    a float for a threshold, an array for a 1-D array of thresholds.

    A safeguarded Newton iteration on the exact, increasing drift B_n, whose
    slope is the tilted predictable variance (``tilting.drift_and_slope``),
    from x / B_n'(0) in the bracket [0, inf): a Newton step when it stays in
    the bracket and at most halves the previous step, else doubling while no
    upper end is known and bisection after.  It returns the Newton iterate
    once that step is under half the tolerance (one step for a gaussian spec).
    Every threshold of an array runs this iteration on its own, in Python
    floats; each step reads the drift and slope of all thresholds still
    running from one drift_and_slope call, so an element has the bits of
    the one-threshold solve.

    A finite spec solves at min(x, m) for every x >= 0, +inf too, m =
    top - g/2 the midpoint of X_n's two top atoms (g the least top gap of its
    parts): above m, {X_n > x} is {X_n = top} or empty.  The tilt at m has
    bounded relative error: the deficit top - X_n has tilted mean g/2 and is
    >= g off the top, so (Markov) the top atom's tilted mass q is >= 1/2, and
    a draw weighing each hit p/q has variance p^2 (1/q - 1) <= p^2."""
    xs = np.asarray(x, dtype=float).reshape(-1).tolist()
    if not all(v >= 0 for v in xs):  # nan too
        raise DomainError("x must be >= 0")
    parts = spec.sum_parts()  # a gaussian part's top is inf, so m is inf
    m = sum(count * d.top for d, count in parts) - 0.5 * min(d.top_gap for d, _ in parts)
    xs = [min(v, m) for v in xs]
    # B_n'(0) is the total predictable variance
    variance = spec.total_variance()
    lam = [v / variance for v in xs]
    step, lo, hi = list(lam), [0.0] * len(xs), [math.inf] * len(xs)
    run = [i for i, v in enumerate(xs) if v != 0.0]  # x = 0 solves at 0
    for _ in range(400):
        if not run:
            return np.array(lam) if hasattr(x, "__len__") else lam[0]
        drift, slopes = tilting.drift_and_slope(spec, np.array([lam[i] for i in run]))
        going = []
        for i, b, slope in zip(run, drift.tolist(), slopes.tolist()):
            f, t = b - xs[i], lam[i]
            if f < 0.0:
                lo[i] = t
            else:
                hi[i] = t
            tol = 1e-10 * max(1.0, t)
            if hi[i] - lo[i] <= tol:
                lam[i] = 0.5 * (lo[i] + hi[i])
                continue
            # slope 0 once the top atom holds all mass
            new = t - f / slope if slope > 0.0 else math.nan
            if not (lo[i] <= new <= hi[i] and abs(new - t) <= 0.5 * step[i]):
                new = 2.0 * t if hi[i] == math.inf else 0.5 * (lo[i] + hi[i])
            elif abs(new - t) < 0.5 * tol:
                lam[i] = new
                continue
            lam[i], step[i] = new, abs(new - t)
            going.append(i)
        run = going
    raise DomainError("drift never reaches the threshold")


# -- exact oracles -------------------------------------------------------------

def _exact_rows(spec: MartingaleSpec, xs) -> list:
    """[exact_tail(spec, x) for x in xs], every part's sum law built once and
    every row read at once: the last part's tails (a closed form for a normal
    part) at x minus each atom of the first, over the rows x outer atoms
    matrix (in blocks of about 2^16 cells), each row weighted by the first
    part's pmf (np.vecdot).  A one-part spec's outer law is one atom at 0:
    x - 0.0 is x and a one-term vecdot with 1.0 the tail itself.  Its rows
    are tagged by the law (exact_binomial, exact_enum or exact_gaussian)."""
    xs = np.asarray(xs, dtype=float)
    *first, law = [d.sum_law(count, 0.0) for d, count in spec.sum_parts()]
    atoms, pmf = (first[0].atoms, first[0].pmf) if first else (np.zeros(1), np.ones(1))
    rows = max(1, (1 << 16) // len(atoms))
    tails = [p for i in range(0, len(xs), rows)
             for p in np.vecdot(law.tails(xs[i:i + rows, None] - atoms)[1], pmf).tolist()]
    tag = "exact_enum" if first else law.method
    return [TailEstimate(x=x, p_hat=min(p, 1.0), std_err=0.0, n_samples=0, method=tag, seed=0)
            for x, p in zip(xs.tolist(), tails)]


def exact_tail(spec: MartingaleSpec, x: float) -> TailEstimate:
    """Exact P(X_n > x) from the spec's sum laws: the closed-form normal tail
    for gaussian specs (tagged exact_gaussian), the parts' tables for every
    finite spec (exact_binomial for an iid two-point law, else exact_enum).
    A law priced past either of model's budgets raises DomainError
    (too-large), as does a nan x, before any work."""
    return _tail_rows(spec, [x], "exact", 0.0, 0, 0)[0]


# -- exact distribution distances ----------------------------------------------

def conjugate_clt_check(model_family, lam: float, n_list) -> tuple:
    """One RateRow per n: the exact KS of the recentred martingale X_n - B_n(lam)
    under the tilted law (spec.ks) against the normal limit, with the rate budget
    lam*eps + eps|log eps| + delta and the fitted constant.  lam = 0 is the
    plain rate curve, the KS distance of X_n itself.  Every finite or
    gaussian spec is read, iid or variance switching; a part's law or two
    parts' fold priced past either budget raises DomainError (too-large)."""
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"lam = {lam!r} must be finite and >= 0")
    rows = []
    for n in n_list:
        spec = model_family(int(n))
        cert = conditions.certify(spec)
        ks = spec.ks(lam, tilting.drift_process(spec, lam))
        budget = bounds.conjugate_rate_bound(lam, cert.epsilon, cert.delta)
        rows.append(
            RateRow(
                lam=lam,
                n=int(n),
                epsilon=cert.epsilon,
                delta=cert.delta,
                ks_distance=ks,
                bound_value=budget,
                fitted_c=ks / budget,
            )
        )
    return tuple(rows)


def clt_rate_curve(model_family, n_list) -> tuple:
    """conjugate_clt_check at the tilt 0: the rate curve clt-rate writes.  Kept
    as its own entry because BENCHMARK.json's per-layer metrics name it."""
    return conjugate_clt_check(model_family, 0.0, n_list)


# -- experiments ----------------------------------------------------------------

def estimate_tail(spec, x, method, lam_policy, samples, seed) -> TailEstimate:
    """P(X_n > x) by one of TAIL_METHODS: crude, tilted at the tilt
    resolve_tilt picks, or exact_tail's route.  A nan x raises DomainError."""
    return _tail_rows(spec, [x], method, lam_policy, samples, seed)[0]


def resolve_tilt(spec, xs, lam_policy) -> list:
    """The tilt for a policy at each threshold of xs: a number as given,
    refused unless finite and >= 0, "saddlepoint" (one solve for all), or
    "paper" (the largest root of the drift equation at spec's certificate)."""
    if isinstance(lam_policy, (int, float)):
        if not 0.0 <= lam_policy < math.inf:
            raise DomainError(f"lam = {lam_policy!r} must be finite and >= 0")
        return [float(lam_policy)] * len(xs)
    if lam_policy == "saddlepoint":
        return saddlepoint_lambda(spec, np.array(xs, dtype=float)).tolist()
    if lam_policy == "paper":
        cert = conditions.certify(spec)
        return [tilting.solve_lambda_bar(x, cert.epsilon, cert.delta, bounds.C) for x in xs]
    raise ConfigError(f"unknown lambda policy {lam_policy!r}")


def _tail_rows(spec, xs, method, lam_policy, samples, seed) -> list:
    """The estimate by one of TAIL_METHODS at every threshold of xs: the
    exact rows from _exact_rows, or the crude or tilted (at resolve_tilt's
    tilts) rows from one resolve_tilt call for the tilts and one
    _weighted_tail call for the estimates, which ask for at least 100
    samples.  Every row's hits are _cut's alone, as the exact rows' are: a
    row with no atom above x is sampled as any other, and reads 0.  A nan x
    raises DomainError, an unknown method or a bad sample count ConfigError,
    before any work."""
    xs = [float(x) for x in xs]
    if any(map(math.isnan, xs)):
        raise DomainError("threshold x is nan")
    if method not in TAIL_METHODS:
        raise ConfigError(f"unknown method {method!r}")
    exact = method in EXACT_METHODS
    _check_samples(samples, least=0 if exact else 100)
    if exact:
        return _exact_rows(spec, xs)
    lams = resolve_tilt(spec, xs, lam_policy if method == "tilted" else 0.0)
    return [TailEstimate(x=x, p_hat=p, std_err=se, n_samples=samples, method=method, seed=seed,
                         lambda_used=lam)
            for x, lam, (p, se) in zip(xs, lams, _weighted_tail(spec, xs, lams, samples, seed))]


def ratio_experiment(
    spec: MartingaleSpec,
    x_grid,
    method: str = "exact",
    samples: int = 0,
    seed: int = 0,
    lam_policy="saddlepoint",
) -> RatioExperiment:
    """Tail/normal-tail ratio across a threshold grid, against the two-sided
    envelopes, with the smallest constant c* making
    |log ratio| <= c* (x^3 eps + x^2 delta^2 + (1+x)(eps|log eps| + delta))
    hold over all feasible rows.  The envelopes are stated for x >= 0, so a
    negative or nan threshold raises DomainError before any estimate."""
    _check_samples(samples)
    x_grid = [float(x) for x in x_grid]
    for x in x_grid:  # nan fails x >= 0 too
        if not x >= 0.0:
            raise DomainError(f"ratio_experiment requires x >= 0, got {x:.6g}")
    cert = conditions.certify(spec)
    eps, delta = cert.epsilon, cert.delta
    estimates = _tail_rows(spec, x_grid, method, lam_policy, samples, seed)
    raw = []
    pairs = []
    for x, est in zip(x_grid, estimates):
        tail = bounds.gaussian_tail(x)
        # both probabilities must be representable for the ratio to carry
        # information; far-tail underflow marks the row infeasible
        feasible = est.p_hat > 0.0 and tail > 0.0
        if feasible:
            ratio = est.p_hat / tail
            log_ratio = math.log(ratio)
        else:
            ratio = math.inf if est.p_hat > 0.0 else math.nan
            log_ratio = math.nan
        budget = bounds.ratio_bound_expression(x, eps, delta)
        if feasible:
            pairs.append((abs(log_ratio), budget))
        env = bounds.theorems_envelope(x, eps, delta)
        raw.append((x, est, tail, ratio, log_ratio, env, budget, feasible))
    c_star = max((value / budget for value, budget in pairs), default=0.0)
    rows = []
    for x, est, tail, ratio, log_ratio, env, budget, feasible in raw:
        within = feasible and abs(log_ratio) <= c_star * budget * (1.0 + 1e-12)
        rows.append(
            RatioRow(
                x=x,
                p_hat=est.p_hat,
                std_err=est.std_err,
                gaussian_tail=tail,
                ratio=ratio,
                log_ratio=log_ratio,
                theorem1_upper=env.upper_ratio,
                theorem2_lower=env.lower_ratio,
                valid=env.valid,
                feasible=feasible,
                regime=bounds.regime_tag(x, spec.n),
                within_envelope_at_fitted_c=within,
            )
        )
    return RatioExperiment(tuple(rows), c_star, cert)


def mdp_diagnostic(
    model_family,
    a_exponent: float,
    x: float,
    n_list,
    samples: int,
    seed: int,
    lam_policy="saddlepoint",
):
    """Rows of (1/a_n^2) log p_hat for P(X_n > a_n x), a_n = n**a_exponent,
    against the limit -x^2/2, with a first-order error band std_err/(p_hat a_n^2).

    Gaussian specs take the exact normal tail (lambda = 0); all others the
    tilted estimator.  p_exact is exact_tail's probability wherever it
    covers the spec, and nan where a part's sum law is priced past the budgets.
    p_hat = 0 rows are reported infeasible rather than mapped to -inf.  An
    a_n whose square is no positive double raises DomainError before any row.
    """
    _check_samples(samples)
    target = bounds.mdp_rate(x)
    runs = []
    for n in map(int, n_list):
        spec = model_family(n)
        try:
            a_n = float(n) ** a_exponent
            positive = 0.0 < a_n**2 < math.inf
        except OverflowError:
            positive = False
        if not positive:
            raise DomainError(f"speed a_n = {n}**{a_exponent!r} has no positive double square")
        runs.append((n, spec, a_n))
    rows = []
    for n, spec, a_n in runs:
        cert = conditions.certify(spec)
        threshold = a_n * x
        try:
            p_exact = (est := exact_tail(spec, threshold)).p_hat
        except DomainError:  # a part's sum law priced past the budgets
            est, p_exact = None, math.nan
        if est is None or est.method != "exact_gaussian":  # a closed-form tail is the row
            (est,) = _tail_rows(spec, [threshold], "tilted", lam_policy, samples, seed)
        feasible = est.p_hat > 0.0
        value = math.log(est.p_hat) / a_n**2 if feasible else math.nan
        band = est.std_err / (est.p_hat * a_n**2) if feasible else math.nan
        rows.append(
            MdpRow(
                n=n,
                a_n=a_n,
                lam=est.lambda_used,
                p_hat=est.p_hat,
                std_err=est.std_err,
                p_exact=p_exact,
                value=value,
                err_band=band,
                target=target,
                feasible=feasible,
                a_eps=a_n * cert.epsilon,
            )
        )
    return rows
