"""Tail-probability estimation and rate experiments.

Every spec's terminal law is a sum of independent iid parts
(``MartingaleSpec.iid_parts``): one part for iid specs, a high-branch and a
low-branch half for variance switching.  Estimators and oracles work on those
parts, never on paths.

Estimators
----------
* crude: fraction of sampled X_n above the threshold.
* tilted: importance sampling under the exponentially tilted law; each draw
  carries the weight exp(-lam * X_n + Psi_n(lam)), with Psi_n deterministic
  (one cumulant_process call), so the weighted indicator is unbiased.
* exact oracles: the closed-form normal tail for gaussian specs, the binomial
  closed form for iid two-atom tables, and for any finite spec the count-vector
  engine: each part's sum law over its multinomial count vectors
  (C(count + m - 1, m - 1) atoms for an m-atom law), a second part's tail read
  from sorted suffix sums.
* exact distances: the KS distance of X_n to the normal, read at the atoms
  of its lattice law.

Sampling draws each part's sufficient statistic: binomial counts for a
two-atom table, multinomial counts for a larger one, both over the part's
tilted table (``tilting.tilted_table``, the one tilt of a finite law), and a
single normal draw for gaussian specs.  Draws are made in fixed-size blocks
with counter-based sub-streams and all reductions run in a fixed pairwise
order, so estimates are bit-identical for any worker count at a fixed seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import special

from . import bounds, conditions, tilting
from .errors import ConfigError, DomainError
from .model import BLOCK, MartingaleSpec, block_rng

ENUM_LIMIT = 1 << 24  # largest count-vector table (vectors x atoms) the exact engine builds
EXACT_METHODS = ("exact", "exact_enum")
TAIL_METHODS = ("crude", "tilted") + EXACT_METHODS
MAX_SAMPLES = 1 << 30  # largest sample count an estimator takes (2^18 blocks of BLOCK)
WINDOW_SD = 12  # half-width, in binomial sds, of the atom window a two-point KS tries first


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
        # beyond that indicates a broken weight computation
        if self.p_hat < 0.0 or self.p_hat > 1.0 + max(1e-9, 5.0 * self.std_err):
            raise ValueError(f"p_hat = {self.p_hat!r} outside [0, 1]")
        if self.std_err < 0.0:
            raise ValueError("std_err must be >= 0")


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


# -- the binomial law from scipy.special ---------------------------------------
# For 0 <= k <= n.  sf and cdf are Boost's regularized incomplete beta, the
# ibeta behind scipy's binomial distribution, and match it bit for bit; cdf
# sees p only through 1 - p, so it is scipy's cdf at 1 - (1 - p), which is p
# for every p >= 1/2.  pmf sums log C(n, k) p^k (1-p)^(n-k) from log-gammas;
# log C(n, k) is exactly 0 at k = 0 and k = n, so pmf never exceeds 1 there.

def _binom_sf(k, n, p):
    k = np.asarray(k)
    return np.where(k < n, special.betainc(k + 1, np.maximum(n - k, 1), p), 0.0)


def _binom_cdf(k, n, p):
    k = np.asarray(k)
    return np.where(k < n, special.betainc(np.maximum(n - k, 1), k + 1, 1.0 - p), 1.0)


def _binom_pmf(k, n, p):
    log_comb = special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
    return np.exp(log_comb + special.xlogy(k, p) + special.xlog1py(n - k, -p))


binom = SimpleNamespace(pmf=_binom_pmf, cdf=_binom_cdf, sf=_binom_sf)


# -- deterministic parallel plumbing ------------------------------------------

def resolve_workers() -> int:
    """The worker count MLDE_THREADS asks for (1 when unset)."""
    workers = os.environ.get("MLDE_THREADS", "1")
    try:
        workers = int(workers)
    except ValueError:
        raise ConfigError(f"bad worker count {workers!r}")
    return max(1, workers)


def _pool_size(workers: int, n_blocks: int) -> int:
    """Threads worth starting: no more than requested, CPUs, or blocks."""
    return max(1, min(workers, os.cpu_count() or 1, n_blocks))


def _map_blocks(fn, n_blocks: int):
    workers = _pool_size(resolve_workers(), n_blocks)
    if workers <= 1:
        return [fn(b) for b in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_blocks)))


def _pairwise(parts):
    """Fixed-shape pairwise tree sum; independent of how parts were produced."""
    parts = list(parts)
    while len(parts) > 1:
        parts = [
            parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


# -- tilted sampling of the parts' sufficient statistics ---------------------

def _stat_block(spec: MartingaleSpec, lam: float, rng, m: int):
    """X_n for m draws under the lam-tilted law, summed part by part from
    each part's sufficient statistic."""
    if spec.dist.kind == "gaussian":
        v = spec.total_variance()
        return lam * v + math.sqrt(v) * rng.standard_normal(m)
    xn = 0.0
    for d, count in spec.iid_parts():
        values, probs = tilting.tilted_table(d, lam)
        if len(values) == 2:
            k = rng.binomial(count, probs[1], size=m)
            xn = xn + (count * values[0] + k * (values[1] - values[0]))
        else:
            xn = xn + rng.multinomial(count, probs, size=m) @ values
    return xn


def _check_samples(n_samples, least=0):
    """Reject a sample count below least or above MAX_SAMPLES before any work."""
    if not least <= n_samples <= MAX_SAMPLES:
        raise ConfigError(f"samples = {n_samples} outside [{least}, {MAX_SAMPLES}]")


def _weighted_tail(spec, x, lam, n_samples, seed):
    n_blocks = (n_samples + BLOCK - 1) // BLOCK
    psi = tilting.cumulant_process(spec, lam)

    def one(b):
        m = BLOCK if b < n_blocks - 1 else n_samples - (n_blocks - 1) * BLOCK
        xn = _stat_block(spec, lam, block_rng(seed, b), m)
        hit = xn > x
        z = np.zeros(m)
        z[hit] = np.exp(psi - lam * xn[hit])
        return np.array([float(np.sum(z)), float(np.dot(z, z))])

    s1, s2 = _pairwise(_map_blocks(one, n_blocks))
    p = float(s1) / n_samples
    var = max(float(s2) / n_samples - p * p, 0.0)
    return p, math.sqrt(var / n_samples)


def crude_tail_estimate(
    spec: MartingaleSpec, x: float, n_samples: int, seed: int
) -> TailEstimate:
    """Plain-Monte-Carlo P(X_n > x) with the binomial standard error.

    Internally runs the weighted estimator at lam = 0, where every weight is
    exactly 1, so the two estimators coincide bit for bit there.
    """
    _check_samples(n_samples, least=100)
    p, se = _weighted_tail(spec, x, 0.0, n_samples, seed)
    return TailEstimate(x=x, p_hat=p, std_err=se, n_samples=n_samples,
                        method="crude", seed=seed, lambda_used=0.0)


def tilted_tail_estimate(
    spec: MartingaleSpec, x: float, lam: float, n_samples: int, seed: int
) -> TailEstimate:
    """Importance-sampling estimate of P(X_n > x) under the lam-tilted law."""
    if lam < 0:
        raise DomainError("lam must be >= 0")
    _check_samples(n_samples, least=100)
    p, se = _weighted_tail(spec, x, lam, n_samples, seed)
    return TailEstimate(x=x, p_hat=p, std_err=se, n_samples=n_samples,
                        method="tilted", seed=seed, lambda_used=lam)


def saddlepoint_lambda(spec: MartingaleSpec, x: float) -> float:
    """The tilt making the drift process hit x, by bisection on the exact
    (monotone) drift to a relative width of 1e-10."""
    if x < 0:
        raise DomainError("x must be >= 0")
    if x == 0.0:
        return 0.0
    sup = _drift_supremum(spec)
    if x >= sup * (1.0 - 1e-12):
        raise DomainError(
            f"threshold {x:.6g} at or beyond the maximal reachable drift {sup:.6g}"
        )
    hi = 1.0
    for _ in range(200):
        if tilting.drift_process(spec, hi) >= x:
            break
        hi *= 2.0
    else:
        raise DomainError("drift never reaches the threshold")
    lo = 0.0
    while hi - lo > 1e-10 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if tilting.drift_process(spec, mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _drift_supremum(spec) -> float:
    if spec.dist.kind == "gaussian":
        return math.inf
    return sum(count * d.values[-1] for d, count in spec.iid_parts())


# -- exact oracles -------------------------------------------------------------

def _binomial_tail(n, v_lo, v_hi, p_hi, x):
    """P(sum > x) for n iid draws from a two-point law, strict inequality."""
    t = (x - n * v_lo) / (v_hi - v_lo)
    k_min = math.floor(t) + 1
    if k_min > n:
        return 0.0
    if k_min <= 0:
        return 1.0
    return float(binom.sf(k_min - 1, n, p_hi))


def _sum_law(values, probs, count):
    """(sorted atoms, pmf) of the sum of count iid draws from a finite table.

    Enumerates the multinomial count vectors, C(count + m - 1, m - 1) of them
    for the m atoms of positive mass.  Each vector's probability is a chain of
    conditional binomials: atom j takes Binomial(left, p_j / sum_{i>=j} p_i)
    of the draws the earlier atoms left over.
    """
    keep = probs > 0.0
    values, probs = values[keep], probs[keep]
    m = len(values)
    if math.comb(count + m - 1, m - 1) * m > ENUM_LIMIT:
        raise DomainError(
            f"too-large: C({count + m - 1}, {m - 1}) count vectors of {m} atoms "
            f"exceed {ENUM_LIMIT}"
        )
    rest = np.cumsum(probs[::-1])[::-1]
    atoms, pmf, left = np.zeros(1), np.ones(1), np.array([count])
    for v, p, r in zip(values[:-1], probs[:-1], rest[:-1]):
        sizes = left + 1  # each vector so far branches on k = 0..left
        rows = np.repeat(np.arange(len(left)), sizes)
        k = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        atoms = atoms[rows] + k * v
        pmf = pmf[rows] * binom.pmf(k, left[rows], p / r)
        left = left[rows] - k
    atoms = atoms + left * values[-1]
    order = np.argsort(atoms, kind="stable")
    return atoms[order], pmf[order]


def _enum_tail(spec, x) -> float:
    """P(X_n > x) for a finite spec from its parts' sum laws: a second part's
    tail is read from its suffix sums at x minus each atom of the first."""
    laws = [_sum_law(*d.table(), count) for d, count in spec.iid_parts()]
    first_atoms, first_pmf = laws[0] if len(laws) > 1 else (np.zeros(1), np.ones(1))
    atoms, pmf = laws[-1]
    suffix = np.append(np.cumsum(pmf[::-1])[::-1], 0.0)
    above = suffix[np.searchsorted(atoms, x - first_atoms, side="right")]
    return min(float(np.dot(first_pmf, above)), 1.0)


def exact_tail(spec: MartingaleSpec, x: float, method: str = "exact") -> TailEstimate:
    """Exact P(X_n > x).  "exact" takes the closed-form normal tail (gaussian
    specs, tagged exact_gaussian), the binomial closed form (iid two-point
    laws, exact_binomial) or the count-vector engine (any other finite spec,
    exact_enum); "exact_enum" forces the engine on any finite spec."""
    if method not in EXACT_METHODS:
        raise ConfigError(f"unknown exact method {method!r}")
    if spec.dist.kind == "gaussian":
        if method != "exact":
            raise DomainError(f"method {method!r} unavailable for gaussian laws")
        p = bounds.gaussian_tail(x / math.sqrt(spec.total_variance()))
        tag = "exact_gaussian"
    else:
        parts = spec.iid_parts()
        d = parts[0][0]
        if method == "exact" and len(parts) == 1 and len(d.values) == 2:
            (v_lo, v_hi), (_, p_hi) = tilting.tilted_table(d, 0.0)
            p = _binomial_tail(spec.n, v_lo, v_hi, p_hi, x)
            tag = "exact_binomial"
        else:
            p = _enum_tail(spec, x)
            tag = "exact_enum"
    return TailEstimate(x=x, p_hat=p, std_err=0.0, n_samples=0, method=tag,
                        seed=0, lambda_used=0.0)


# -- exact distribution-distance machinery ------------------------------------
# The KS distance of a lattice law to the normal is the supremum of |F - Phi|
# at its atoms.  A two-point law's sum is binomial: its supremum is taken over
# the atoms within WINDOW_SD sds of the tilted mean when a tail bound certifies
# that no atom outside can hold it, and over all n + 1 atoms otherwise.

def lattice_ks(values, probs) -> float:
    """sup_x |F(x) - Phi(x)| for a discrete law: the supremum is attained at
    an atom, from the left or the right, so it equals
    max_a max(|F(a) - Phi(a)|, |F(a-) - Phi(a)|)."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    uniq, inverse = np.unique(values, return_inverse=True)
    mass = np.zeros(len(uniq))
    np.add.at(mass, inverse, probs)
    cdf = np.cumsum(mass)
    return _ks_from_cdf(uniq, cdf)


def _ks_from_cdf(atoms, cdf, below=0.0) -> float:
    """max |F - Phi| over the atoms from each side; below is F just left of
    the first atom."""
    left = np.concatenate([[below], cdf[:-1]])
    phi = 1.0 - 0.5 * special.erfc(atoms / math.sqrt(2.0))
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))


def _recentred_lattice_ks(spec, lam: float) -> float:
    """Exact KS distance to the standard normal of X_n - B_n(lam) under the
    lam-tilted law, for one-part lattice (and gaussian) specs.

    A two-point law takes the supremum over the atoms within WINDOW_SD
    binomial sds of the tilted mean when the tail bound certifies that window
    (see below), and over all n + 1 atoms otherwise."""
    ((d, n),) = spec.iid_parts()
    shift = tilting.drift_process(spec, lam)
    if d.kind == "gaussian":
        return 0.0  # exactly normal at every tilt
    values, probs = tilting.tilted_table(d, lam)
    if len(values) != 2:
        atoms, pmf = _sum_law(values, probs, n)
        return lattice_ks(atoms - shift, pmf)
    if n + 1 > ENUM_LIMIT:
        raise DomainError(f"too-large: {n + 1} lattice atoms exceed {ENUM_LIMIT}")
    p, step = probs[1], values[1] - values[0]

    def atom(k):  # X_n - B_n(lam) when k of the n draws take the upper value
        return n * values[0] + k * step - shift

    mid, half = n * p, WINDOW_SD * math.sqrt(n * probs[0] * p)
    window = (max(0, math.floor(mid - half)), min(n, math.ceil(mid + half)))
    for lo, hi in (window, (0, n)):
        k = np.arange(lo, hi + 1)
        below = float(binom.cdf(lo - 1, n, p)) if lo > 0 else 0.0
        ks = _ks_from_cdf(atom(k), binom.cdf(k, n, p), below)
        # F and Phi are monotone, so each term at an atom outside [lo, hi]
        # is at most F(lo-1) or Phi(a_{lo-1}) below the window and 1 - F(hi)
        # or 1 - Phi(a_{hi+1}) above it.  The terms are computed elementwise,
        # so a window whose outside bound is under half its maximum returns
        # the full range's maximum bit for bit; the factor 2 leaves room for
        # rounding, which is far below the KS of a lattice law (at least half
        # its largest atom).  The full range has nothing outside.
        outside = 0.0
        if lo > 0:
            outside = max(below, 0.5 * float(special.erfc(-atom(lo - 1) / math.sqrt(2.0))))
        if hi < n:
            outside = max(outside, float(binom.sf(hi, n, p)),
                          0.5 * float(special.erfc(atom(hi + 1) / math.sqrt(2.0))))
        if outside <= 0.5 * ks:
            break
    return ks


def conjugate_clt_check(model_family, lam: float, n_list) -> tuple:
    """One RateRow per n: the exact KS of the recentred martingale under the
    tilted law against the normal limit, with the rate budget
    lam*eps + eps|log eps| + delta and the fitted constant.  lam = 0 is the
    plain rate curve, the KS distance of X_n itself."""
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"lam = {lam!r} must be finite and >= 0")
    rows = []
    for n in n_list:
        spec = model_family(int(n))
        if len(spec.iid_parts()) > 1:
            raise DomainError("rate curves need one-part (iid) specs")
        cert = conditions.certify(spec)
        ks = _recentred_lattice_ks(spec, lam)
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

def fit_constant(observed) -> float:
    """Smallest c with value <= c * budget across rows: max of value/budget."""
    observed = list(observed)
    if not observed:
        raise ValueError("empty-input")
    worst = 0.0
    for value, budget in observed:
        if budget <= 0.0:
            raise ValueError(f"nonpositive bound expression {budget!r}")
        worst = max(worst, value / budget)
    return worst


def estimate_tail(spec, x, method, lam_policy, samples, seed, cert=None) -> TailEstimate:
    """P(X_n > x) by one of TAIL_METHODS: crude, tilted at the tilt
    resolve_tilt picks, or exact_tail's route."""
    _check_samples(samples)
    if method in EXACT_METHODS:
        return exact_tail(spec, x, method)
    if method == "crude":
        return crude_tail_estimate(spec, x, samples, seed)
    if method == "tilted":
        lam = resolve_tilt(spec, x, lam_policy, cert)
        return tilted_tail_estimate(spec, x, lam, samples, seed)
    raise ConfigError(f"unknown method {method!r}")


def resolve_tilt(spec, x, lam_policy, cert=None):
    """The tilt for a policy: a number as given, "saddlepoint", or "paper"
    (the largest root of the drift equation at c = bounds.C)."""
    if isinstance(lam_policy, (int, float)):
        return float(lam_policy)
    if lam_policy == "saddlepoint":
        return saddlepoint_lambda(spec, x)
    if lam_policy == "paper":
        if cert is None:
            cert = conditions.certify(spec)
        return tilting.solve_lambda_bar(x, cert.epsilon, cert.delta, bounds.C)
    raise ConfigError(f"unknown lambda policy {lam_policy!r}")


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
    negative threshold raises DomainError before any estimate."""
    _check_samples(samples)
    x_grid = [float(x) for x in x_grid]
    if any(x < 0.0 for x in x_grid):
        raise DomainError(f"ratio_experiment requires x >= 0, got {min(x_grid):.6g}")
    cert = conditions.certify(spec)
    eps, delta = cert.epsilon, cert.delta
    raw = []
    pairs = []
    for x in x_grid:
        est = estimate_tail(spec, x, method, lam_policy, samples, seed, cert)
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
    c_star = fit_constant(pairs) if pairs else 0.0
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
    return RatioExperiment(rows=tuple(rows), fitted_c_star=c_star, certificate=cert)


def mdp_diagnostic(
    model_family,
    a_rule,
    x: float,
    n_list,
    samples: int,
    seed: int,
    lam_policy="saddlepoint",
):
    """Rows of (1/a_n^2) log p_hat for P(X_n > a_n x) against the limit
    -x^2/2, with a first-order error band std_err/(p_hat a_n^2).

    Gaussian specs take the exact normal tail (lambda = 0); all others the
    tilted estimator.  p_exact is exact_tail's probability wherever it
    covers the spec, and nan where the count-vector table would exceed
    ENUM_LIMIT.  p_hat = 0 rows are reported infeasible rather than mapped
    to -inf.
    """
    _check_samples(samples)
    rows = []
    target = bounds.mdp_rate(x)
    for n in n_list:
        n = int(n)
        spec = model_family(n)
        cert = conditions.certify(spec)
        a_n = float(a_rule(n))
        threshold = a_n * x
        try:
            exact = exact_tail(spec, threshold)
        except DomainError:  # too large for the count-vector engine
            exact = None
        if spec.dist.kind == "gaussian":
            est = exact
        else:
            est = estimate_tail(spec, threshold, "tilted", lam_policy, samples, seed, cert)
        p_exact = exact.p_hat if exact is not None else math.nan
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
