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
* exact oracles: the closed-form normal tail for gaussian specs; for every
  finite spec the last part's tail at x minus each atom of the first (or at
  x), built once per call, however many thresholds read it.
* exact distances: the KS distance of X_n to the normal, read at the atoms
  of its sum law (one part's law, or two parts' laws folded and sorted).

One builder, ``_part_law``, gives each part's tilted sum law to the oracles
and the sampler alike: the binomial table for two atoms, a polynomial power
on a larger lattice, or the count vectors, equal sums folded, where they
are cheaper to build.  Each is a ``_Law``, on a lattice with atoms base +
offset*g in every form.  One tie rule in float arithmetic, ``_cut``, gives
the least value an atom above x must have: on a lattice the first atom that
both floor((x - base) / g) and its float value put above x, off one the
next double.  Every exact reader and every sampled hit compare with it, so
the sampler puts an atom at x on the same side as exact_tail does.

Sampling draws each part's sufficient statistic: binomial counts for a
two-atom table, multinomial counts for a larger one, both over the part's
tilted table (``tilting.tilted_table``, the one tilt of a finite law), and a
single normal draw for gaussian specs, in fixed-size blocks from
counter-based sub-streams, added by math.fsum in block order; a finite spec
whose sum laws are small enough for the sample count N (``_weighted_tail``)
draws the histogram of the N draws instead (``_histogram_sums``): the first
part's counts, then one multinomial call for the second part's counts at
every drawn atom of the first.  One kernel, ``_weigh``, weighs both routes'
hits, k draws at each.  Either route gives bit-identical estimates for any
worker count at a fixed seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import bounds, conditions, tilting
from .errors import ConfigError, DomainError
from .model import BLOCK, MartingaleSpec, block_rng

ENUM_LIMIT = 1 << 24  # largest count-vector table (vectors x atoms) _part_law builds
# Most atoms _part_law powers a lattice table of 3+ atoms to; the time grows
# as atoms^2: 0.18-0.20 s at 48,001 atoms, 0.52-0.55 s at 90,001, 1.0-1.1 s
# at 131,071, each under 30 MB peak RSS (3 runs, one core, numpy 2.4.6).
CONVOLVE_ATOMS = 1 << 17
# exact_tail's one route by either spelling; the benchmark pins "exact_enum"
EXACT_METHODS = ("exact", "exact_enum")
TAIL_METHODS = ("crude", "tilted") + EXACT_METHODS
MAX_SAMPLES = 1 << 30  # largest sample count an estimator takes (2^18 blocks of BLOCK)
# Largest product of the parts' atom counts the histogram route draws over.
# A binomial table's draw costs about its span, N draws one by one about N:
# tilted Rademacher at n = 1e4, 1e5 and 1e6 took 0.36-0.56, 0.65-1.0 and
# 2.0-2.8 ms from 4128, 12778 and 40128 atoms, against 8.4-11.8 ms for 1e5
# draws and 0.08-0.16 ms for 100 (medians of 7, three runs).  With two parts
# the draw costs about (outer atoms drawn) x (inner atoms): on the tilted
# three-point varswitch law at x = 2, 361^2 cells took 1.2-2.0 ms against
# 7.5-9.0 ms per draw at N = 1e4, 601^2 cells 2.7-3.8 against 6.7-6.8 ms at
# N = 1e4 and 3.9-4.5 against 53-62 ms at N = 1e5, and 1201^2 cells 6.1-7.5
# against 5.1-5.9 ms at N = 1e4 (medians of 7, two runs, one core, numpy
# 2.4.6).
HISTOGRAM_CELLS = 1 << 17
# Largest product of the parts' atom counts the two-part KS folds into the
# law of X_n.  The Rademacher varswitch fold took 100-145 ms and 87 MB peak
# RSS at 1001^2 cells (n = 2000), 88-120 ms and 89 MB at 1024^2 (n = 2046)
# and 305-319 ms and 171 MB at 1918^2 (n = 4000), from 30 MB after import
# (three runs each, one core, numpy 2.4.6).
FOLD_CELLS = 1 << 20
# Most atoms a binomial table spans (about 80 sds, so n up to 2.7e9 at
# p = 1/2); 775,801 atoms (n = 4e8) took 0.045 s and 27 MB RSS over import.
BINOMIAL_ATOMS = 1 << 21


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


# -- the binomial law ----------------------------------------------------------
# Binomial(n, p) is tabulated over the atoms where its pmf is at least 2^-1100
# (every other atom holds less than one subnormal double), outward from the
# mode by the ratio recurrence, scaled by 2^SHIFT so that the whole table and
# its partial sums are normal doubles: a subnormal tail is rounded only once,
# by the final ldexp.  The mode's pmf is Loader's saddlepoint form (C. Loader,
# "Fast and accurate computation of binomial probabilities", 2000), or the
# power p^n or (1 - p)^n at an edge, where those also replace the recurrence's
# last term.  The recurrence's odds p/q are rounded once, and that error,
# which would compound over k, is taken out to first order, so each pmf value
# is good to a few ulps plus a random walk of roundings over its distance
# from the mode.  Its _Law's tails take p as given and keep relative
# accuracy in both tails: a prefix sum from the table's low end below the
# mode, a suffix sum from its high end above it, each 1 minus the other on
# the far side.  Against exact sums over n <= 1e6 they stay within
# 6 eps (1 + |ln P|) relative wherever P >= 1e-300 (scipy.stats.binom: 131).

_SHIFT = 1000
_TINY = 2.0 ** -100  # 2^-1100 after the shift
# Loader's stirlerr(n) = ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi) for n < 16
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n):
    if n < 16:
        return _STIRLERR[n]
    nn = float(n) * n  # the Stirling series 1/12n - 1/360n^3 + ... to 1/1188n^9
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _bd0(x, m):
    """x log(x/m) + m - x without cancellation (Loader's deviance)."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s, term, v2, j = (x - m) * v, 2.0 * x * v, v * v, 1
    while True:
        term *= v2
        s1 = s + term / (2 * j + 1)
        if s1 == s:
            return s
        s, j = s1, j + 1


def _run(top, steps, ratio, odds, a, b, sd):
    """2^SHIFT pmf(mode +- j) for j = 1, 2, ... while at least _TINY: top
    times the cumulative products of (a - j) / (b + j) * ratio, where ratio is
    the rounded odds = (num, den), p/(1 - p) or its inverse; its rounding
    error, the same at every step, is taken out at the end."""
    if steps == 0 or ratio == 0.0:
        return np.zeros(0)
    width, runs, done = 64 + math.ceil(40 * sd), [], 0
    while done < steps and (not runs or runs[-1][-1] >= _TINY):  # else double the width
        j = np.arange(done + 1, min(steps, done + width) + 1, dtype=float)
        f = (a - j) / (b + j) * ratio
        f[0] *= runs[-1][-1] if runs else top
        runs.append(np.cumprod(f, out=f))
        done, width = done + len(j), 2 * width
    run = np.concatenate(runs) if len(runs) > 1 else runs[0]
    run = run[:np.count_nonzero(run >= _TINY)]  # it falls away from the mode
    (num, den), (r_num, r_den) = odds, ratio.as_integer_ratio()
    err = (num * r_den - den * r_num) / (den * r_num)  # odds / ratio - 1, rounded once
    return run * (1.0 + err * np.arange(1, len(run) + 1))


def _binomial_span(n, sd):
    """The atoms _Binomial first tabulates for n draws of sd: about 80 sds."""
    return min(n + 1, 2 * (64 + math.ceil(40 * sd)))


def _cut(y, lattice):
    """The one tie rule: the least value an atom must have to lie above each
    y, in float arithmetic.  Off a lattice it is the next double past y.  On
    the lattice base + j g it is the atom at j = floor((y - base) / g) + 1,
    one further where that atom, computed as base + j g, is not above y: the
    quotient can round below an atom's own offset (with base = -6c and g = 2c
    the atom base + 3g is 0.0, but (0.0 - base) / g can round to
    2.9999999999999996, and so can (1e-17 - base) / g).  An atom lies above y
    only when both its offset and its value say so: a y within the
    quotient's rounding of an atom, on either side, is at it, and the cut
    never falls as y grows."""
    if lattice is None:
        return np.nextafter(y, np.inf)
    base, g = lattice
    j = np.floor((y - base) / g) + 1.0
    return base + (j + (base + j * g <= y)) * g


class _Law:
    """A sum law: ascending atoms, scaled = 2^shift pmf (2^_SHIFT for a
    binomial table, else 1) and, on a lattice, (base, g), each atom being
    base + offset*g.  pmf, which the sampler and the KS read, is unscaled
    and normalized; above and tails read which atoms lie above a threshold."""

    def __init__(self, atoms, scaled, shift=0, lattice=None):
        self.atoms, self.scaled, self.shift, self.lattice = atoms, scaled, shift, lattice
        # in place when unscaled, so the tails read it too (a copy of a large
        # table raises the peak RSS)
        self.pmf = np.ldexp(scaled, -shift) if shift else scaled
        self.pmf /= self.pmf.sum()

    @cached_property
    def mode(self):
        return int(np.argmax(self.scaled))

    def above(self, y):
        """The index of the first atom above each y: the first at or past its _cut."""
        return np.searchsorted(self.atoms, _cut(y, self.lattice))

    @cached_property
    def _sums(self):  # 2^shift P(X < atoms[i]) and 2^shift P(X >= atoms[i]), i = 0..len
        s = self.scaled
        return (np.concatenate(([0.0], np.cumsum(s))),
                np.concatenate((np.cumsum(s[::-1])[::-1], [0.0])))

    def tails(self, y):
        """(P(X <= y), P(X > y)) at each y: the partial sum that leaves out
        the mode, unscaled once, and 1 minus it."""
        i = self.above(y)
        below, upper = (np.ldexp(s[i], -self.shift) for s in self._sums)
        low = i <= self.mode
        return np.where(low, below, 1.0 - upper), np.where(low, 1.0 - below, upper)


class _Binomial(_Law):
    """Binomial(n, p), 0 <= p <= 1, as the _Law of base + g X over lo..lo +
    len(scaled) - 1: scaled[i] = 2^SHIFT pmf(lo + i)."""

    def __init__(self, n, p, base=0.0, g=1.0):
        n, p = int(n), float(p)
        q = 1.0 - p
        mode = min(n, math.floor((n + 1) * p))
        # q^n for the exact 1 - p, which is q + ((1 - q) - p) with each step exact
        qn = q**n * math.exp(n * ((1.0 - q) - p) / q) if q else float(n == 0)
        if mode == 0:
            anchor = qn
        elif mode == n:
            anchor = p**n
        else:
            lc = (_stirlerr(n) - _stirlerr(mode) - _stirlerr(n - mode)
                  - _bd0(mode, n * p) - _bd0(n - mode, n * q))
            anchor = math.exp(lc) / math.sqrt(math.tau * (mode * (n - mode) / n))
        top, sd = math.ldexp(anchor, _SHIFT), math.sqrt(n * p * q)
        span = _binomial_span(n, sd)
        if span > BINOMIAL_ATOMS:
            raise DomainError(f"too-large: Binomial({n}, {p:.6g}) spans about {span} "
                              f"atoms, over {BINOMIAL_ATOMS}")
        num, den = p.as_integer_ratio()  # the exact odds are num : (den - num)
        up = _run(top, n - mode, p / q if q else 0.0, (num, den - num), n - mode + 1, mode, sd)
        down = _run(top, mode, q / p if p else 0.0, (den - num, num), mode + 1, n - mode, sd)
        lo, t = mode - len(down), np.concatenate([down[::-1], [top], up])
        if lo == 0 and qn >= 2.0**-1022:  # the edges are powers
            t[0] = math.ldexp(qn, _SHIFT)
        if mode + len(up) == n and p**n >= 2.0**-1022:
            t[-1] = math.ldexp(p**n, _SHIFT)
        super().__init__(base + np.arange(lo, lo + len(t)) * g, t, _SHIFT, (base, g))
        self.n, self.lo, self.mode = n, lo, len(down)

    def dense(self):
        """pmf over 0..n."""
        out = np.zeros(self.n + 1)
        out[self.lo:self.lo + len(self.pmf)] = self.pmf
        return out


# scipy.stats.binom's spelling of the law, for callers outside the library
binom = SimpleNamespace(
    pmf=lambda k, n, p: _Binomial(n, p).dense()[k],
    cdf=lambda k, n, p: _Binomial(n, p).tails(k)[0],
    sf=lambda k, n, p: _Binomial(n, p).tails(k)[1],
)


# -- the normal cdf, elementwise ----------------------------------------------

def _normal_cdf(x):
    """Phi of every element of x, relatively accurate in both tails: math.erfc
    at the double -x/sqrt(2), as bounds.gaussian_tail reads it (called
    directly, since the tracer counts each gaussian_tail call).  math.erfc
    is exactly 2 below -5.8635847487551676 and 0 past 27.226364135742184
    (found by bisection), so only the elements between, and nan, are mapped."""
    z = np.asarray(x, dtype=float) / -math.sqrt(2.0)
    low = z < -5.8635847487551676
    out, mid = np.where(low, 1.0, 0.0), ~(low | (z > 27.226364135742184))
    # fromiter over a list: 1.3-1.6x faster than a list comprehension at 1e4-1e5 atoms
    out[mid] = 0.5 * np.fromiter(map(math.erfc, z[mid].tolist()), float)
    return out


# -- deterministic parallel plumbing ------------------------------------------

def resolve_workers() -> int:
    """The worker count MLDE_THREADS asks for (1 when unset)."""
    workers = os.environ.get("MLDE_THREADS", "1")
    try:
        workers = int(workers)
    except ValueError:
        raise ConfigError(f"bad worker count {workers!r}")
    return max(1, workers)


# -- tilted sampling of the parts' sufficient statistics ---------------------

def _part_draws(d, count, lam, rng, m):
    """(sums, lattice): m draws of the sum of count iid draws from d's
    lam-tilted table, from its sufficient statistic, and the lattice _cut
    reads them on.  Each sum has the bits of _part_law's atom: count*v_0 +
    i*g on a lattice, off one the count vector's terms added in its order."""
    values, probs = tilting.tilted_table(d, lam)
    if len(values) == 2:
        i = rng.binomial(count, probs[1], size=m)
    else:
        counts = rng.multinomial(count, probs, size=m)
        if d.lattice is None:
            return sum(k * v for v, k in zip(values, counts.T)), None
        i = counts @ d.lattice[1]
    base, g = count * values[0], d.lattice[0]
    return base + i * g, (base, g)


def _check_samples(n_samples, least=0):
    """Reject a sample count below least or above MAX_SAMPLES before any work."""
    if not least <= n_samples <= MAX_SAMPLES:
        raise ConfigError(f"samples = {n_samples} outside [{least}, {MAX_SAMPLES}]")


def _part_route(d, count):
    """(atoms, powered, cap): the form _part_law builds for count draws from
    d, by arithmetic, and that form's atom cap; powered names the binomial
    table or power over every lattice offset, else count vectors.  Both caps
    take about 1 s, count vectors growing linearly and a 3+ atom power as
    atoms squared, so such a lattice table takes the smaller share of its cap.
    A two-atom table is binomial, _binomial_span atoms at the widest tilt
    (p = 1/2), and capped by _Binomial itself (BINOMIAL_ATOMS), not here."""
    lattice, m = d.lattice, len(d.values)
    vectors, cap = math.comb(count + m - 1, m - 1), ENUM_LIMIT // m
    if lattice is None:
        return vectors, False, cap
    if m == 2:
        return _binomial_span(count, math.sqrt(count) / 2), True, math.inf
    atoms = count * int(lattice[1][-1]) + 1
    if (atoms / CONVOLVE_ATOMS) ** 2 <= vectors / cap:
        return atoms, True, CONVOLVE_ATOMS
    return vectors, False, cap


def _part_law(d, count, lam):
    """The _Law of the sum of count iid draws from d's lam-tilted table, in
    _part_route's form, refused past its cap.

    On a lattice v_0 + g*{0, k_1, ...} the atoms are count*v_0 + i*g in every
    form, as _part_draws computes them.  For two atoms the law is the
    binomial table over its own span, the i holding more than 2^-1100 of
    the mass; powered, the pmf is the count-th power of the tilted step
    polynomial by binary powering (np.convolve of non-negative terms),
    over every i up to count * k_last.  Otherwise each count vector's
    probability is a chain of conditional binomials: atom j takes
    Binomial(left, p_j / sum_{i>=j} p_i) of the draws the earlier atoms left,
    and its sum adds the offsets k_j (the values off a lattice); equal sums
    fold into one atom ({0, 1, 100} at n = 2000: 2,003,001 into 195,150)."""
    size, powered, cap = _part_route(d, count)
    if size > cap:
        raise DomainError(f"too-large: {count} draws of {len(d.values)} atoms make "
                          f"{size} {'sums' if powered else 'count vectors'}, over {cap}")
    values, probs = tilting.tilted_table(d, lam)
    (g, terms), base = d.lattice or (None, values), count * values[0]
    if powered:
        if len(terms) == 2:
            return _Binomial(count, probs[1], base, g)
        step, pmf = np.zeros(terms[-1] + 1), np.ones(1)
        step[terms] = probs
        for bit in bin(count)[2:]:  # high bit first
            pmf = np.convolve(pmf, pmf)
            if bit == "1":
                pmf = np.convolve(pmf, step)
        return _Law(base + np.arange(size) * g, pmf, lattice=(base, g))
    rest = np.cumsum(probs[::-1])[::-1]
    sums, pmf, left = np.zeros(1, terms.dtype), np.ones(1), np.array([count])
    for v, p, r in zip(terms[:-1], probs[:-1], rest[:-1]):
        sizes = left + 1  # each vector so far branches on k = 0..left
        rows = np.repeat(np.arange(len(left)), sizes)
        k = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # one binomial table per distinct count left, laid end to end
        counts = np.unique(left)
        starts = np.cumsum(counts + 1) - (counts + 1)
        tables = np.concatenate([_Binomial(c, p / r).dense() for c in counts])
        sums = sums[rows] + k * v
        pmf = pmf[rows] * tables[starts[np.searchsorted(counts, left)][rows] + k]
        left = left[rows] - k
    sums += left * terms[-1]
    del rows, k, left  # before the fold's temporaries
    order = np.argsort(sums, kind="stable")  # each sum's terms in input order for bincount
    sums, pmf = sums[order], pmf[order]
    new = np.append(True, sums[1:] != sums[:-1])
    pmf, sums = np.bincount(np.cumsum(new) - 1, pmf), sums[new]
    return _Law(sums, pmf) if g is None else _Law(base + sums * g, pmf, lattice=(base, g))


def _weighted_tail(spec, x, lam, n_samples, seed):
    """(p, se) from the histogram of the parts' tilted sum laws when their atom
    counts multiply to at most HISTOGRAM_CELLS and each is at most BLOCK, or
    max(BLOCK, n_samples) for a binomial table, else per draw."""
    resolve_workers()  # a bad MLDE_THREADS is refused on either route
    if math.isnan(x):
        raise DomainError("threshold x is nan")
    psi = tilting.cumulant_process(spec, lam)
    parts = spec.iid_parts() if spec.dist.kind != "gaussian" else ()
    sizes = [_part_route(d, count)[0] for d, count in parts]
    caps = [max(BLOCK, n_samples) if len(d.values) == 2 else BLOCK for d, _ in parts]
    if parts and all(s <= c for s, c in zip(sizes, caps)) and math.prod(sizes) <= HISTOGRAM_CELLS:
        laws = [_part_law(d, count, lam) for d, count in parts]
        s1, s2 = _histogram_sums(laws, x, lam, psi, n_samples, seed)
    else:
        s1, s2 = _per_draw_sums(spec, x, lam, psi, n_samples, seed)
    p = s1 / n_samples
    var = max(s2 / n_samples - p * p, 0.0)
    return p, math.sqrt(var / n_samples)


def _weigh(sums, psi, lam, k):
    """(sum k w, sum k w^2) over hits at the sums, k draws at each, where
    w = exp(psi - lam * sum) is a hit's weight: the one reduction of both
    sampling routes."""
    w = np.exp(psi - lam * sums)
    return np.array([np.dot(k, w), np.dot(k, w * w)])


def _histogram_sums(laws, x, lam, psi, n_samples, seed):
    """(sum w, sum w^2) over the hits of n_samples draws, from their histogram.

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
    rng = block_rng(seed, 0)
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


def _per_draw_sums(spec, x, lam, psi, n_samples, seed):
    """(sum w, sum w^2) over the hits of n_samples draws made one by one, in
    blocks: a draw is a hit where its last part is at or past the _cut of x
    minus its first, as in _histogram_sums.  The blocks run on up to
    MLDE_THREADS workers (one per CPU and per block at most), and math.fsum
    adds their sums in block order, so no worker count moves the result."""
    n_blocks = (n_samples + BLOCK - 1) // BLOCK

    def one(b):
        m, rng = min(BLOCK, n_samples - b * BLOCK), block_rng(seed, b)
        if spec.dist.kind == "gaussian":
            v = spec.total_variance()
            a, last, lattice = 0.0, lam * v + math.sqrt(v) * rng.standard_normal(m), None
        else:
            *first, (last, lattice) = [_part_draws(d, c, lam, rng, m) for d, c in spec.iid_parts()]
            a = first[0][0] if first else 0.0
        hit = last >= _cut(x - a, lattice)
        return _weigh((a + last)[hit], psi, lam, np.ones(np.count_nonzero(hit)))

    workers = min(resolve_workers(), os.cpu_count() or 1, n_blocks)
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
    _check_samples(n_samples, least=100)
    p, se = _weighted_tail(spec, x, 0.0, n_samples, seed)
    return TailEstimate(x=x, p_hat=p, std_err=se, n_samples=n_samples,
                        method="crude", seed=seed, lambda_used=0.0)


def tilted_tail_estimate(
    spec: MartingaleSpec, x: float, lam: float, n_samples: int, seed: int
) -> TailEstimate:
    """Importance-sampling estimate of P(X_n > x) under the lam-tilted law."""
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"lam = {lam!r} must be finite and >= 0")
    _check_samples(n_samples, least=100)
    p, se = _weighted_tail(spec, x, lam, n_samples, seed)
    return TailEstimate(x=x, p_hat=p, std_err=se, n_samples=n_samples,
                        method="tilted", seed=seed, lambda_used=lam)


def saddlepoint_lambda(spec: MartingaleSpec, x: float) -> float:
    """The tilt making the drift process hit x, to a relative width of 1e-10.

    A safeguarded Newton iteration on the exact, increasing drift B_n, whose
    slope is the tilted predictable variance (``tilting.drift_slope``).  It
    starts at x / B_n'(0) with the bracket [0, inf) and takes a Newton step
    only when it stays inside the bracket and at most halves the previous
    step; otherwise it doubles while no upper end is known, and bisects
    after.  A Newton step already below the tolerance is confirmed by one
    probe on the far side of the new iterate; when that probe fails, the
    bracket is closed by bisection alone.  A gaussian spec solves in one step.

    Within 1e-12 (relative) below the top of a finite support the drift
    cannot be resolved; only the top atom of X_n lies above such an x, so the
    tilt is taken at the midpoint of X_n's two top atoms, whose event
    {X_n > midpoint} is the same {X_n = top}."""
    if not x >= 0:  # nan too
        raise DomainError("x must be >= 0")
    if x == 0.0:
        return 0.0
    sup = _drift_supremum(spec)
    if x >= sup:
        raise DomainError(
            f"threshold {x:.6g} at or beyond the maximal reachable drift {sup:.6g}"
        )
    if x >= sup * (1.0 - 1e-12):
        x = sup - 0.5 * min(d.values[-1] - d.values[-2] for d, _ in spec.iid_parts())
    lo, hi, newton = 0.0, math.inf, True
    lam = step = x / tilting.drift_slope(spec, 0.0)
    for _ in range(400):
        f = tilting.drift_process(spec, lam) - x
        if f < 0.0:
            lo = lam
        else:
            hi = lam
        tol = 1e-10 * max(1.0, lam)
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        if newton:
            slope = tilting.drift_slope(spec, lam)  # 0 once the top atom holds all mass
            new = lam - f / slope if slope > 0.0 else math.nan
            if lo <= new <= hi and abs(new - lam) <= 0.5 * step:
                if abs(new - lam) >= 0.5 * tol:
                    lam, step = new, abs(new - lam)
                    continue
                probe = new + (0.5 * tol if f < 0.0 else -0.5 * tol)
                if (tilting.drift_process(spec, probe) < x) != (f < 0.0):
                    return new  # the root lies between lam and probe
                lo, hi = (probe, hi) if f < 0.0 else (lo, probe)
                newton = False
        new = 2.0 * lam if hi == math.inf else 0.5 * (lo + hi)
        lam, step = new, abs(new - lam)
    raise DomainError("drift never reaches the threshold")


def _drift_supremum(spec) -> float:
    if spec.dist.kind == "gaussian":
        return math.inf
    return sum(count * d.values[-1] for d, count in spec.iid_parts())


# -- exact oracles -------------------------------------------------------------

def _exact_oracle(spec: MartingaleSpec):
    """x -> exact_tail(spec, x), with every part's law built once."""
    if spec.dist.kind == "gaussian":
        sd = math.sqrt(spec.total_variance())
        tag, tail = "exact_gaussian", lambda x: bounds.gaussian_tail(x / sd)
    else:  # the last part's tail at x minus each atom of the first, weighted by its pmf
        *first, law = [_part_law(d, count, 0.0) for d, count in spec.iid_parts()]
        atoms, pmf = (first[0].atoms, first[0].pmf) if first else (0.0, 1.0)

        def tail(x):
            return min(float(np.dot(pmf, law.tails(x - atoms)[1])), 1.0)
        two_point = not first and len(spec.dist.values) == 2
        tag = "exact_binomial" if two_point else "exact_enum"
    return lambda x: TailEstimate(x=x, p_hat=tail(x), std_err=0.0, n_samples=0,
                                  method=tag, seed=0, lambda_used=0.0)


def exact_tail(spec: MartingaleSpec, x: float) -> TailEstimate:
    """Exact P(X_n > x): the closed-form normal tail for gaussian specs
    (tagged exact_gaussian), the parts' sum laws from _part_law for every
    finite spec (exact_binomial for an iid two-point law, else exact_enum).
    A law past its cap (_part_law's, or BINOMIAL_ATOMS) raises DomainError,
    as does a nan x, before any work."""
    if math.isnan(x):
        raise DomainError("threshold x is nan")
    return _exact_oracle(spec)(x)


# -- exact distribution-distance machinery ------------------------------------
# The KS distance of a finite law to the normal is the supremum of |F - Phi|
# at its atoms, each approached from both sides.

def _ks_from_cdf(atoms, cdf) -> float:
    """max |F - Phi| over the ascending atoms from each side.  A run of equal
    atoms cannot move the supremum: each partial cdf in the run lies between
    F(a-) and F(a), both read here.

    Only the atoms from the first with F >= eps to the first with
    F >= F_end - eps are read, where eps = 2^-50 and F_end, the last entry,
    is 1 up to the rounding of the sum.  F and Phi are monotone, so a term
    below them is at most max(eps, Phi at the first), which is within eps
    of that atom's left term |F(a-) - Phi(a)|; a term above them is within
    eps of the last atom's term or at most eps + |1 - F_end|.  The result is
    within eps of the full range's, and as accurate as F and Phi are
    absolutely: Phi is _normal_cdf, half of a math.erfc within 4 ulps of
    exact at the double atom / -sqrt(2)."""
    eps = 2.0**-50
    lo, hi = np.searchsorted(cdf, [eps, cdf[-1] - eps])
    left = np.concatenate([cdf[lo - 1:lo] if lo else [0.0], cdf[lo:hi]])
    cdf, phi = cdf[lo:hi + 1], _normal_cdf(atoms[lo:hi + 1])
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))


def _recentred_lattice_ks(spec, lam: float) -> float:
    """Exact KS distance to the standard normal of X_n - B_n(lam) under the
    lam-tilted law, for every finite (and gaussian) spec.

    The tilted law of X_n is read as ascending atoms and pmf: _part_law's
    table for one part; for two, the parts' tables folded cell by cell and
    sorted, refused before any allocation when their atom counts multiply
    past FOLD_CELLS.  _ks_from_cdf reads it at the atoms, so the
    distance is good to a few 1e-16 absolute."""
    if spec.dist.kind == "gaussian":
        return 0.0  # exactly normal at every tilt
    parts = spec.iid_parts()
    cells = math.prod(_part_route(*part)[0] for part in parts)
    if len(parts) > 1 and cells > FOLD_CELLS:
        raise DomainError(f"too-large: the parts' sum laws make {cells} cells, "
                          f"over {FOLD_CELLS}")
    # atoms and pmf only, so that no binomial law's scaled table outlives its pmf
    (atoms, pmf), *rest = [(law.atoms, law.pmf) for law in (_part_law(*p, lam) for p in parts)]
    if rest:
        ((more_atoms, more_pmf),) = rest
        atoms = np.add.outer(atoms, more_atoms).ravel()
        order = np.argsort(atoms, kind="stable")
        atoms, pmf = atoms[order], np.outer(pmf, more_pmf).ravel()[order]
    return _ks_from_cdf(atoms - tilting.drift_process(spec, lam), np.cumsum(pmf))


def conjugate_clt_check(model_family, lam: float, n_list) -> tuple:
    """One RateRow per n: the exact KS of the recentred martingale under the
    tilted law against the normal limit, with the rate budget
    lam*eps + eps|log eps| + delta and the fitted constant.  lam = 0 is the
    plain rate curve, the KS distance of X_n itself.  Every finite or
    gaussian spec is read, iid or variance switching; a part's law past
    _part_law's caps (BINOMIAL_ATOMS for two atoms), or two parts' fold
    past FOLD_CELLS, raises DomainError (too-large)."""
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"lam = {lam!r} must be finite and >= 0")
    rows = []
    for n in n_list:
        spec = model_family(int(n))
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
    resolve_tilt picks, or exact_tail's route.  A nan x raises DomainError."""
    if math.isnan(x):
        raise DomainError("threshold x is nan")
    _check_samples(samples)
    if method in EXACT_METHODS:
        return exact_tail(spec, x)
    if method == "crude":
        return crude_tail_estimate(spec, x, samples, seed)
    if method == "tilted":
        if x >= _drift_supremum(spec):  # no atom above x, and no tilt reaches it
            return TailEstimate(x=x, p_hat=0.0, std_err=0.0, n_samples=0,
                                method="tilted", seed=seed)
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
    negative or nan threshold raises DomainError before any estimate."""
    _check_samples(samples)
    x_grid = [float(x) for x in x_grid]
    for x in x_grid:  # nan fails x >= 0 too
        if not x >= 0.0:
            raise DomainError(f"ratio_experiment requires x >= 0, got {x:.6g}")
    cert = conditions.certify(spec)
    eps, delta = cert.epsilon, cert.delta
    if method in EXACT_METHODS:  # every part's law built once, for all rows
        estimate = _exact_oracle(spec)
    else:
        def estimate(x):
            return estimate_tail(spec, x, method, lam_policy, samples, seed, cert)
    raw = []
    pairs = []
    for x in x_grid:
        est = estimate(x)
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
    covers the spec, and nan where a part's sum law is past _part_law's caps.
    p_hat = 0 rows are reported infeasible rather than mapped to -inf.
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
        except DomainError:  # a part's sum law past _part_law's caps
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
