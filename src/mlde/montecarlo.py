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
  x), built once per call and read for all of a grid's thresholds at once.
* exact distances: the KS distance of X_n to the normal, read at the atoms
  of its sum law (one part's law, or two parts' laws folded and sorted).

One builder, ``_part_law``, gives each part's tilted sum law to the oracles
and the sampler alike: the binomial table for two atoms, a polynomial power
on a larger lattice, or the count vectors, equal sums folded, where they
are priced lower.  Each is a ``_Law``, on a lattice with atoms base +
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
draws the histogram of the N draws instead (``_histogram_sums``: the first
part's counts, then one multinomial call for the second part's counts at
every drawn atom of the first) where that is priced lower (``_weighted_tail``).
One cost model prices every build by arithmetic before it allocates, from
unit costs measured once: a part's law, 6 ns a histogram cell (min(N, outer
atoms) x inner atoms), 150 ns a draw and category; past TIME_BUDGET (2 s) or
BYTE_BUDGET (256 MiB) a law, binomial table or KS fold is refused as
too-large; draws priced at _POOL_S or more run on one worker per CPU.  One
kernel, ``_weigh``, weighs both routes' hits, k draws at each.  Either route
gives bit-identical estimates for any worker count at a fixed seed.

Every sampled estimate is a threshold grid, of one row or many, and a grid is
one batch (``_sampled_rows``, ``_weighted_tail``): one saddlepoint solve for
every row, the routes priced once and Psi_n in one call.  On the histogram
route each part's law is built at the first row's tilt lam_b and re-tilted
for each later row as pmf e^((lam_i - lam_b) a), with one max shift.  A row
is built at its own tilt, and becomes the base, where (support atoms)
2^-1022 e^((lam_i - lam_b) a_end) / sum pmf e^((lam_i - lam_b) a) passes
_TAU = 2^-60: every atom a table leaves out or holds as a subnormal has pmf
below 2^-1022, so this caps the tilted mass a re-tilt can miss.  A row's expected estimate under a re-tilted law is within
its L1 error times e^(Psi_n - lam c) of the exact tail, c the least atom
above x.  Every row draws from block_rng(seed, 0); a built row has the bits
of the one-row estimate.  Tilts at which |Psi_n| or |lam| max|X_n| reaches
2^32 are refused: the weights' exponent cancels there.
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

# exact_tail's one route by either spelling; the benchmark pins "exact_enum"
EXACT_METHODS = ("exact", "exact_enum")
TAIL_METHODS = ("crude", "tilted") + EXACT_METHODS
MAX_SAMPLES = 1 << 30  # largest sample count an estimator takes (2^18 blocks of BLOCK)
# The cost model's budgets and unit costs, medians of 7 on one core of a shared 2-vCPU
# x86_64 (numpy 2.4.6), never measured at run time: a route picks the random stream.
TIME_BUDGET = 2.0  # seconds
BYTE_BUDGET = 1 << 28
_TABLE_S = 45e-6  # a _Binomial call: 41-63 us from 11 to 2001 atoms
_ATOM_S = 30e-9  # and each atom of its table: 21-32 ns from 4128 to 800,128 atoms
_POWER_S = 7e-11  # each squared atom of a lattice power: 62-93 ps from 4001 to 200,001 atoms
_SORT_S = 150e-9  # each count vector (chain and fold) or fold cell: 82-183 ns
_CELL_S = 6e-9  # each histogram cell: 2.9-14 ns on the crossover table at N >= 1e4
_DRAW_S = 150e-9  # each draw and category of its parts: 70-250 ns
_BYTES = 64  # at a build's peak, per table atom, count vector or fold cell: 31, 40-50, 59-63
# Per-draw blocks priced at this or more run on min(CPUs, blocks) workers, the rest serially: on
# the same machine 2 workers beat 1 in under 10 of 11 alternated pairs wherever priced at 15 ms
_POOL_S = 16e-3  # or less, in 10-11 from 18 ms on; gaussian specs (priced 0) lost up to 1e6 draws
# The tilted mass a threshold grid's re-tilted part law may leave out (_retilted): the rows'
# expected estimates are then off by at most _TAU e^(Psi_n - lam c), c the least hit atom
_TAU = 2.0**-60


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


def _afford(seconds, nbytes, what, *args):
    """Refuse, before it allocates, a build priced past either budget; what.format(*args),
    formatted only then, names it, with the price in full so a refused one reads above it."""
    if seconds > TIME_BUDGET or nbytes > BYTE_BUDGET:
        raise DomainError(
            f"too-large: {what.format(*args)} is priced at {float(seconds)!r} s and "
            f"{nbytes / 2**20!r} MiB, over {TIME_BUDGET} s or {BYTE_BUDGET >> 20} MiB")


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
        _afford(_TABLE_S + span * _ATOM_S, span * _BYTES, "Binomial({}, {:.6g}) over {} atoms",
                n, p, span)
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
    """(atoms, powered, seconds, bytes): the form _part_law builds for count
    draws from d and its price, by arithmetic.  Two atoms are a binomial table
    (_binomial_span at p = 1/2); more on a lattice v_0 + g*{0, ..., k_last}, the
    power over count*k_last + 1 offsets or the count vectors (folding into at
    most as many atoms), whichever is priced lower; off one, the count vectors."""
    m = len(d.values)
    if m == 2:
        span = _binomial_span(count, math.sqrt(count) / 2)
        return span, True, _TABLE_S + span * _ATOM_S, span * _BYTES
    vectors = min(math.comb(count + m - 1, m - 1), 1 << 64)  # past every budget, still a float
    # the chain's binomial tables, one per count left at each atom but the last
    seconds = (1 + (m - 2) * (count + 1)) * (_TABLE_S + (count + 1) * _ATOM_S) + vectors * _SORT_S
    atoms = count * int(d.lattice[1][-1]) + 1 if d.lattice else vectors
    if d.lattice and atoms**2 * _POWER_S < seconds:
        return atoms, True, atoms**2 * _POWER_S, atoms * _BYTES
    return min(vectors, atoms), False, seconds, vectors * _BYTES


def _part_law(d, count, lam):
    """The _Law of the sum of count iid draws from d's lam-tilted table, in
    _part_route's form, refused (too-large) when priced past either budget.

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
    size, powered, seconds, nbytes = _part_route(d, count)
    values, probs = tilting.tilted_table(d, lam)
    (g, terms), base = d.lattice or (None, values), count * values[0]
    if len(terms) == 2:
        return _Binomial(count, probs[1], base, g)
    _afford(seconds, nbytes, "{} draws of {} atoms, {} sums,", count, len(terms), size)
    if powered:
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
        sizes = left + 1  # each vector so far branches on k = 0..left draws of v
        k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # one binomial table per distinct count left, end to end; np.repeat, not a
        # row index, keeps four length-V arrays alive at most: the fold sets the peak
        counts = np.unique(left)
        starts = np.cumsum(counts + 1) - (counts + 1)
        step = np.concatenate([_Binomial(c, p / r).dense() for c in counts])[
            np.repeat(starts[np.searchsorted(counts, left)], sizes) + k]
        step *= np.repeat(pmf, sizes)
        pmf, sums = step, np.repeat(sums, sizes)
        sums += k * v
        left = np.subtract(np.repeat(left, sizes), k, out=k)  # in k's buffer
    sums += left * terms[-1]
    del k, left  # before the fold's temporaries
    order = np.argsort(sums, kind="stable")  # each sum's terms in input order for bincount
    sums, pmf = sums[order], pmf[order]
    new = np.append(True, sums[1:] != sums[:-1])
    pmf, sums = np.bincount(np.cumsum(new) - 1, pmf), sums[new]
    return _Law(sums, pmf) if g is None else _Law(base + sums * g, pmf, lattice=(base, g))


def _weighted_tail(spec, xs, lams, n_samples, seed):
    """[(p, se)] at each threshold of xs under its own tilt of lams, every
    row drawn from the same seed: from the histogram of the parts' tilted
    sum laws (their builds and min(N, outer atoms) x inner atoms cells a
    row) where it fits the budgets and is priced below the n_samples draws
    (m - 1 categories per m-atom part), else from the draws, pooled where
    they are priced at _POOL_S or more.  The routes are priced once for the grid, as they do not depend on
    the tilt, and Psi_n is one cumulant_process call.

    A tilt is refused first where its weights e^(Psi_n - lam X_n) carry no
    information: where Psi_n overflows, so that every weight would be nan,
    and where |Psi_n| or |lam| max|X_n| reaches 2^32 (|Psi_n| alone for a
    gaussian spec), past which the exponent, rounded at 2^-53 of its size,
    is no longer good to 2^-20, and Psi_n - lam X_n cancels (at lam = 1e300
    every weight of a draw at the top atom read as 1)."""
    with np.errstate(over="ignore"):  # an overflowing term reads as inf, refused below
        psi = tilting.cumulant_process(spec, np.array(lams, dtype=float)).tolist()
    parts = spec.iid_parts() if spec.dist.kind != "gaussian" else ()  # no parts: per draw
    largest = sum(count * max(-d.values[0], d.values[-1]) for d, count in parts)  # max |X_n|
    for t, p in zip(lams, psi):
        if not math.isfinite(p):
            raise DomainError(f"Psi_n({t:.6g}) = {p}: the tilt overflows every weight")
        if abs(p) >= 2.0**32 or abs(t) * largest >= 2.0**32:
            raise DomainError(f"Psi_n({t:.6g}) = {p:.6g}, lam max|X_n| = {abs(t) * largest:.6g}: "
                              "past 2^32 the weights' exponent Psi_n - lam X_n cancels")
    routes = [_part_route(d, count) for d, count in parts]
    *outer, inner = [atoms for atoms, *_ in routes] or [0]
    cells = inner * (min(n_samples, outer[0]) if outer else 1)
    price, fits, draws = cells * _CELL_S, 16 * cells <= BYTE_BUDGET, 0.0  # two 8-byte matrices
    for (d, _), (_, _, seconds, nbytes) in zip(parts, routes):
        price += seconds
        fits = fits and seconds <= TIME_BUDGET and nbytes <= BYTE_BUDGET
        draws += n_samples * _DRAW_S * (len(d.values) - 1)
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
    """Each row's part laws for its tilt: built (_part_law) at the first
    row's tilt lam_b, then re-tilted for each later row, unless a re-tilt
    could leave out more than _TAU of the row's tilted mass; that row is
    built at its own tilt and becomes the base.  A crude grid (lam = 0 in
    every row) reads the laws it built."""
    base = None
    for lam in lams:
        laws = None
        if base is not None:
            lam_b, built = base
            laws = built if lam == lam_b else _retilted(parts, built, lam - lam_b)
        if laws is None:
            laws = [_part_law(d, count, lam) for d, count in parts]
            base = lam, laws
        yield laws


def _retilted(parts, laws, delta):
    """The part laws re-tilted by delta: pmf e^(delta a) over the same atoms a,
    normalized after one max shift, or None where, for some part, the mass
    the re-tilt could miss outside the law's table passes _TAU.

    A table's every atom left out, or held as a subnormal (binomial tables
    keep pmf >= 2^-1100, the power and the count vectors keep what does not
    underflow), has pmf below 2^-1022, so the mass missed is at most
    (support atoms) 2^-1022 e^(delta a_end) / sum pmf e^(delta a), with a_end
    the end of the support delta tilts towards and the sum over the table.
    The atoms the table holds carry their relative rounding of a few ulps
    over, and the exponent delta a its rounding at 2^-53 |delta a|."""
    out = []
    for (d, count), law in zip(parts, laws):
        e = delta * law.atoms
        top = e.max()
        w = law.pmf * np.exp(e - top)
        total = w.sum()
        end = delta * count * (d.values[-1] if delta > 0 else d.values[0])
        m = len(d.values)
        support = count * int(d.lattice[1][-1]) + 1 if d.lattice else math.comb(count + m - 1, m - 1)
        if not (total > 0.0 and math.log(support) + (end - top) - math.log(total)
                <= math.log(_TAU) + 1022 * math.log(2.0)):
            return None
        out.append(_Law(law.atoms, w, lattice=law.lattice))
    return out


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
        if spec.dist.kind == "gaussian":
            v = spec.total_variance()
            a, last, lattice = 0.0, lam * v + math.sqrt(v) * rng.standard_normal(m), None
        else:
            *first, (last, lattice) = [_part_draws(d, c, lam, rng, m) for d, c in spec.iid_parts()]
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
    return _sampled_rows(spec, [x], "crude", 0.0, n_samples, seed)[0]


def tilted_tail_estimate(
    spec: MartingaleSpec, x: float, lam: float, n_samples: int, seed: int
) -> TailEstimate:
    """Importance-sampling estimate of P(X_n > x) under the lam-tilted law."""
    return _sampled_rows(spec, [x], "tilted", lam, n_samples, seed)[0]


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

    A finite spec solves at min(x, m), m = top - g/2 the midpoint of X_n's
    two top atoms (g the least top gap of its parts): above m, {X_n > x} is
    {X_n = top}.  The tilt at m has bounded relative error: the deficit
    top - X_n has tilted mean g/2 and is >= g off the top, so (Markov) the
    top atom's tilted mass q is >= 1/2, and a draw weighing each hit p/q
    has variance p^2 (1/q - 1) <= p^2."""
    xs = np.asarray(x, dtype=float).reshape(-1).tolist()
    if not all(v >= 0 for v in xs):  # nan too
        raise DomainError("x must be >= 0")
    sup = _drift_supremum(spec)
    if xs and max(xs) >= sup:
        raise DomainError(
            f"threshold {max(xs):.6g} at or beyond the maximal reachable drift {sup:.6g}"
        )
    if sup < math.inf:
        top = sup - 0.5 * min(d.values[-1] - d.values[-2] for d, _ in spec.iid_parts())
        xs = [min(v, top) for v in xs]
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


def _drift_supremum(spec) -> float:
    if spec.dist.kind == "gaussian":
        return math.inf
    return sum(count * d.values[-1] for d, count in spec.iid_parts())


# -- exact oracles -------------------------------------------------------------

def _exact_oracle(spec: MartingaleSpec):
    """xs -> [exact_tail(spec, x) for x in xs], every part's law built once
    and every row read at once: one part's tails at all xs in one _Law.tails
    call, or the last part's tails at x minus each atom of the first over
    the rows x outer atoms matrix (in blocks of about 2^16 cells), each row
    weighted by the first part's pmf (np.vecdot, np.dot's bits)."""
    if spec.dist.kind == "gaussian":
        sd = math.sqrt(spec.total_variance())
        tag = "exact_gaussian"

        def tails(xs):
            return [bounds.gaussian_tail(x / sd) for x in xs.tolist()]
    else:
        *first, law = [_part_law(d, count, 0.0) for d, count in spec.iid_parts()]
        two_point = not first and len(spec.dist.values) == 2
        tag = "exact_binomial" if two_point else "exact_enum"

        def tails(xs):
            if not first:
                return law.tails(xs)[1].tolist()
            outer, rows = first[0], max(1, (1 << 16) // len(first[0].atoms))
            return [p for i in range(0, len(xs), rows) for p in np.vecdot(
                law.tails(xs[i:i + rows, None] - outer.atoms)[1], outer.pmf).tolist()]
    return lambda xs: [TailEstimate(x=x, p_hat=min(p, 1.0), std_err=0.0, n_samples=0,
                                    method=tag, seed=0, lambda_used=0.0)
                       for x, p in zip(xs, tails(np.asarray(xs, dtype=float)))]


def exact_tail(spec: MartingaleSpec, x: float) -> TailEstimate:
    """Exact P(X_n > x): the closed-form normal tail for gaussian specs
    (tagged exact_gaussian), the parts' sum laws from _part_law for every
    finite spec (exact_binomial for an iid two-point law, else exact_enum).
    A law priced past TIME_BUDGET or BYTE_BUDGET raises DomainError
    (too-large), as does a nan x, before any work."""
    if math.isnan(x):
        raise DomainError("threshold x is nan")
    return _exact_oracle(spec)([x])[0]


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
    sorted, refused before any allocation when the fold is priced past either
    budget.  _ks_from_cdf reads it at the atoms, so the
    distance is good to a few 1e-16 absolute."""
    if spec.dist.kind == "gaussian":
        return 0.0  # exactly normal at every tilt
    parts = spec.iid_parts()
    if len(parts) > 1:
        cells = math.prod(_part_route(*part)[0] for part in parts)
        _afford(cells * _SORT_S, cells * _BYTES, "the fold of {} cells", cells)
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
    gaussian spec is read, iid or variance switching; a part's law or two
    parts' fold priced past either budget raises DomainError (too-large)."""
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
    return _sampled_rows(spec, [x], method, lam_policy, samples, seed, cert)[0]


def resolve_tilt(spec, xs, lam_policy, cert=None) -> list:
    """The tilt for a policy at each threshold of xs: a number as given,
    refused unless finite and >= 0, "saddlepoint" (one solve for all), or
    "paper" (the largest root of the drift equation at c = bounds.C)."""
    if isinstance(lam_policy, (int, float)):
        if not 0.0 <= lam_policy < math.inf:
            raise DomainError(f"lam = {lam_policy!r} must be finite and >= 0")
        return [float(lam_policy)] * len(xs)
    if lam_policy == "saddlepoint":
        return saddlepoint_lambda(spec, np.array(xs, dtype=float)).tolist()
    if lam_policy == "paper":
        if cert is None:
            cert = conditions.certify(spec)
        return [tilting.solve_lambda_bar(x, cert.epsilon, cert.delta, bounds.C) for x in xs]
    raise ConfigError(f"unknown lambda policy {lam_policy!r}")


def _sampled_rows(spec, xs, method, lam_policy, samples, seed, cert=None) -> list:
    """The crude or tilted (at resolve_tilt's tilts) estimate at every
    threshold of xs: one resolve_tilt call for the tilts and one
    _weighted_tail call for the estimates.  A tilted row at or past the top
    of the support is p_hat = 0 from no samples, and asks for none: at least
    100 samples are required only where a row is sampled."""
    if method not in ("crude", "tilted"):
        raise ConfigError(f"unknown method {method!r}")
    xs = [float(x) for x in xs]
    if any(map(math.isnan, xs)):
        raise DomainError("threshold x is nan")
    top = _drift_supremum(spec) if method == "tilted" else math.inf
    inside = [x for x in xs if x < top]
    _check_samples(samples, least=100 if inside else 0)
    if method == "tilted":
        lams = resolve_tilt(spec, inside, lam_policy, cert)
    else:
        lams = [0.0] * len(inside)
    sampled = iter(zip(lams, _weighted_tail(spec, inside, lams, samples, seed)))
    rows = []
    for x in xs:
        if x < top:
            lam, (p, se) = next(sampled)
            rows.append(TailEstimate(x=x, p_hat=p, std_err=se, n_samples=samples,
                                     method=method, seed=seed, lambda_used=lam))
        else:  # no atom above x, and no tilt reaches it
            rows.append(TailEstimate(x=x, p_hat=0.0, std_err=0.0, n_samples=0,
                                     method=method, seed=seed))
    return rows


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
        estimates = _exact_oracle(spec)(x_grid)
    else:
        estimates = _sampled_rows(spec, x_grid, method, lam_policy, samples, seed, cert)
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
    covers the spec, and nan where a part's sum law is priced past the budgets.
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
        except DomainError:  # a part's sum law priced past the budgets
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
