"""Martingale-difference models: centered one-step laws and the specs that
combine them into a martingale of n steps.

A one-step law answers every question a reader asks of it, so no reader
branches on its kind: its exact moments (whose Bernstein scan conditions takes
once per law); its cumulant, drift and slope at an array of tilts; its top
and top gap; its sum law at a tilt (``sum_law``), that build's price
(``route``), its sums' draws (``draws``) and their KS distance (``ks``).
``TableLaw`` is every finitely supported law as one canonical table (ascending
distinct values, each of positive mass, on a lattice or not), a Rademacher
step included; ``GaussianLaw`` is N(0, sigma2).

Two rules are supported:

* ``iid`` -- independent increments from a fixed law, optionally rescaled by
  1/sqrt(n * E eta^2) so the predictable variance sums to exactly 1.
* ``variance_switching`` -- steps are taken in pairs.  The pair starting after
  step 2j-2 looks at the sign s of the running sum (s = +1 at zero) and gives
  its first step conditional variance (1 + s*rho)/n and its second step
  (1 - s*rho)/n.  Each pair therefore contributes exactly 2/n to the
  predictable variance, so it sums to 1 on every path while the increments
  remain genuinely history-dependent.

``MartingaleSpec.iid_parts`` turns either rule into the iid parts of the
terminal law, the conditional step laws that certify and the lemma checks
read.  ``MartingaleSpec.sum_parts`` are the parts every reader of X_n works
from: the iid parts of a table spec, and for a gaussian spec their fold into
the one part N(0, total_variance()), a sum of independent normals being
normal, so Psi_n = lam^2 V / 2 and B_n = lam V hold to the bit.

A sum law is a ``_Law`` (a ``_Binomial`` for two atoms) or a ``_Normal``.
``_cut`` is the one tie rule of every exact reader and every sampled hit.
``_within_budgets`` tests a price against TIME_BUDGET (2 s) and BYTE_BUDGET
(256 MiB), and ``_afford`` refuses a build that fails it before it allocates.
A table's sum law built at one tilt is re-tilted to another
(``TableLaw.retilted``) under a bound on the mass its cuts leave out, and
``MartingaleSpec.ks`` reads the KS distance of X_n from its parts' sum laws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import bounds
from .errors import ConfigError, DomainError

# Samples are drawn in fixed-size blocks; block b of a run with master seed s
# draws from Philox(key=[s, b]).  Every draw's randomness is a pure function
# of (seed, draw index), so results never depend on the worker count.
BLOCK = 4096
# The cost model's budgets and build unit costs, medians of 7 on one core of a shared 2-vCPU
# x86_64 (numpy 2.4.6), never measured at run time: a route picks the random stream.
TIME_BUDGET = 2.0  # seconds
BYTE_BUDGET = 1 << 28
_TABLE_S = 45e-6  # a _Binomial call: 41-63 us from 11 to 2001 atoms
_ATOM_S = 30e-9  # and each atom of its table: 21-32 ns from 4128 to 800,128 atoms
_POWER_S = 7e-11  # each squared atom of a lattice power: 62-93 ps from 4001 to 200,001 atoms
_SORT_S = 150e-9  # each count vector (chain and fold) or fold cell: 82-183 ns
_BYTES = 64  # at a build's peak, per table atom, count vector or fold cell: 31, 40-50, 59-63
# The tilted mass a re-tilted sum law may leave out (TableLaw.retilted)
_TAU = 2.0**-60


def block_rng(seed: int, block: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be an integer in [0, 2^64)")
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


# -- sum laws ------------------------------------------------------------------

def _ks_from_cdf(atoms, cdf) -> float:
    """The KS distance to the normal of a law on ascending atoms with cdf F:
    max |F - Phi| over the atoms from each side.  A run of equal atoms
    cannot move the supremum: each partial cdf in the run lies between
    F(a-) and F(a), both read here.

    Only the atoms from the first with F >= eps to the first with
    F >= F_end - eps are read, where eps = 2^-50 and F_end, the last entry,
    is 1 up to the rounding of the sum.  F and Phi are monotone, so a term
    below them is at most max(eps, Phi at the first), which is within eps
    of that atom's left term |F(a-) - Phi(a)|; a term above them is within
    eps of the last atom's term or at most eps + |1 - F_end|.  The result is
    within eps of the full range's, and as accurate as F and Phi are
    absolutely: Phi(a) is bounds.gaussian_tail(-a), within 4 ulps of exact."""
    eps = 2.0**-50
    lo, hi = np.searchsorted(cdf, [eps, cdf[-1] - eps])
    left = np.concatenate([cdf[lo - 1:lo] if lo else [0.0], cdf[lo:hi]])
    cdf, phi = cdf[lo:hi + 1], bounds.gaussian_tail(-atoms[lo:hi + 1])
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))


# The binomial law.
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


def _within_budgets(seconds, nbytes):
    """Whether a build priced at seconds and nbytes fits TIME_BUDGET and BYTE_BUDGET."""
    return seconds <= TIME_BUDGET and nbytes <= BYTE_BUDGET


def _afford(seconds, nbytes, what, *args):
    """Refuse, before it allocates, a build priced past either budget; what.format(*args),
    formatted only then, names it, with the price in full so a refused one reads above it."""
    if not _within_budgets(seconds, nbytes):
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

    method = "exact_enum"  # the tag of an exact tail read from it

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

    method = "exact_binomial"

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


class _Normal:
    """N(mean, variance), a gaussian part's sum law, with closed-form tails."""

    method = "exact_gaussian"

    def __init__(self, mean, variance):
        self.mean, self.sd = mean, math.sqrt(variance)

    def tails(self, y):
        """(P(X <= y), P(X > y)) at each y, by bounds.gaussian_tail."""
        z = (y - self.mean) / self.sd
        return bounds.gaussian_tail(-z), bounds.gaussian_tail(z)


# -- one-step laws -------------------------------------------------------------

class IncrementDistribution:
    """A centered one-step law with exact moments: a ``TableLaw`` or a ``GaussianLaw``,
    built by the constructors below.  ``kind`` names its kind for serialization alone."""

    @staticmethod
    def finite_table(pairs) -> "TableLaw":
        """The centered law of (value, prob) pairs as its canonical table:
        values ascending and distinct (equal values merged, their masses
        summed), atoms of zero mass dropped.  Equal laws therefore give equal
        tables however they were written."""
        pairs = [(float(v), float(p)) for v, p in pairs]
        if not all(math.isfinite(v) and math.isfinite(p) for v, p in pairs):
            raise ConfigError("finite_table values and probabilities must be finite")
        if any(p < 0 for _, p in pairs):
            raise ConfigError("finite_table probabilities must be nonnegative")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"finite_table probabilities sum to {total!r}, not 1")
        mass = {}
        for v, p in pairs:
            if p > 0.0:
                mass.setdefault(v, []).append(p)
        values = sorted(mass)
        if len(values) < 2:
            raise ConfigError("finite_table needs at least two atoms of positive mass")
        probs = [math.fsum(mass[v]) / total for v in values]
        mean = math.fsum(p * v for v, p in zip(values, probs))
        d = TableLaw(values=tuple(v - mean for v in values), probs=tuple(probs))  # centered
        if not 0.0 < d.variance < math.inf:
            raise ConfigError("finite_table must have positive, finite variance")
        return d

    @staticmethod
    def gaussian(sigma2: float) -> "GaussianLaw":
        if not 0.0 < sigma2 < math.inf:
            raise ConfigError("gaussian sigma2 must be finite and > 0")
        return GaussianLaw(sigma2=float(sigma2))

    @staticmethod
    def scaled_rademacher(scale: float = 1.0) -> "TableLaw":
        """+/-scale with probability 1/2 each, as a two-atom table."""
        if not scale > 0.0:
            raise ConfigError("rademacher scale must be > 0")
        return IncrementDistribution.finite_table([(-scale, 0.5), (scale, 0.5)])

    variance = property(lambda self: self.moment(2))


@dataclass(frozen=True)
class TableLaw(IncrementDistribution):
    """A finitely supported law, values ascending and distinct, each of positive mass (see
    ``finite_table``).  Its derived arrays are cached outside the fields, unseen by eq and hash."""

    values: tuple
    probs: tuple

    kind = "finite_table"

    def moment(self, k: int) -> float:
        """Exact E eta^k."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        try:
            return math.fsum(p * v**k for v, p in zip(self.values, self.probs))
        except OverflowError:  # a power or the sum past the double range
            return math.inf

    def abs_moment(self, k: int) -> float:
        """Exact E |eta|^k."""
        return math.fsum(p * abs(v) ** k for v, p in zip(self.values, self.probs))

    def scaled(self, c: float) -> "TableLaw":
        """The law of c * eta."""
        if c <= 0.0:
            raise ValueError("scale factor must be > 0")
        return TableLaw(values=tuple(c * v for v in self.values), probs=self.probs)

    def fold(self, spec) -> tuple:
        """The sum parts of a spec on this base law: its iid parts."""
        return spec.iid_parts()

    def table(self):
        """(values, probs) arrays, read-only and built once."""
        return self._table[:2]

    @cached_property
    def _table(self):
        arrays = np.array(self.values), np.array(self.probs), np.log(self.probs)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    # -- its support: its top and top gap, reach (the bound on |X_n| / count that the
    # weights' 2^32 check uses: max |eta|), and the categories a draw of its sum samples
    top = property(lambda self: self.values[-1])
    top_gap = property(lambda self: self.values[-1] - self.values[-2])
    reach = property(lambda self: max(-self.values[0], self.values[-1]))
    categories = property(lambda self: len(self.values) - 1)

    def support(self, count):
        """The most atoms the sum of count draws can take."""
        if self.lattice:
            return count * int(self.lattice[1][-1]) + 1
        return math.comb(count + len(self.values) - 1, len(self.values) - 1)

    @cached_property
    def lattice(self):
        """(g, k) with values = values[0] + g*k for integer offsets k from 0,
        each value within 1e-12 of the largest |value| (the rounding of a
        table on a lattice, not a table near one), or None.  g is the gcd of
        the gaps: the smallest gap over the lcm q of the denominators of each
        gap's ratio to it, as a fraction of denominator at most 1000; a
        lattice needs q <= 1000 too."""
        values = self.table()[0]
        gaps = np.diff(values)
        ratios = [Fraction(r).limit_denominator(1000) for r in gaps / gaps.min()]
        q = math.lcm(*(r.denominator for r in ratios))
        g = float(gaps.min()) / q
        k = np.rint((values - values[0]) / g)
        tol = 1e-12 * np.abs(values).max()
        on = q <= 1000 and (np.abs(values[0] + g * k - values) <= tol).all()
        return (g, k.astype(int)) if on else None

    def _tilt(self, lams, read):
        """The columns read(shift, terms, total) gives at the 1-D array of
        tilts lams, E e^(lam eta) = e^shift total with total the sum of the
        max-shifted terms: the law's one evaluation of its exponential sums,
        which never overflows.  Blocks of about 2^16 table cells keep a long
        grid's memory that of a short one, and move no bit."""
        values, _, log_probs = self._table
        rows = max(1, (1 << 16) // len(values))
        blocks = []
        for i in range(0, max(len(lams), 1), rows):
            a = lams[i:i + rows, None] * values + log_probs
            shift = a.max(axis=1)
            a -= shift[:, None]
            terms = np.exp(a, out=a)
            blocks.append(read(shift, terms, terms.sum(axis=1)))
        return blocks[0] if len(blocks) == 1 else [np.concatenate(c) for c in zip(*blocks)]

    def cumulant(self, lams):
        """log E e^(lam eta) at each tilt: shift + log(total), by math.log
        (numpy's log may differ by an ulp)."""
        return self._tilt(lams, lambda shift, terms, total: (shift + np.fromiter(
            map(math.log, total.tolist()), float, len(total)),))[0]

    def drift_and_slope(self, lams):
        """(tilted mean, tilted mean square deviation from it) at each tilt,
        by np.vecdot (np.dot's bits row by row)."""
        values = self._table[0]

        def read(shift, terms, total):
            mean = np.vecdot(terms, values) / total
            dev = values - mean[:, None]
            dev *= dev
            return mean, np.vecdot(dev, terms) / total
        return self._tilt(lams, read)

    def _tilted(self, lam):
        """The probs of the lam-tilted table, over the values of table()."""
        return self._tilt(np.array([float(lam)]), lambda shift, terms, total: (
            terms / total[:, None],))[0][0]

    def route(self, count):
        """(atoms, powered, seconds, bytes): the form sum_law builds for count
        draws and its price, by arithmetic.  Two atoms are a binomial table
        (_binomial_span at p = 1/2); more on a lattice v_0 + g*{0, ...,
        k_last}, the power over count*k_last + 1 offsets or the count vectors
        (folding into at most as many atoms), whichever is priced lower; off
        one, the count vectors."""
        m = len(self.values)
        if m == 2:
            span = _binomial_span(count, math.sqrt(count) / 2)
            return span, True, _TABLE_S + span * _ATOM_S, span * _BYTES
        vectors = min(math.comb(count + m - 1, m - 1), 1 << 64)  # past every budget, still a float
        # the chain's binomial tables, one per count left at each atom but the last
        seconds = ((1 + (m - 2) * (count + 1)) * (_TABLE_S + (count + 1) * _ATOM_S)
                   + vectors * _SORT_S)
        atoms = self.support(count)
        if self.lattice and atoms**2 * _POWER_S < seconds:
            return atoms, True, atoms**2 * _POWER_S, atoms * _BYTES
        return min(vectors, atoms), False, seconds, vectors * _BYTES

    def sum_law(self, count, lam):
        """The _Law of the sum of count iid draws from the lam-tilted table,
        in route's form, refused (too-large) when priced past either budget.

        On a lattice v_0 + g*{0, k_1, ...} the atoms are count*v_0 + i*g in
        every form, as draws computes them.  For two atoms the law is the
        binomial table over its own span, the i holding more than 2^-1100 of
        the mass; powered, the pmf is the count-th power of the tilted step
        polynomial by binary powering (np.convolve of non-negative terms),
        over every i up to count * k_last.  Otherwise each count vector's
        probability is a chain of conditional binomials: atom j takes
        Binomial(left, p_j / sum_{i>=j} p_i) of the draws the earlier atoms
        left, and its sum adds the offsets k_j (the values off a lattice);
        equal sums fold into one atom ({0, 1, 100} at n = 2000: 2,003,001
        into 195,150)."""
        size, powered, seconds, nbytes = self.route(count)
        values, probs = self._table[0], self._tilted(lam)
        (g, terms), base = self.lattice or (None, values), count * values[0]
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

    def retilted(self, count, law, delta):
        """law, this table's sum law of count draws, re-tilted by delta: pmf e^(delta a)
        over the same atoms a, normalized after one max shift, or None where the tilted
        mass the re-tilt could miss passes _TAU.

        Every atom a table leaves out, or holds as a subnormal (binomial tables keep
        pmf >= 2^-1100, the power and the count vectors keep what does not underflow), has
        pmf below 2^-1022, so the mass missed is at most (support atoms) 2^-1022
        e^(delta a_end) / sum pmf e^(delta a), with a_end the end of the support delta tilts
        towards and the sum over the table.  The re-tilted law is then within _TAU of the
        exact one in L1, plus the relative rounding of a few ulps its atoms carry over and
        2^-53 |delta a| for the exponent."""
        e = delta * law.atoms
        top = e.max()
        w = law.pmf * np.exp(e - top)
        total = w.sum()
        end = delta * count * (self.top if delta > 0 else self.values[0])
        if not (total > 0.0 and math.log(self.support(count)) + (end - top) - math.log(total)
                <= math.log(_TAU) + 1022 * math.log(2.0)):
            return None
        return _Law(law.atoms, w, lattice=law.lattice)

    def ks(self, count, lam, drift):
        """The KS distance to N(0, 1) of the lam-tilted sum of count draws less drift, read
        at its atoms (the law dropped first: a binomial's scaled copy must not outlive it)."""
        law = self.sum_law(count, lam)
        atoms, pmf = law.atoms, law.pmf
        del law
        return _ks_from_cdf(atoms - drift, np.cumsum(pmf))

    def draws(self, count, lam, rng, m):
        """(sums, lattice): m draws of the sum of count iid draws from the
        lam-tilted table, from its sufficient statistic (binomial counts for
        two atoms, multinomial counts for more), and the lattice _cut reads
        them on.  Each sum has the bits of sum_law's atom: count*v_0 + i*g on
        a lattice, off one the count vector's terms added in its order."""
        values, probs = self._table[0], self._tilted(lam)
        if len(values) == 2:
            i = rng.binomial(count, probs[1], size=m)
        else:
            counts = rng.multinomial(count, probs, size=m)
            if self.lattice is None:
                return sum(k * v for v, k in zip(values, counts.T)), None
            i = counts @ self.lattice[1]
        base, g = count * values[0], self.lattice[0]
        return base + i * g, (base, g)


@dataclass(frozen=True)
class GaussianLaw(IncrementDistribution):
    """N(0, sigma2), on the whole line: top +inf with no gap, no lattice or table."""

    sigma2: float

    kind = "gaussian"
    top, top_gap = math.inf, 0.0
    # reach 0: the 2^32 check reads Psi_n alone (lam X_n is about 2 Psi_n); a draw is priced 0
    reach, categories = 0.0, 0

    def moment(self, k: int) -> float:
        """Exact E eta^k."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        return 0.0 if k % 2 else self.sigma2 ** (k // 2) * math.prod(range(k - 1, 0, -2))

    def abs_moment(self, k: int) -> float:
        """Exact E |eta|^k."""
        sigma = math.sqrt(self.sigma2)
        return sigma**k * 2 ** (k / 2.0) * math.gamma((k + 1) / 2.0) / math.sqrt(math.pi)

    def scaled(self, c: float) -> "GaussianLaw":
        """The law of c * eta."""
        if c <= 0.0:
            raise ValueError("scale factor must be > 0")
        return GaussianLaw(sigma2=c * c * self.sigma2)

    def fold(self, spec) -> tuple:
        """The sum parts of a spec on this base law: N(0, total_variance())."""
        return ((GaussianLaw(sigma2=spec.total_variance()), 1),)

    def cumulant(self, lams):
        return 0.5 * lams * lams * self.sigma2

    def drift_and_slope(self, lams):
        return lams * self.sigma2, np.full(len(lams), self.sigma2)

    def route(self, count):  # a normal sum law has no table to draw a histogram from
        return math.inf, False, math.inf, math.inf

    def sum_law(self, count, lam):
        v = count * self.sigma2
        return _Normal(lam * v, v)

    def ks(self, count, lam, drift):
        """The tilted sum less drift, its mean, is N(0, V), V = count sigma2, whose KS
        distance to N(0, 1), |Phi(x/sqrt V) - Phi(x)| at x*^2 = V ln V / (V - 1), is 0 at V = 1."""
        v = count * self.sigma2
        x = math.sqrt(v * math.log(v) / (v - 1.0)) if v != 1.0 else 0.0
        return abs(bounds.gaussian_tail(x / math.sqrt(v)) - bounds.gaussian_tail(x))

    def draws(self, count, lam, rng, m):
        """(sums, None): m draws of N(lam V, V), V = count sigma2."""
        v = count * self.sigma2
        return lam * v + math.sqrt(v) * rng.standard_normal(m), None


# -- specs -----------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleSpec:
    """n steps plus an increment rule, exposed as the iid parts of its
    terminal law and its exact predictable variance."""

    n: int
    rule: str  # "iid" | "variance_switching"
    dist: IncrementDistribution
    normalized: bool = False
    rho: float = 0.0

    @staticmethod
    def iid(dist: IncrementDistribution, n: int, normalized: bool = False) -> "MartingaleSpec":
        if n < 1:
            raise ConfigError("n must be >= 1")
        return MartingaleSpec(n=int(n), rule="iid", dist=dist, normalized=bool(normalized))

    @staticmethod
    def variance_switching(base: IncrementDistribution, n: int, rho: float) -> "MartingaleSpec":
        if n < 2 or n % 2 != 0:
            raise ConfigError("variance_switching needs an even n >= 2")
        if not 0.0 <= rho < 1.0:
            raise ConfigError("rho must lie in [0, 1)")
        return MartingaleSpec(n=int(n), rule="variance_switching", dist=base, rho=float(rho))

    def iid_parts(self) -> tuple:
        """The terminal law as independent iid parts: ((law, count), ...).

        X_n is the sum over parts of count iid draws from law, under the base
        law and under every exponential tilt.  For variance_switching the two
        draws of a pair are iid and the sign of the running sum only decides
        which of them the high branch scales, so X_n is n/2 draws of the
        high-branch law plus n/2 draws of the low-branch law.

        This is the one place that knows the rule; the laws of the parts are
        exactly the conditional step laws a path can meet, which the
        certificate and the moment-bound check read.  They are derived once
        per spec and cached outside the fields, so equality, hashing and repr
        never see them.
        """
        return self._parts

    def sum_parts(self) -> tuple:
        """The parts every reader of X_n works from, ((law, count), ...): Psi_n,
        B_n, the samplers and the exact oracles are sums over them.  They are
        the base law's fold of the iid parts (TableLaw.fold, GaussianLaw.fold)."""
        return self.dist.fold(self)

    def ks(self, lam, drift) -> float:
        """The exact KS distance to N(0, 1) of X_n - drift under the lam-tilted law, drift
        being B_n(lam).  One part's step law reads its own (TableLaw.ks, GaussianLaw.ks); two
        parts' tables are folded cell by cell and sorted, refused (too-large) from their atom
        counts before either law is built, and read at the atoms."""
        parts = self.sum_parts()
        if len(parts) == 1:
            ((d, count),) = parts
            return d.ks(count, lam, drift)
        cells = math.prod(d.route(count)[0] for d, count in parts)
        _afford(cells * _SORT_S, cells * _BYTES, "the fold of {} cells", cells)
        # atoms and pmf only, so that no binomial law's scaled table outlives its pmf
        (atoms, pmf), (more_atoms, more_pmf) = [
            (law.atoms, law.pmf) for law in (d.sum_law(count, lam) for d, count in parts)]
        atoms = np.add.outer(atoms, more_atoms).ravel()
        order = np.argsort(atoms, kind="stable")
        atoms, pmf = atoms[order], np.outer(pmf, more_pmf).ravel()[order]
        return _ks_from_cdf(atoms - drift, np.cumsum(pmf))

    @cached_property
    def _parts(self) -> tuple:
        if self.rule == "iid":
            if not self.normalized:
                return ((self.dist, self.n),)
            return ((self.dist.scaled(1.0 / math.sqrt(self.n * self.dist.variance)), self.n),)
        # the high branch has conditional variance (1 + rho)/n, the low one
        # (1 - rho)/n
        base_var = self.dist.variance
        return tuple(
            (self.dist.scaled(math.sqrt(v / base_var)), self.n // 2)
            for v in ((1.0 + self.rho) / self.n, (1.0 - self.rho) / self.n)
        )

    def total_variance(self) -> float:
        """Exact predictable variance at the horizon: the literal 1.0 for
        normalized iid and variance_switching specs, where it is 1 by
        construction, so exact computations take no rounding from n * (1/n)."""
        if self.rule == "variance_switching" or self.normalized:
            return 1.0
        return self.n * self.dist.variance


# -- spec config serialization ---------------------------------------------
#
# Key/value text format (see README):
#   model = rademacher | gaussian | finite | varswitch
#   n = <int>
#   normalized = true | false        (iid rules)
#   scale = <float>                  (rademacher)
#   sigma2 = <float>                 (gaussian)
#   rho = <float>                    (varswitch)
#   values = v1, v2, ...             (finite, or varswitch base table)
#   probs  = p1, p2, ...
# A rademacher base is the table {-scale, scale}, so spec_to_dict writes every
# finitely supported base as its canonical values and probs.

def spec_to_dict(spec: MartingaleSpec) -> dict:
    base = spec.dist
    if spec.rule == "variance_switching":
        d = {"model": "varswitch", "rho": spec.rho}
    else:
        d = {"model": "gaussian" if base.kind == "gaussian" else "finite",
             "normalized": spec.normalized}
    d["n"] = spec.n
    if base.kind == "gaussian":
        d["sigma2"] = base.sigma2
    else:
        d["values"], d["probs"] = list(base.values), list(base.probs)
    return d


# the keys naming each base law's parameters
_BASE_KEYS = {"rademacher": {"scale"}, "gaussian": {"sigma2"}, "finite": {"values", "probs"}}


def _numbers(d: dict, key: str) -> list:
    """d[key] as a list of floats; a lone number is a list of one."""
    raw = d[key] if isinstance(d[key], list) else [d[key]]
    try:
        return [float(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of numbers, not {d[key]!r}")


def _number(d: dict, key: str, default: float) -> float:
    """d[key] (default when absent) as a finite float; text or a bool is a
    ConfigError."""
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, not {v!r}")
    return float(v)


def spec_from_dict(d: dict) -> MartingaleSpec:
    """The spec a config dict describes; a key the model does not read is a
    ConfigError, never silently dropped."""
    if "n" not in d:
        raise ConfigError("spec config needs a step count 'n'")
    table = "values" in d or "probs" in d
    model = str(d.get("model", "")).lower() or ("finite" if table else "")
    if model == "varswitch":
        # sigma2 picks a gaussian base and values/probs a finite one, as
        # spec_to_dict writes them; the default base is Rademacher
        kind = "gaussian" if "sigma2" in d else "finite" if table else "rademacher"
        rule_keys = {"rho"}
    elif model in _BASE_KEYS:
        kind, rule_keys = model, {"normalized"}
    else:
        raise ConfigError(f"unknown model {model!r}")
    unused = set(d) - {"model", "n"} - rule_keys - _BASE_KEYS[kind]
    if unused:
        raise ConfigError(
            f"model {model!r} with a {kind} base does not read {sorted(unused)}"
        )

    n = d["n"]
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"n must be an integer >= 1, not {n!r}")
    normalized = d.get("normalized", False)
    if not isinstance(normalized, bool):
        raise ConfigError(f"normalized must be true or false, not {normalized!r}")
    if kind == "finite":
        if "values" not in d or "probs" not in d:
            raise ConfigError("finite tables need both 'values' and 'probs'")
        values, probs = _numbers(d, "values"), _numbers(d, "probs")
        if len(values) != len(probs):
            raise ConfigError(f"{len(values)} values but {len(probs)} probs")
        base = IncrementDistribution.finite_table(zip(values, probs))
    elif kind == "gaussian":
        base = IncrementDistribution.gaussian(_number(d, "sigma2", 1.0))
    else:
        base = IncrementDistribution.scaled_rademacher(_number(d, "scale", 1.0))

    if model == "varswitch":
        if "rho" not in d:
            raise ConfigError("varswitch needs 'rho'")
        return MartingaleSpec.variance_switching(base, n=n, rho=_number(d, "rho", 0.0))
    return MartingaleSpec.iid(base, n=n, normalized=normalized)


def _parse_scalar(text: str):
    """A config value: a bool, int or float, a list of the strings between
    commas (spec_from_dict reads them as numbers), or the text itself."""
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    if "," in t:
        return [x.strip() for x in t.split(",") if x.strip()]
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def parse_config_dict(text: str) -> dict:
    d = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        d[key.strip().lower()] = _parse_scalar(value)
    return d
