import decimal
import functools
import itertools
import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.stats import binom

from mlde import bounds, cli, conditions, montecarlo, tilting
from mlde.errors import ConfigError, DomainError
from mlde.model import IncrementDistribution, MartingaleSpec
from mlde.montecarlo import (
    BYTE_BUDGET,
    EXACT_METHODS,
    MAX_SAMPLES,
    TAIL_METHODS,
    TailEstimate,
    clt_rate_curve,
    conjugate_clt_check,
    crude_tail_estimate,
    estimate_tail,
    exact_tail,
    mdp_diagnostic,
    ratio_experiment,
    saddlepoint_lambda,
    tilted_tail_estimate,
)

RADEMACHER = IncrementDistribution.scaled_rademacher(1.0)
GAUSSIAN = IncrementDistribution.gaussian(1.0)
THREE_POINT = IncrementDistribution.finite_table([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
IRRATIONAL = IncrementDistribution.finite_table(
    [(-1.0, 0.5), (0.0, 0.25), (math.sqrt(2.0), 0.25)])  # on no lattice
SKEWED = IncrementDistribution.finite_table([(-1.0, 0.999), (999.0, 0.001)])


def rademacher_spec(n):
    return MartingaleSpec.iid(RADEMACHER, n=n, normalized=True)


def gaussian_spec(n):
    return MartingaleSpec.iid(GAUSSIAN, n=n, normalized=True)


def gaussian_varswitch_spec(n):
    return MartingaleSpec.variance_switching(GAUSSIAN, n=n, rho=0.5)


def three_point_spec(n):
    return MartingaleSpec.iid(THREE_POINT, n=n, normalized=True)


def sampled_laws(monkeypatch, spec, lam, samples=100):
    """The part laws a tilted estimate of samples draws draws its histogram
    from, or None when it samples draw by draw."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_histogram_sums", lambda laws, *_: seen.append(laws) or (0.0, 0.0))
        m.setattr(montecarlo, "_per_draw_sums", lambda *_: (0.0, 0.0))
        tilted_tail_estimate(spec, 0.0, lam, samples, seed=1)
    return seen[0] if seen else None


def loop_histogram_sums(laws, x, lam, psi, n_samples, seed):
    """The histogram draw with one Multinomial(c_a, inner atoms above x - a
    + miss) call per drawn outer atom a, in ascending order, each row's hit
    counts and sums collected and weighed once by the samplers' one kernel:
    the reference _histogram_sums matches bit for bit."""
    rng = montecarlo.block_rng(seed, 0)
    law = laws[-1]
    atoms, pmf = law.atoms, law.pmf
    if len(laws) > 1:
        outer_atoms = laws[0].atoms
        outer_counts = rng.multinomial(n_samples, laws[0].pmf)
    else:
        outer_atoms, outer_counts = np.zeros(1), np.array([n_samples])
    k, sums = [], []
    for a, c in zip(outer_atoms, outer_counts):
        if c == 0:
            continue
        cut = law.above(x - a)
        counts = rng.multinomial(c, np.append(pmf[cut:], max(0.0, 1.0 - pmf[cut:].sum())))[:-1]
        hit = counts > 0
        k.append(counts[hit])
        sums.append(a + atoms[cut:][hit])
    s1, s2 = montecarlo._weigh(np.concatenate(sums), psi, lam, np.concatenate(k).astype(float))
    return float(s1), float(s2)


def binomial_ks(n):
    """Every k for small n, else a spread of k with both ends: 0, n - 1, n."""
    return np.unique(np.r_[np.arange(min(n, 40) + 1), np.linspace(0, n, 41).astype(int), n - 1])


EPS = np.finfo(float).eps
# scipy.stats.binom's worst relative errors, in units of eps (1 + |ln P|), on
# TestBinomialLaw's grid against exact_binomial_tails: 131.2 for sf and 131.1
# for cdf, both at n = 1e6 (scipy 1.17.1)
SF_C = CDF_C = 132
DEC = decimal.Context(prec=50, Emin=-10**9, Emax=10**9)
PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
# B_2j / (2j (2j - 1)), the Stirling series of ln m! past (m + 1/2) ln m - m + ln sqrt(2 pi)
STIRLING = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680),
            Fraction(1, 1188), Fraction(-691, 360360), Fraction(1, 156), Fraction(-3617, 122400)]


def exact_binomial_pmf(n, p):
    """(lo, pmf): Binomial(n, p)'s pmf over lo, lo + 1, ... to 50 digits,
    holding all but 1e-340 of its mass, from the standard library alone.

    Up to n = 100 each term is an exact Fraction.  Past that a decimal ratio
    recurrence runs from an anchor: q^n at k = 0 (or p^n at k = n) when the
    mode is within 1000 of that end, else the mode's pmf from the Stirling
    series of the three log-factorials (error below 1e-50 past m = 1000)."""
    hi_p = Fraction(p)
    lo_p = 1 - hi_p
    if n <= 100:
        exact = (math.comb(n, k) * hi_p**k * lo_p ** (n - k) for k in range(n + 1))
        return 0, [DEC.divide(decimal.Decimal(f.numerator), decimal.Decimal(f.denominator))
                   for f in exact]
    with decimal.localcontext(DEC):
        dp, dq = decimal.Decimal(p), 1 - decimal.Decimal(p)
        mode = min(n, math.floor((n + 1) * hi_p))
        if mode < 1000 or n - mode < 1000:
            start = 0 if mode < n - mode else n
            anchor = dq**n if start == 0 else dp**n
        else:
            def ln_factorial(m):
                m = decimal.Decimal(m)
                s = (m + decimal.Decimal(0.5)) * m.ln() - m + (2 * PI).ln() / 2
                for j, c in enumerate(STIRLING, 1):
                    s += decimal.Decimal(c.numerator) / c.denominator / m ** (2 * j - 1)
                return s
            start = mode
            anchor = (ln_factorial(n) - ln_factorial(mode) - ln_factorial(n - mode)
                      + mode * dp.ln() + (n - mode) * dq.ln()).exp()
        tiny = decimal.Decimal("1e-345")
        up, term, k = [], anchor, start
        while k < n and (term >= tiny or k <= mode):
            term = term * (n - k) * dp / ((k + 1) * dq)
            up.append(term)
            k += 1
        down, term, k = [], anchor, start
        while k > 0 and (term >= tiny or k >= mode):
            term = term * k * dq / ((n - k + 1) * dp)
            down.append(term)
            k -= 1
    return start - len(down), down[::-1] + [anchor] + up


@functools.lru_cache(maxsize=None)
def exact_binomial_tails(n, p):
    """k -> (P(X <= k), P(X > k)) to 50 digits, from exact_binomial_pmf."""
    lo, pmf = exact_binomial_pmf(n, p)
    with decimal.localcontext(DEC):
        below = [decimal.Decimal(0), *itertools.accumulate(pmf)]
        above = [*itertools.accumulate(pmf[::-1])][::-1] + [decimal.Decimal(0)]
    return lambda k: (below[min(max(k - lo + 1, 0), len(pmf))],
                      above[min(max(k - lo + 1, 0), len(pmf))])


def worst_binomial_error(law, side, ns, ps):
    """max over the grid of the relative error of law(k, n, p) against the
    exact tail, in units of eps (1 + |ln P|), wherever P >= 1e-300."""
    worst = 0.0
    for n in ns:
        k = binomial_ks(n)
        for p in ps:
            got = law(k, n, p)
            tails = exact_binomial_tails(n, p)
            for ki, g in zip(k, got):
                want = tails(int(ki))[side]
                if want < decimal.Decimal("1e-300"):
                    continue
                with decimal.localcontext(DEC):
                    rel = abs(decimal.Decimal(float(g)) - want) / want
                worst = max(worst, float(rel) / (EPS * (1.0 + abs(float(want.ln())))))
    return worst


class TestBinomialLaw:
    """montecarlo.binom against exact binomial tails: Fraction sums to n = 100,
    50-digit decimal sums past that.  Each bound c is the worst case of
    scipy.stats.binom on the same grid against the same oracle, rounded up;
    scipy's cdf and sf are Boost's ibeta, which takes p as given."""

    NS = (1, 2, 3, 7, 22, 100, 1000, 3300, 100_000, 1_000_000)
    PS = (0.0, 1.0, 1e-6, 0.123, 0.3, 1.0 / 3.0, 0.5, 0.7, 1.0 - 1e-9)

    def test_sf_exact(self):
        assert worst_binomial_error(montecarlo.binom.sf, 1, self.NS, self.PS) <= SF_C

    def test_cdf_exact(self):
        assert worst_binomial_error(montecarlo.binom.cdf, 0, self.NS, self.PS) <= CDF_C

    def test_cdf_takes_p_as_given(self):
        # for these p, 1 - (1 - p) is a neighbouring double, and a cdf that
        # read p through 1 - p was up to 5.5e-12 relative off at n = 1e5: the
        # grid tells the two apart by far more than CDF_C
        ps = (1e-6, 0.3, 1.0 / 3.0)
        assert all(1.0 - (1.0 - p) != p for p in ps)
        assert worst_binomial_error(montecarlo.binom.cdf, 0, (1000, 100_000), ps) <= CDF_C
        through_q = lambda k, n, p: binom.cdf(k, n, 1.0 - (1.0 - p))  # noqa: E731
        assert worst_binomial_error(through_q, 0, (1000, 100_000), ps) > 50 * CDF_C

    def test_edge_atoms_are_exact_powers(self):
        # P(X = n) = p^n and P(X = 0) = q^n come from pow, not from the
        # recurrence, wherever they are normal doubles (q = 1 - p is exact here)
        for n, p in itertools.product((5, 16, 100, 1000), (0.5, 0.25, 0.75)):
            if p**n >= 2.0**-1022:
                assert float(montecarlo.binom.sf(n - 1, n, p)) == p**n, (n, p)
            if (1.0 - p) ** n >= 2.0**-1022:
                assert float(montecarlo.binom.cdf(0, n, p)) == (1.0 - p) ** n, (n, p)

    def test_pmf_against_exact_rationals(self):
        # The bound is that of a log-gamma pmf, exp(L) with L = lgamma(n+1)
        # - lgamma(k+1) - lgamma(n-k+1) + k log p + (n-k) log1p(-p): exp
        # turns an absolute error d in L into a relative error d, each term is
        # good to an ulp or two of its size, and the log-gammas are at most
        # lgamma(n+1) <= (n+1) log(n+2).  Hence |rel err| <= c eps (1 + |k log
        # p| + |(n-k) log(1-p)| + (n+1) log(n+2)) with c a few units; c = 4.
        # The ratio-recurrence table stays inside it: a few ulps at the mode
        # plus a random walk of roundings over |k - mode| steps.
        eps = np.finfo(float).eps
        for n in (1, 2, 3, 5, 10, 22, 100, 1000, 3300):
            ks = range(n + 1) if n <= 22 else [int(k) for k in np.linspace(0, n, 7)]
            for p in (1e-6, 0.123, 1.0 / 3.0, 0.7, 1.0 - 1e-9):
                hi, lo = Fraction(p), 1 - Fraction(p)
                for k in ks:
                    exact = math.comb(n, k) * hi**k * lo ** (n - k)
                    if exact < 1e-300:  # below the normal doubles
                        continue
                    got = float(montecarlo.binom.pmf(k, n, p))
                    scale = (1.0 + abs(k * math.log(p)) + abs((n - k) * math.log1p(-p))
                             + (n + 1) * math.log(n + 2))
                    assert abs(Fraction(got) - exact) <= 4 * eps * scale * exact, (n, k, p)

    def test_pmf_degenerate_p(self):
        for n in (0, 1, 5, 3300):
            k = np.arange(n + 1)
            np.testing.assert_array_equal(montecarlo.binom.pmf(k, n, 0.0), k == 0)
            np.testing.assert_array_equal(montecarlo.binom.pmf(k, n, 1.0), k == n)


class TestCrude:
    def test_sure_event(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=4)
        est = crude_tail_estimate(spec, -10.0, 500, seed=1)
        assert est.p_hat == 1.0

    def test_impossible_event(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=4)
        est = crude_tail_estimate(spec, 4.0, 500, seed=1)  # strict: X > max support
        assert est.p_hat == 0.0

    def test_binomial_symmetry_oracle(self):
        # P(S_16 > 0) = (1 - C(16,8)/2^16)/2 by symmetry
        expected = (1.0 - binom.pmf(8, 16, 0.5)) / 2.0
        spec = rademacher_spec(16)
        est = crude_tail_estimate(spec, 0.0, 100_000, seed=7)
        assert abs(est.p_hat - expected) <= 4.0 * est.std_err
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.n_samples), rel=1e-12
        )

    def test_tie_on_the_oracle_side(self, monkeypatch):
        # x = 2.4 of the grid 0:80:0.8 is an atom of normalized Rademacher at
        # n = 6400, of mass 5.6e-4.  The law's floor rule puts it not above x,
        # and a searchsorted cut on the float atoms puts it above; the
        # sampler's cut is the law's, so 1e8 crude draws (se 8.9e-6, a
        # histogram over the binomial table) sit on exact_tail's side,
        # some 60 se from the other
        spec = rademacher_spec(6400)
        x = cli._parse_grid("0:80:0.8")[3]
        law = montecarlo._part_law(spec.iid_parts()[0][0], 6400, 0.0)
        other_cut = np.searchsorted(law.atoms, x, side="right")
        assert law.above(x) == other_cut + 1
        exact = exact_tail(spec, x).p_hat
        other = float(law.tails(law.atoms[other_cut - 1])[1])  # P(X >= that atom)
        assert other - exact == pytest.approx(law.pmf[other_cut], rel=1e-9)
        est = crude_tail_estimate(spec, x, 10**8, seed=3)
        assert abs(est.p_hat - exact) <= 5.0 * est.std_err
        assert abs(est.p_hat - other) > 5.0 * est.std_err
        # the per-draw route (taken here with draws priced at nothing, so no
        # histogram is cheaper) reads a draw's lattice offset by the same
        # rule: 4e6 draws (se 4.5e-5) sit on exact_tail's side, the two sides
        # 12.6 se apart
        monkeypatch.setattr(montecarlo, "_DRAW_S", 0.0)
        monkeypatch.setattr(montecarlo, "_histogram_sums", None)
        est = crude_tail_estimate(spec, x, 4 * 10**6, seed=3)
        assert abs(est.p_hat - exact) <= 5.0 * est.std_err
        assert abs(est.p_hat - other) > 5.0 * est.std_err


class TestTilted:
    def test_zero_tilt_is_crude_bitwise(self):
        for spec in (
            rademacher_spec(20),
            gaussian_spec(10),
            MartingaleSpec.variance_switching(RADEMACHER, n=8, rho=0.5),
            MartingaleSpec.iid(
                IncrementDistribution.finite_table(
                    [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]
                ),
                n=6,
                normalized=True,
            ),
        ):
            crude = crude_tail_estimate(spec, 0.4, 20_000, seed=11)
            tilt0 = tilted_tail_estimate(spec, 0.4, 0.0, 20_000, seed=11)
            assert tilt0.p_hat == crude.p_hat
            assert tilt0.std_err == crude.std_err

    def test_matches_exact_binomial(self):
        spec = rademacher_spec(20)
        exact = exact_tail(spec, 2.0).p_hat
        assert exact == pytest.approx(0.020695, abs=1e-6)  # sum_{k>=15} C(20,k)/2^20
        lam = saddlepoint_lambda(spec, 2.0)
        est = tilted_tail_estimate(spec, 2.0, lam, 100_000, seed=3)
        assert abs(est.p_hat - exact) <= 3.0 * est.std_err

    def test_variance_reduction_in_3sigma_regime(self):
        # the tilted estimator beats crude by >10x in std_err at x = 3
        spec = rademacher_spec(20)
        lam = saddlepoint_lambda(spec, 3.0)
        tilt = tilted_tail_estimate(spec, 3.0, lam, 100_000, seed=5)
        crude = crude_tail_estimate(spec, 3.0, 100_000, seed=5)
        assert tilt.std_err / crude.std_err < 0.1

    def test_matches_exact_for_varswitch(self):
        spec = MartingaleSpec.variance_switching(RADEMACHER, n=10, rho=0.6)
        exact = exact_tail(spec, 0.9).p_hat
        lam = saddlepoint_lambda(spec, 0.9)
        est = tilted_tail_estimate(spec, 0.9, lam, 50_000, seed=19)
        assert abs(est.p_hat - exact) <= 3.5 * est.std_err

    def test_gaussian_tilted_matches_closed_form(self):
        spec = gaussian_spec(50)
        exact = bounds.gaussian_tail(2.5)
        est = tilted_tail_estimate(spec, 2.5, 2.5, 100_000, seed=23)
        assert abs(est.p_hat - exact) <= 3.5 * est.std_err

    def test_change_of_measure_identity_iid_exact(self):
        # sum_k pmf_tilted(k) * w(k) * 1{x_k > x} must equal the base tail
        # exactly; validates the weight used by the binomial fast path
        spec = rademacher_spec(12)
        s = max(abs(v) for v in spec.iid_parts()[0][0].values)
        lam = 1.7
        p_hi = math.exp(lam * s) / (2 * math.cosh(lam * s))
        psi = 12 * math.log(math.cosh(lam * s))
        k = np.arange(13)
        atoms = s * (2.0 * k - 12.0)
        for x in (0.0, 0.5, 1.5, 2.5):
            lhs = float(np.sum(
                binom.pmf(k, 12, p_hi) * np.exp(psi - lam * atoms) * (atoms > x)
            ))
            assert lhs == pytest.approx(exact_tail(spec, x).p_hat, rel=1e-12)
        # the same identity over _part_law's tilted sum law (a polynomial
        # power on the three-point lattice, count vectors off a lattice),
        # against the same builder's untilted law
        for spec in (three_point_spec(12), MartingaleSpec.iid(IRRATIONAL, n=8, normalized=True)):
            psi = tilting.cumulant_process(spec, lam)
            law = montecarlo._part_law(spec.iid_parts()[0][0], spec.n, lam)
            atoms, pmf = law.atoms, law.pmf
            for x in (0.0, 0.5, 1.5, 2.5):
                lhs = float(np.sum(pmf * np.exp(psi - lam * atoms) * (atoms > x)))
                assert lhs == pytest.approx(exact_tail(spec, x).p_hat, rel=1e-12)

    def test_change_of_measure_identity_varswitch_exact(self):
        # enumerate the tilted path law (per-branch tilted tables, pair-sign
        # rule) and check E_tilt[w * 1{X > x}] equals the base probability
        n, rho, lam = 6, 0.5, 1.3
        spec = MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=rho)
        (hi, _), (lo, _) = spec.iid_parts()
        laws = {
            True: (*tilting.tilted_table(hi, lam), tilting.step_cumulant(hi, lam)),
            False: (*tilting.tilted_table(lo, lam), tilting.step_cumulant(lo, lam)),
        }
        for x in (0.0, 0.6, 1.2):
            acc = 0.0
            for combo in itertools.product((0, 1), repeat=n):
                run, prob, psi = 0.0, 1.0, 0.0
                for j in range(0, n, 2):
                    s_sign = run >= 0.0
                    for t, is_hi in ((j, s_sign), (j + 1, not s_sign)):
                        values, probs, step_psi = laws[is_hi]
                        run += values[combo[t]]
                        prob *= probs[combo[t]]
                        psi += step_psi
                if run > x:
                    acc += prob * math.exp(psi - lam * run)
            assert acc == pytest.approx(exact_tail(spec, x).p_hat, rel=1e-11)
        # the same identity over the parts' tilted sum laws from _part_law,
        # sum_{a,b} pmf_A(a) pmf_B(b) w(a + b) 1{a + b > x}
        for base in (RADEMACHER, THREE_POINT, IRRATIONAL):
            spec = MartingaleSpec.variance_switching(base, n=12, rho=rho)
            psi = tilting.cumulant_process(spec, lam)
            a, b = [montecarlo._part_law(d, c, lam) for d, c in spec.iid_parts()]
            total = np.add.outer(a.atoms, b.atoms)
            weighted = np.outer(a.pmf, b.pmf) * np.exp(psi - lam * total)
            for x in (0.0, 0.6, 1.2, 2.5):
                lhs = float(np.sum(weighted * (total > x)))
                assert lhs == pytest.approx(exact_tail(spec, x).p_hat, rel=1e-12)

    def test_weight_normalization(self):
        for spec in (rademacher_spec(20),
                     MartingaleSpec.variance_switching(RADEMACHER, n=8, rho=0.4)):
            # below every atom the indicator is 1, leaving the mean weight
            est = tilted_tail_estimate(spec, -math.inf, 1.2, 50_000, seed=2)
            assert abs(est.p_hat - 1.0) <= 3.5 * est.std_err

    def test_unbiasedness_over_seeds(self):
        spec = rademacher_spec(20)
        exact = exact_tail(spec, 2.0).p_hat
        lam = saddlepoint_lambda(spec, 2.0)
        misses = 0
        for seed in range(40):
            est = tilted_tail_estimate(spec, 2.0, lam, 20_000, seed=seed)
            if abs(est.p_hat - exact) > 3.5 * est.std_err:
                misses += 1
        assert misses <= 2

    def test_unbiasedness_over_seeds_varswitch(self):
        spec = MartingaleSpec.variance_switching(THREE_POINT, n=200, rho=0.5)
        exact = exact_tail(spec, 2.0).p_hat
        lam = saddlepoint_lambda(spec, 2.0)
        misses = 0
        for seed in range(40):
            est = tilted_tail_estimate(spec, 2.0, lam, 20_000, seed=seed)
            if abs(est.p_hat - exact) > 3.5 * est.std_err:
                misses += 1
        assert misses <= 2

    def test_crude_tilted_consistency(self):
        spec = rademacher_spec(16)
        x = 1.0
        crude = crude_tail_estimate(spec, x, 200_000, seed=31)
        lam = saddlepoint_lambda(spec, x)
        tilt = tilted_tail_estimate(spec, x, lam, 200_000, seed=32)
        combined = math.hypot(crude.std_err, tilt.std_err)
        assert abs(crude.p_hat - tilt.p_hat) <= 3.5 * combined

    def test_parallel_invariance(self, monkeypatch):
        # on either route no worker count moves an estimate.  The gaussian,
        # Rademacher n = 1e6 at 4100 draws (its 40,128-atom table is priced
        # above two blocks of draws) and the three-point varswitch law at
        # n = 4000 (6001^2 cells, past the byte budget) are drawn one by one
        # in 8, 2 and 8 blocks, with the pool forced off (_POOL_S = inf) and
        # on (_POOL_S = 0) at 1, 2 and 8 CPUs; the others take their
        # histograms, the irrational table at n = 100 (5151 count vectors)
        # and the three-point varswitch law at n = 400 (601^2 cells) included
        for spec, samples, histogram in (
                (rademacher_spec(20), 30_000, True),
                (three_point_spec(20), 30_000, True),
                (MartingaleSpec.variance_switching(RADEMACHER, n=12, rho=0.5), 30_000, True),
                (MartingaleSpec.iid(IRRATIONAL, n=20, normalized=True), 30_000, True),
                (MartingaleSpec.iid(IRRATIONAL, n=100, normalized=True), 30_000, True),
                (gaussian_spec(15), 30_000, False),
                (rademacher_spec(10_000), 30_000, True),
                (rademacher_spec(1_000_000), 4100, False),
                (MartingaleSpec.variance_switching(THREE_POINT, n=400, rho=0.5), 30_000, True),
                (MartingaleSpec.variance_switching(THREE_POINT, n=4000, rho=0.5), 30_000, False)):
            assert (sampled_laws(monkeypatch, spec, 0.8, samples) is not None) == histogram
            results = set()
            for pool_s, cpus in itertools.product((math.inf, 0.0), (1, 2, 8)):
                monkeypatch.setattr(montecarlo, "_POOL_S", pool_s)
                monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
                est = tilted_tail_estimate(spec, 1.0, 0.8, samples, seed=9)
                results.add((est.p_hat, est.std_err))
            assert len(results) == 1, spec

    def test_per_draw_sums_are_the_laws_atoms(self):
        # each part's per-draw sum has the bits of an atom of _part_law's law
        # on every form (binomial, lattice power, count vectors off a
        # lattice, count vectors folded onto a sparse one whose centred
        # values are not dyadic), and a draw is a hit, at or past the _cut of
        # x minus the first part's draw, exactly when its atom is at or past
        # law.above of the same threshold.  The thresholds are those
        # TestExactTail::test_methods_agree_to_the_bit reads: every atom of
        # X_n, one ulp and 1e-17 either side of it, the midpoints and +-inf.
        # The two-part case draws the first part before the last, as
        # _per_draw_sums does; its 512 draws, 30 distinct first-part sums,
        # are each read at its 22,327 thresholds.  The sparse table is drawn
        # untilted: at 0.4 nearly every draw is its top atom
        off = IncrementDistribution.finite_table([(-1.0, 0.5), (0.3, 0.3), (math.sqrt(2), 0.2)])
        sparse = IncrementDistribution.finite_table([(0.0, 0.5), (1.0, 0.3), (40.0, 0.2)])
        varswitch = MartingaleSpec.variance_switching(THREE_POINT, n=40, rho=0.5)
        for parts, lam, m in ((((RADEMACHER, 50),), 0.4, 4096), (((THREE_POINT, 40),), 0.4, 4096),
                              (((off, 30),), 0.4, 4096), (((sparse, 200),), 0.0, 4096),
                              (varswitch.iid_parts(), 0.4, 512)):
            rng = montecarlo.block_rng(1, 0)
            laws = [montecarlo._part_law(d, count, lam) for d, count in parts]
            draws = [montecarlo._part_draws(d, count, lam, rng, m) for d, count in parts]
            for law, (sums, _) in zip(laws, draws):
                idx = np.searchsorted(law.atoms, sums)
                assert np.array_equal(law.atoms[idx], sums), parts
            *first, (sums, lattice) = draws
            a, idx = first[0][0] if first else 0.0, np.searchsorted(laws[-1].atoms, sums)
            atoms = np.unique(functools.reduce(np.add.outer, [law.atoms for law in laws]))
            thresholds = np.concatenate([atoms, np.nextafter(atoms, -math.inf),
                                         np.nextafter(atoms, math.inf), atoms - 1e-17,
                                         atoms + 1e-17, (atoms[1:] + atoms[:-1]) / 2,
                                         [-math.inf, math.inf]])
            for x in np.array_split(thresholds, len(thresholds) // 64 + 1):  # 64 rows at a time
                y = x[:, None] - a
                assert np.array_equal(sums >= montecarlo._cut(y, lattice),
                                      idx >= laws[-1].above(y)), (parts, x)

    def test_histogram_route_choice(self, monkeypatch):
        # the route is arithmetic: the histogram where it fits the budgets
        # and its price (the parts' builds and min(N, outer atoms) x inner
        # atoms cells) is below N draws one by one, each priced by its
        # categories.  Each row's route is the side measured faster, both
        # routes called directly, tilted at x = 2 (ms, medians of 7, one
        # core): the crossover table of the two varswitch laws (three-point
        # n = 400: 0.19 vs 1.4 at N = 100, 6.8 vs 2.8, 72 vs 4.3 and 667 vs
        # 5.4 per draw vs histogram; Rademacher n = 2046: 0.12 vs 1.5, 2.3 vs
        # 3.2, 22 vs 3.9, 188 vs 5.3); the sparse lattice table {0, 1, 40} at
        # n = 200 and 100 and the irrational one at n = 100, at N = 1e5 (26 vs
        # 4.3, 45 vs 0.93, 51 vs 5.2) and at N = 1e3 (0.36 vs 4.1, 0.42 vs
        # 0.93, 0.63 vs 8.6); and every Monte Carlo spec of the benchmark at
        # its own N, which must stay on the histogram.  Each part's size is
        # its atoms: a binomial table's span at p = 1/2, a power's offsets,
        # or count vectors (on a lattice, at most its offsets: {0, 1, 100} at
        # n = 2000 folds 2,003,001 vectors into at most 200,001 atoms)
        sparse = IncrementDistribution.finite_table([(0.0, 0.5), (1.0, 0.3), (40.0, 0.2)])
        wide = IncrementDistribution.finite_table([(0.0, 0.5), (1.0, 0.25), (100.0, 0.25)])
        vs3 = MartingaleSpec.variance_switching(THREE_POINT, n=400, rho=0.5)
        vsr = MartingaleSpec.variance_switching(RADEMACHER, n=2046, rho=0.5)
        rows = [(vs3, n, n > 100, [601, 601]) for n in (100, 10**4, 10**5, 10**6)]
        rows += [(vsr, n, n > 10**4, [1024, 1024]) for n in (100, 10**4, 10**5, 10**6)]
        for n in (10**5, 10**3):
            rows += [(MartingaleSpec.iid(sparse, n=200, normalized=True), n, n > 10**3, [8001]),
                     (MartingaleSpec.iid(sparse, n=100, normalized=True), n, n > 10**3, [4001]),
                     (MartingaleSpec.iid(IRRATIONAL, n=100, normalized=True), n, n > 10**3,
                      [5151])]
        rows += [  # the benchmark's specs
            (MartingaleSpec.variance_switching(RADEMACHER, n=200, rho=0.5), 10**5, True, [101, 101]),
            (MartingaleSpec.variance_switching(THREE_POINT, n=200, rho=0.5), 10**5, True,
             [301, 301]),
            (rademacher_spec(20), 10**6, True, [21]),
            (three_point_spec(400), 10**6, True, [1201]),
            (rademacher_spec(1600), 20_000, True, [1601]),
            (rademacher_spec(100), 10**5, True, [101]),
            (rademacher_spec(1000), 10**5, True, [1001]),
            (rademacher_spec(10_000), 10**5, True, [4128]),
            (MartingaleSpec.iid(wide, n=2000), 10**5, False, [200_001])]
        for spec, samples, histogram, sizes in rows:
            assert [montecarlo._part_route(d, c)[0] for d, c in spec.iid_parts()] == sizes
            laws = sampled_laws(monkeypatch, spec, 0.7, samples)
            assert (laws is not None) == histogram, (sizes, samples)
            for law, (d, count), size in zip(laws or (), spec.iid_parts(), sizes):
                assert len(law.atoms) == len(law.pmf) <= size
                want = montecarlo._part_law(d, count, 0.7)
                assert np.array_equal(law.atoms, want.atoms)
                assert np.array_equal(law.pmf, want.pmf)
        # no finite part means no histogram, whatever N
        for spec in (gaussian_spec(15), gaussian_varswitch_spec(12)):
            assert sampled_laws(monkeypatch, spec, 0.7, MAX_SAMPLES) is None

    def test_two_point_route_boundary(self, monkeypatch):
        # Rademacher n = 10000 at x = n^(1/4): the binomial table is priced
        # at 4128 atoms, so 1e5 draws take the histogram route and 1000 draw
        # by draw; either route's estimates sit within 3.5 se of the exact
        # tail.  Crude sees no hit of a 6e-24 tail in 1e5 draws, so it is
        # read at x = 1 instead.
        spec = rademacher_spec(10_000)
        x = 10_000**0.25
        lam = saddlepoint_lambda(spec, x)
        for samples, histogram in ((100_000, True), (1000, False)):
            assert (sampled_laws(monkeypatch, spec, lam, samples) is not None) == histogram
            for est, threshold in ((tilted_tail_estimate(spec, x, lam, samples, seed=17), x),
                                   (crude_tail_estimate(spec, 1.0, samples, seed=17), 1.0)):
                exact = exact_tail(spec, threshold).p_hat
                assert est.std_err > 0.0
                assert abs(est.p_hat - exact) <= 3.5 * est.std_err

    def test_per_draw_route_agrees(self, monkeypatch):
        # the same calls with draws priced at nothing, so that no histogram
        # is cheaper, go draw by draw; both routes must sit within 3.5 se of
        # the exact tail
        for spec in (three_point_spec(30),
                     MartingaleSpec.variance_switching(THREE_POINT, n=60, rho=0.5),
                     MartingaleSpec.iid(IRRATIONAL, n=30, normalized=True)):
            exact = exact_tail(spec, 2.0).p_hat
            lam = saddlepoint_lambda(spec, 2.0)
            for draw_s in (montecarlo._DRAW_S, 0.0):
                monkeypatch.setattr(montecarlo, "_DRAW_S", draw_s)
                assert (sampled_laws(monkeypatch, spec, lam, 50_000) is None) == (draw_s == 0.0)
                for est in (tilted_tail_estimate(spec, 2.0, lam, 50_000, seed=13),
                            crude_tail_estimate(spec, 2.0, 50_000, seed=13)):
                    assert abs(est.p_hat - exact) <= 3.5 * est.std_err

    def test_crude_far_tail_miss_last(self, monkeypatch):
        # 2^30 crude draws cost O(atoms) on the histogram route, so a tail of
        # about 1.6e-8 gets about 17 hits.  Each row of the inner multinomial
        # holds zeros below its cut, the tail atoms above it and the miss
        # category last: numpy's running remainder starts at 1 and loses only
        # the tail, where a leading miss would leave it 1 - (1 - tail), which
        # cancels.  One part draws one row; two parts one row per drawn atom
        # of the first part (x = 5.25 leaves a tail of 1.9e-8).
        calls = []
        real = montecarlo.block_rng

        class Spy:
            def __init__(self, rng):
                self.rng, self.bit_generator = rng, rng.bit_generator

            def multinomial(self, n, p):
                calls.append((np.array(p), self.rng.multinomial(n, p)))
                return calls[-1][1]

        monkeypatch.setattr(montecarlo, "block_rng", lambda seed, b: Spy(real(seed, b)))
        # x = 5.3 is between the atoms 40/sqrt(60) and 42/sqrt(60)
        for spec, x in ((rademacher_spec(60), 5.3),
                        (MartingaleSpec.variance_switching(RADEMACHER, n=60, rho=0.5), 5.25)):
            calls.clear()
            est = crude_tail_estimate(spec, x, MAX_SAMPLES, seed=21)
            exact = exact_tail(spec, x).p_hat
            laws = [montecarlo._part_law(d, count, 0.0) for d, count in spec.iid_parts()]
            atoms, pmf = laws[-1].atoms, laws[-1].pmf
            *outer, (p, _) = calls
            if outer:
                ((_, outer_counts),) = outer
                a = laws[0].atoms[outer_counts > 0]
            else:
                a = np.zeros(1)
                assert exact == pytest.approx(
                    math.fsum(math.comb(60, k) for k in range(51, 61)) / 2.0**60, rel=1e-12)
                assert p.shape == (10 + 1,)
                assert math.fsum(p[:-1]) == pytest.approx(exact, rel=1e-12)
            p = np.atleast_2d(p)
            cut = laws[-1].above(x - a)
            lo = cut.min()  # the columns start at the lowest cut
            assert p.shape == (len(a), len(atoms) - lo + 1)
            for row, c in zip(p, cut):
                assert not row[:c - lo].any() and row[c - lo:-1].all()  # zeros only before the cut
                assert np.array_equal(row[c - lo:-1], pmf[c:])
                assert row[-1] == 1.0 - row[:-1].sum()
            assert est.p_hat > 0.0
            assert abs(est.p_hat - exact) <= 3.5 * est.std_err

    # (spec, draws, pooled): every cell of the 1- against 2-worker table in
    # CHANGES.md, tilted at the saddlepoint of x = 2 and drawn one by one;
    # pooled where the pool won at least 10 of 11 pairs
    POOL_TABLE = (
        *((gaussian_spec(100), n, False) for n in (10**4, 10**5, 10**6)),
        *((MartingaleSpec.variance_switching(RADEMACHER, n=2046, rho=0.5), n, False)
          for n in (10**4, 2 * 10**4)),
        *((MartingaleSpec.variance_switching(RADEMACHER, n=10**5, rho=0.5), n, n > 5 * 10**4)
          for n in (2 * 10**4, 5 * 10**4, 2 * 10**5, 10**6)),
        *((MartingaleSpec.variance_switching(THREE_POINT, n=4000, rho=0.5), n, n > 2 * 10**4)
          for n in (10**4, 2 * 10**4, 3 * 10**4, 5 * 10**4, 10**5, 10**6)),
        *((MartingaleSpec.iid(IncrementDistribution.finite_table(
            [(0.0, 0.5), (1.0, 0.25), (100.0, 0.25)]), n=2000, normalized=True), n, n > 3 * 10**4)
          for n in (2 * 10**4, 3 * 10**4, 10**5)),
        *((MartingaleSpec.iid(IRRATIONAL, n=4096, normalized=True), n, False)
          for n in (10**4, 3 * 10**4)),
    )

    def test_worker_count_clamped(self, monkeypatch):
        # _per_draw_sums starts min(CPUs, blocks) workers exactly where the
        # draws are priced at _POOL_S or more, and no pool anywhere else (a
        # gaussian spec, priced at 0, never pools)
        started = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        for spec, samples, pooled in self.POOL_TABLE:
            parts = spec.iid_parts() if spec.dist.kind != "gaussian" else ()
            draws = sum(samples * montecarlo._DRAW_S * (len(d.values) - 1) for d, _ in parts)
            assert (draws >= montecarlo._POOL_S) == pooled, (spec, samples)
            lam = saddlepoint_lambda(spec, 2.0)
            assert sampled_laws(monkeypatch, spec, lam, samples) is None, (spec, samples)
            for cpus in (2, 8):
                monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
                started.clear()
                tilted_tail_estimate(spec, 2.0, lam, samples, seed=7)
                blocks = -(-samples // montecarlo.BLOCK)
                assert started == ([min(cpus, blocks)] if pooled else []), (spec, samples, cpus)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            tilted_tail_estimate(rademacher_spec(4), 0.5, -0.1, 100, seed=0)

    def test_sure_event_under_tilt(self):
        # below the support every path hits; the weight mean sits at 1 up to
        # sampling noise and must not trip the estimate validator
        est = tilted_tail_estimate(rademacher_spec(8), -5.0, 0.7, 5_000, seed=4)
        assert abs(est.p_hat - 1.0) <= 3.5 * est.std_err


class TestHistogramSums:
    """The inner draws of the histogram route are one multinomial call over a
    row per drawn outer atom, bit for bit a call per row, and one reduction
    weighs every row's hits."""

    SPECS = (MartingaleSpec.variance_switching(RADEMACHER, n=200, rho=0.5),
             MartingaleSpec.variance_switching(THREE_POINT, n=60, rho=0.5),
             MartingaleSpec.variance_switching(IRRATIONAL, n=12, rho=0.5),  # 28 x 28
             rademacher_spec(400),
             three_point_spec(100))

    def test_matches_per_atom_loop(self, monkeypatch):
        x = 2.0
        for spec in self.SPECS:
            for lam in (0.0, saddlepoint_lambda(spec, x)):  # crude, tilted
                laws = sampled_laws(monkeypatch, spec, lam, 100_000)
                assert laws is not None
                psi = tilting.cumulant_process(spec, lam)
                for seed, threshold in itertools.product(range(30), (x, x + 1, math.inf, -math.inf)):
                    args = (laws, threshold, lam, psi, 100_000)
                    got = montecarlo._histogram_sums(*args, montecarlo.block_rng(seed, 0))
                    assert got == loop_histogram_sums(*args, seed), (spec, lam, seed, threshold)

    def test_one_inner_multinomial_call(self, monkeypatch):
        # one call draws every inner row; a second part adds only its own
        # histogram's call before it
        calls = []
        real = montecarlo.block_rng

        class Spy:
            def __init__(self, rng):
                self.rng, self.bit_generator = rng, rng.bit_generator

            def multinomial(self, n, p):
                calls.append(np.ndim(p))
                return self.rng.multinomial(n, p)

        monkeypatch.setattr(montecarlo, "block_rng", lambda seed, b: Spy(real(seed, b)))
        for spec in self.SPECS:
            two = len(spec.iid_parts()) == 2
            for estimate in (lambda: crude_tail_estimate(spec, 1.0, 100_000, seed=5),
                             lambda: tilted_tail_estimate(spec, 2.0, 0.8, 100_000, seed=5)):
                calls.clear()
                estimate()
                assert calls == ([1, 2] if two else [1]), spec


class TestLatticeLaw:
    """_part_law's tilted sum law of a three-point lattice table, always
    built on its lattice (3n + 1 atoms, far cheaper than its count vectors)."""

    @staticmethod
    def on_lattice(spec, law):
        """The law's mass at each lattice offset 0..3n from n * values[0]."""
        values = spec.iid_parts()[0][0].table()[0]
        offsets = (law.atoms - spec.n * values[0]) / (values[1] - values[0])
        index = np.rint(offsets).astype(int)
        assert np.all(np.abs(offsets - index) <= 1e-9)
        return np.bincount(index, weights=law.pmf, minlength=3 * spec.n + 1)

    @staticmethod
    def exact_power(probs, n):
        """The pmf of n draws from the offsets {0, 1, 3} with the given float
        probs, as normalized rationals: the step polynomial's n-th power,
        taken in integers over the probs' common power-of-two denominator."""
        ratios = [Fraction(p) for p in probs]
        den = max(r.denominator for r in ratios)
        c0, c1, c3 = (r.numerator * (den // r.denominator) for r in ratios)
        step = [c0, c1, 0, c3]
        law = [1]
        for _ in range(n):
            law = [sum(law[i - j] * step[j] for j in range(4) if 0 <= i - j < len(law))
                   for i in range(len(law) + 3)]
        total = sum(law)
        return [Fraction(c, total) for c in law]

    @staticmethod
    def nested_binomial(probs, n):
        """The same pmf summed over the count vectors: c3 ~ Bin(n, p3) draws
        take the offset 3 and c1 ~ Bin(n - c3, p1 / (p0 + p1)) of the others 1."""
        p0, p1, p3 = probs
        law = np.zeros(3 * n + 1)
        for c3 in range(n + 1):
            c1 = np.arange(n - c3 + 1)
            law[c1 + 3 * c3] += binom.pmf(c3, n, p3) * binom.pmf(c1, n - c3, p1 / (p0 + p1))
        return law

    def test_matches_count_vectors(self):
        # every sum of n draws is a lattice atom, and at tilts where most of
        # the table underflows each representable mass is within 1e-12 of
        # the exact power (up to n = 100) or of the nested binomial sum over
        # the count vectors (at n = 400, where the integer power takes
        # about a minute per tilt; that sum is within 1.3e-13 of it)
        for n in (1, 2, 7, 30, 100, 400):
            spec = three_point_spec(n)
            assert montecarlo._part_route(spec.iid_parts()[0][0], n)[:2] == (3 * n + 1, True)
            for lam in (0.0, 0.7, 3.0, 20.0):
                law = montecarlo._part_law(spec.iid_parts()[0][0], n, lam)
                assert len(law.atoms) == 3 * n + 1
                pmf = self.on_lattice(spec, law)
                _, probs = tilting.tilted_table(spec.iid_parts()[0][0], lam)
                if n <= 100:
                    want = np.array([float(w) for w in self.exact_power(probs, n)])
                else:
                    want = self.nested_binomial(probs, n)
                keep = want > 1e-300
                assert np.all(np.abs(pmf[keep] / want[keep] - 1.0) <= 1e-12), (n, lam)

    def test_matches_exact_rationals(self):
        for n in (1, 2, 5, 13, 30):
            spec = three_point_spec(n)
            for lam in (0.0, 0.7, 3.0):
                pmf = self.on_lattice(spec, montecarlo._part_law(spec.iid_parts()[0][0], n, lam))
                _, probs = tilting.tilted_table(spec.iid_parts()[0][0], lam)
                for got, want in zip(pmf, self.exact_power(probs, n), strict=True):
                    assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * want


class TestSaddlepoint:
    def test_root_residual(self):
        spec = rademacher_spec(20)
        for x in (0.5, 1.0, 2.0, 3.5):
            lam = saddlepoint_lambda(spec, x)
            assert tilting.drift_process(spec, lam) == pytest.approx(x, abs=1e-8)

    def test_zero(self):
        assert saddlepoint_lambda(rademacher_spec(8), 0.0) == 0.0

    def test_beyond_support(self):
        # at and past the top atom 4 of X_16 the solve is the one at the
        # midpoint 3.75 of the two top atoms, as it is just below the top
        spec = rademacher_spec(16)
        mid = saddlepoint_lambda(spec, 3.75)
        for x in (4.0, 5.0, math.inf):
            assert saddlepoint_lambda(spec, x) == mid, x
        assert saddlepoint_lambda(spec, np.array([3.75, 4.0, 5.0])).tolist() == [mid] * 3

    def test_gaussian_closed_form(self):
        assert saddlepoint_lambda(gaussian_spec(30), 2.0) == pytest.approx(2.0, abs=1e-9)

    @staticmethod
    def bisection(spec, x):
        """The reference solve: bisection on the exact drift to a relative
        width of 1e-10, with the same x = 0 case and the same threshold
        min(x, midpoint of X_n's two top atoms) for a finite spec."""
        if x == 0.0:
            return 0.0
        sup = montecarlo._drift_supremum(spec)
        if sup < math.inf:
            x = min(x, sup - 0.5 * min(d.values[-1] - d.values[-2] for d, _ in spec.iid_parts()))
        hi = 1.0
        while tilting.drift_process(spec, hi) < x:
            hi *= 2.0
        lo = 0.0
        while hi - lo > 1e-10 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if tilting.drift_process(spec, mid) < x:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @staticmethod
    def drift_calls(monkeypatch):
        """The list of tilts at which the drift is read from now on: each
        tilting.drift_and_slope call, which drift_process makes too (the
        bisection's reads) and the solve makes once a step for every
        threshold still running."""
        calls = []
        drift = tilting.drift_and_slope

        def counted(spec, lam):
            calls.append(lam)
            return drift(spec, lam)

        monkeypatch.setattr(tilting, "drift_and_slope", counted)
        return calls

    def test_matches_bisection_oracle(self, monkeypatch):
        # the benchmark's grids, varswitch, the approach to the top of the
        # support (where the drift saturates) and the gaussian closed form;
        # the Newton solve never needs more drift evaluations than bisection
        varswitch = [MartingaleSpec.variance_switching(d, n=200, rho=0.5)
                     for d in (RADEMACHER, THREE_POINT)]
        top = montecarlo._drift_supremum(three_point_spec(100))
        cases = [(rademacher_spec(1600), 0.5 * k) for k in range(1, 41)]
        cases += [(three_point_spec(400), 3.0)]
        cases += [(rademacher_spec(n), n**0.25) for n in (100, 1000, 10000)]
        cases += [(spec, 2.0) for spec in varswitch]
        cases += [(rademacher_spec(16), x) for x in (3.9, 3.999999, 4.0 * (1.0 - 1e-11))]
        cases += [(three_point_spec(100), f * top) for f in (0.3, 0.999, 1 - 1e-9, 1 - 1e-11)]
        # a skewed law whose tilted variance underflows to 0 at the overshoots
        cases += [(MartingaleSpec.iid(SKEWED, n=1), 950.0),
                  (MartingaleSpec.iid(SKEWED, n=16), 0.9973 * 16 * 999.0)]
        calls = self.drift_calls(monkeypatch)
        for spec, x in cases:
            calls.clear()
            want = self.bisection(spec, x)
            budget = len(calls)
            calls.clear()
            lam = saddlepoint_lambda(spec, x)
            assert abs(lam - want) <= 2e-10 * max(1.0, lam), (spec, x, lam, want)
            assert len(calls) <= budget, (spec, x, len(calls), budget)
        for spec in (gaussian_spec(30), gaussian_varswitch_spec(30)):
            for x in (0.3, 2.0, 7.5):
                assert saddlepoint_lambda(spec, x) == x / spec.total_variance()

    def test_top_atom_band(self):
        # above the midpoint 3.75 of the two top atoms (3.5 and 4) only the
        # top atom lies above x, so the whole band up to the top solves at the
        # midpoint, and a threshold below it at a smaller tilt.  The tilted
        # estimate of P(X_n = top) = 2^-16 stands, with a relative standard
        # error under 1/sqrt(N)
        spec = rademacher_spec(16)
        mid = saddlepoint_lambda(spec, 3.75)
        for x in (3.75, 3.76, 3.9, 4.0 * (1.0 - 1e-9), 4.0 * (1.0 - 1e-13)):
            assert saddlepoint_lambda(spec, x) == mid, x
        assert saddlepoint_lambda(spec, 3.74) < mid
        exact = exact_tail(spec, 3.9).p_hat
        assert exact == 2.0**-16
        est = estimate_tail(spec, 3.9, "tilted", "saddlepoint", 20_000, seed=5)
        assert est.lambda_used == mid
        assert abs(est.p_hat - exact) <= 3.5 * est.std_err
        assert est.std_err <= exact / math.sqrt(20_000)

    def test_near_top_drift_budget(self, monkeypatch):
        # at x = top (1 - eps) the solve is the midpoint's of the two top
        # atoms, wherever x lies above it: a few Newton steps each
        specs = (rademacher_spec(16), three_point_spec(100), MartingaleSpec.iid(SKEWED, n=16),
                 *(MartingaleSpec.variance_switching(d, n=200, rho=0.5)
                   for d in (RADEMACHER, THREE_POINT)))
        calls = self.drift_calls(monkeypatch)
        for spec in specs:
            top = montecarlo._drift_supremum(spec)
            for eps in (1e-6, 1e-8, 1e-9, 1e-10, 1e-11):
                calls.clear()
                saddlepoint_lambda(spec, top * (1.0 - eps))
                assert len(calls) <= 14, (spec, eps, len(calls))

    def test_random_specs_match_bisection(self):
        # 300 seeded specs: the two-, three- and off-lattice three-point
        # tables and a skewed one, iid (normalized or not) or varswitch, n up
        # to 1e5, 60 % of the thresholds within 1e-14 to 1 (relative) of the top
        tables = (RADEMACHER, THREE_POINT, IRRATIONAL, SKEWED)
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = tables[rng.integers(4)]
            n = int(10.0 ** rng.uniform(0.0, 5.0))
            if rng.random() < 0.5:
                spec = MartingaleSpec.variance_switching(d, n=max(2, n - n % 2),
                                                         rho=rng.uniform(0.0, 0.9))
            else:
                spec = MartingaleSpec.iid(d, n=n, normalized=bool(rng.random() < 0.5))
            top = montecarlo._drift_supremum(spec)
            if rng.random() < 0.6:
                x = top * (1.0 - 10.0 ** rng.uniform(-14.0, 0.0))
            else:
                x = top * rng.uniform(0.0, 1.0)
            want = self.bisection(spec, x)
            lam = saddlepoint_lambda(spec, x)
            assert abs(lam - want) <= 2e-10 * max(1.0, lam), (spec, x, lam, want)

    def test_grid_solve_matches_bisection(self, monkeypatch):
        # an array of thresholds is one solve: each element has the bits of
        # its own solve and is within the bisection's width of it, x = 0 at
        # 0 and every x at or above the top atoms' midpoint m at m's tilt;
        # each step reads all running thresholds in one drift_and_slope
        # call, so the grid takes as many calls as its slowest row.  Rows at
        # and past the top of the support solve at m too, and the tilted grid
        # samples them at that tilt: no atom lies above x, so p_hat = 0 and
        # std_err = 0 from all N samples
        three = three_point_spec(100)
        top = montecarlo._drift_supremum(three)
        cases = [(rademacher_spec(16), [0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 3.74, 3.75, 3.9,
                                         4.0 * (1.0 - 1e-13), 4.0, 5.0]),
                 (three, [0.0, *(f * top for f in (0.1, 0.3, 0.6, 0.999, 1 - 1e-9, 1 - 1e-11)),
                          top, 2.0 * top]),
                 (MartingaleSpec.variance_switching(THREE_POINT, n=200, rho=0.5),
                  [0.0, 0.5, 1.0, 2.0, 3.0, 4.0])]
        calls = self.drift_calls(monkeypatch)
        for spec, grid in cases:
            sup = montecarlo._drift_supremum(spec)
            calls.clear()
            lams = saddlepoint_lambda(spec, np.array(grid))
            grid_calls = len(calls)
            most = 0
            for x, lam in zip(grid, lams.tolist()):
                calls.clear()
                assert lam == saddlepoint_lambda(spec, x), (spec, x)
                most = max(most, len(calls))
                want = self.bisection(spec, x)
                assert abs(lam - want) <= 2e-10 * max(1.0, lam), (spec, x, lam, want)
            assert grid_calls == most, spec
            assert lams[0] == 0.0
            m = sup - 0.5 * min(d.values[-1] - d.values[-2] for d, _ in spec.iid_parts())
            above = [lam for x, lam in zip(grid, lams) if x >= m]
            assert above == [saddlepoint_lambda(spec, m)] * len(above), spec
            rows = montecarlo._tail_rows(spec, grid, "tilted", "saddlepoint", 1000, 3)
            assert [row.lambda_used for row in rows] == lams.tolist()
            for row in rows:
                assert row.n_samples == 1000
                if row.x >= sup:
                    assert (row.p_hat, row.std_err) == (0.0, 0.0), (spec, row.x)


class TestExactTail:
    def test_enumeration_small_case(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=4)
        est = estimate_tail(spec, 3.0, "exact_enum", "saddlepoint", 0, 0)
        assert est == exact_tail(spec, 3.0)
        assert est.p_hat == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert est.std_err == 0.0

    def test_impossible(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=6)
        assert exact_tail(spec, 6.0).p_hat == 0.0

    def test_methods_are_exact_or_enum(self):
        # "exact" and "exact_enum" spell one route, whose tag is read from
        # the spec's parts: exact_binomial for one two-atom part,
        # exact_gaussian for a gaussian spec, else exact_enum.  The closed
        # forms are tags, not methods to ask for; "auto" is gone
        for spec, tag in ((MartingaleSpec.iid(RADEMACHER, n=6), "exact_binomial"),
                          (rademacher_spec(6), "exact_binomial"),
                          (three_point_spec(6), "exact_enum"),
                          (MartingaleSpec.variance_switching(RADEMACHER, n=6, rho=0.5),
                           "exact_enum"),
                          (gaussian_spec(6), "exact_gaussian")):
            est = exact_tail(spec, 0.5)
            assert est.method == tag, spec
            for method in EXACT_METHODS:
                assert estimate_tail(spec, 0.5, method, "saddlepoint", 0, 0) == est, (spec, method)
            for method in ("exact_binomial", "exact_gaussian", "auto"):
                with pytest.raises(ConfigError):
                    estimate_tail(spec, 1.0, method, "saddlepoint", 0, 0)
        spec = rademacher_spec(16)  # ratio_experiment's default method is "exact"
        assert ratio_experiment(spec, [1.0]).rows[0].p_hat == exact_tail(spec, 1.0).p_hat

    def test_binomial_equals_enumeration(self):
        # the binomial table against the exact count of sign paths above x,
        # sum C(n, k) over 2k - n > x, as a rational: n = 30 has 2^30 paths
        # but only 31 counts.  The largest error over this grid is 3.1e-16
        # relative.  An infinite threshold is the sure or the impossible event
        for n in (*range(1, 9), 30):
            spec = MartingaleSpec.iid(RADEMACHER, n=n)
            thresholds = np.arange(-n, n + 1, 2.0)  # the atoms 2k - n
            for x in map(float, thresholds):
                binomial = exact_tail(spec, x)
                assert binomial.method == "exact_binomial"
                want = Fraction(sum(math.comb(n, k) for k in range(n + 1) if 2 * k - n > x), 2**n)
                assert abs(Fraction(binomial.p_hat) - want) <= 2 * EPS * want, (n, x)
            for x in (-math.inf, math.inf):
                assert exact_tail(spec, x).p_hat == float(x < 0.0)

    def test_methods_agree_to_the_bit(self):
        # one law and one reader serve both spellings, so they give the same
        # bits at every threshold: the grids' own thresholds (each an atom of
        # normalized Rademacher, where the table reader once counted the atom
        # at x above x on 16 of 41 rows at n = 400), every atom of X_n, one
        # ulp and 1e-17 either side of it, the midpoints between atoms, and
        # +-inf; read in ascending order, the tail never rises.  Each
        # spelling reads all of a spec's thresholds as one grid, and
        # exact_tail, a one-row grid, has the bits of its grid's row
        def atoms_of(spec):
            laws = [montecarlo._part_law(d, c, 0.0) for d, c in spec.iid_parts()]
            return functools.reduce(np.add.outer, [law.atoms for law in laws]).ravel()

        cases = ((rademacher_spec(400), cli._parse_grid("0:4:0.1")),
                 (rademacher_spec(6400), cli._parse_grid("0:80:0.8")),
                 (three_point_spec(14), []),
                 (MartingaleSpec.variance_switching(RADEMACHER, n=22, rho=0.5), []),
                 (MartingaleSpec.variance_switching(THREE_POINT, n=40, rho=0.5), []))
        for spec, grid in cases:
            atoms = np.unique(atoms_of(spec))
            near = [np.nextafter(atoms, -math.inf), np.nextafter(atoms, math.inf),
                    atoms - 1e-17, atoms + 1e-17]
            thresholds = np.sort([*grid, *atoms, *np.concatenate(near),
                                  *(atoms[1:] + atoms[:-1]) / 2, -math.inf, math.inf]).tolist()
            exact, enum = (montecarlo._tail_rows(spec, thresholds, method, "saddlepoint", 0, 0)
                           for method in EXACT_METHODS)
            assert exact == enum, spec
            assert all(np.diff([row.p_hat for row in exact]) <= 0.0), spec
            for x, row in list(zip(thresholds, exact))[::97]:
                assert exact_tail(spec, x) == row, (spec, x)

    def test_varswitch_against_bruteforce(self):
        # independent pure-python oracle over all sign paths
        n, rho = 6, 0.5
        spec = MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=rho)
        v_hi, v_lo = (1 + rho) / n, (1 - rho) / n

        def brute(x):
            total = 0.0
            for signs in itertools.product((-1.0, 1.0), repeat=n):
                run = 0.0
                for j in range(0, n, 2):
                    s = 1.0 if run >= 0 else -1.0
                    first, second = (v_hi, v_lo) if s > 0 else (v_lo, v_hi)
                    run += signs[j] * math.sqrt(first)
                    run += signs[j + 1] * math.sqrt(second)
                if run > x:
                    total += 0.5**n
            return total

        for x in (-0.5, 0.0, 0.3, 0.9, 1.7):
            assert exact_tail(spec, x).p_hat == pytest.approx(brute(x), abs=1e-14)

    def test_gaussian_closed_form(self):
        # a gaussian varswitch spec is exactly N(0, 1) as well
        for spec in (gaussian_spec(123),
                     MartingaleSpec.variance_switching(GAUSSIAN, n=10, rho=0.5)):
            est = exact_tail(spec, 1.75)
            assert est.method == "exact_gaussian"
            assert est.p_hat == bounds.gaussian_tail(1.75)

    def test_three_point_enum_against_bruteforce(self):
        table = IncrementDistribution.finite_table(
            [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]
        )
        spec = MartingaleSpec.iid(table, n=5, normalized=True)
        values, probs = spec.iid_parts()[0][0].table()

        def brute(x):
            total = 0.0
            for combo in itertools.product(range(3), repeat=5):
                s = sum(values[i] for i in combo)
                if s > x:
                    total += math.prod(probs[i] for i in combo)
            return total

        for x in (-0.3, 0.0, 0.4, 1.1):
            assert exact_tail(spec, x).p_hat == pytest.approx(brute(x), abs=1e-14)

    def test_too_large_rejected(self, monkeypatch):
        # six atoms on no lattice at n = 100 have C(105, 5) ~ 9.7e7 count
        # vectors, priced far past the byte budget; the price is arithmetic,
        # and the refusal comes before any allocation (numpy is never reached)
        table = IncrementDistribution.finite_table(
            [(math.sqrt(v), 1.0 / 6.0) for v in (0, 1, 2, 3, 5, 7)])
        assert table.lattice is None and montecarlo._part_route(table, 100)[3] > 20 * BYTE_BUDGET
        # a lattice power priced past the time budget is refused the same
        # way, from its atom count alone: 300,001 atoms would take about 6 s,
        # and 3e15 + 1 could not even be allocated
        power = [montecarlo._part_route(THREE_POINT, n) for n in (10**5, 10**15)]
        assert all(powered and seconds > 3 * montecarlo.TIME_BUDGET
                   for _, powered, seconds, _ in power)
        monkeypatch.setattr(montecarlo, "_Law", None)
        monkeypatch.setattr(montecarlo.np, "convolve", None)
        for method in EXACT_METHODS:
            with pytest.raises(DomainError, match="too-large"):
                estimate_tail(MartingaleSpec.iid(table, n=100), 1.0, method, "saddlepoint", 0, 0)
        for n in (10**5, 10**15):
            with pytest.raises(DomainError, match="too-large"):
                exact_tail(three_point_spec(n), 1.0)

    def test_refused_price_reads_over_its_budget(self, monkeypatch):
        # the normalized three-point law at n = 56,344 powers 169,033 atoms,
        # priced just past TIME_BUDGET; three significant digits printed it
        # as "2 s ... over 2.0 s".  The printed price parses above the budget,
        # and the refusal comes before any allocation
        monkeypatch.setattr(montecarlo, "_Law", None)
        monkeypatch.setattr(montecarlo.np, "convolve", None)
        with pytest.raises(DomainError, match="too-large") as refused:
            exact_tail(three_point_spec(56_344), 1.0)
        seconds, mib = re.search(r"priced at (\S+) s and (\S+) MiB", str(refused.value)).groups()
        assert montecarlo.TIME_BUDGET < float(seconds) < 1.001 * montecarlo.TIME_BUDGET
        assert float(mib) < montecarlo.BYTE_BUDGET / 2**20

    def test_binomial_past_its_cap(self):
        # the binomial table spans about 80 sds: n = 1e9 fits the budgets,
        # n = 1e12 (some 4e7 atoms) is refused before any allocation
        p = exact_tail(rademacher_spec(10**9), 1.0).p_hat
        assert p == pytest.approx(bounds.gaussian_tail(1.0), rel=1e-3)
        with pytest.raises(DomainError, match="too-large"):
            exact_tail(rademacher_spec(10**12), 1.0)

    def test_uniform_lattice_at_n100(self):
        # the six atoms {0, ..., 5} lie on a lattice, so n = 100 takes 501
        # atoms, not C(105, 5) count vectors.  S = X_n + 250 is a sum of 100
        # uniform draws on {0, ..., 5}; by inclusion-exclusion the number of
        # draw sequences with S = s is sum_j (-1)^j C(100, j) C(s - 6j + 99, 99)
        table = IncrementDistribution.finite_table([(v, 1.0 / 6.0) for v in range(6)])
        spec = MartingaleSpec.iid(table, n=100)

        def ways(s):
            return sum((-1) ** j * math.comb(100, j) * math.comb(s - 6 * j + 99, 99)
                       for j in range(min(100, s // 6) + 1))

        for x in (-20.5, 0.5, 10.5, 40.5):
            want = Fraction(sum(ways(s) for s in range(math.ceil(250 + x), 501)), 6**100)
            for method in EXACT_METHODS:
                got = estimate_tail(spec, x, method, "saddlepoint", 0, 0)
                assert got.method == "exact_enum"
                assert abs(Fraction(got.p_hat) / want - 1) <= Fraction(1, 10**14)

    def test_sparse_lattice_takes_count_vectors(self):
        # {0, 1, top} lies on a lattice, but its count vectors are built
        # where they are priced below the power: at top = 1000, n = 200 the
        # power of 200,001 atoms is priced at 2.8 s, the 20,301 vectors at
        # 13 ms; at top = 100, n = 2000 the power at 2.8 s, the 2,003,001
        # vectors (at most 200,001 atoms) at 0.51 s; at top = 250, n = 500
        # the power at 1.1 s, the 125,751 vectors at 49 ms.  Against a nested
        # binomial: c ~ Bin(n, 1/4) draws are top and b ~ Bin(n - c, 1/3) of
        # the others are 1.  The two agree to 3.2e-14 over these cases; 1e-13
        # leaves room for the rounding of scipy's terms in the oracle.  A
        # log-gamma pmf, whose error grows like eps*n*log(n), was 1.0e-12 off
        # at n = 2000.
        for top, n, rel in ((1000, 200, 1e-13), (100, 2000, 1e-13), (250, 500, 1e-13)):
            table = IncrementDistribution.finite_table([(0.0, 0.5), (1.0, 0.25), (top, 0.25)])
            spec = MartingaleSpec.iid(table, n=n)
            assert montecarlo._part_route(table, n)[:2] == (
                min(math.comb(n + 2, 2), top * n + 1), False)
            c = np.arange(n + 1)
            mean = 0.25 + 0.25 * top  # the table was centred at its mean
            for x in (-0.5, top + 0.5, 0.15 * top * n + 0.5):
                above = binom.sf(np.floor(x + n * mean - top * c), n - c, 1 / 3)
                want = math.fsum(binom.pmf(c, n, 0.25) * above)
                got = exact_tail(spec, x).p_hat
                assert got == pytest.approx(want, rel=rel, abs=0.0), (top, n, x)
        # those tables' centred values are dyadic, so even float sums were
        # exact.  {0, 1, 150} at (0.5, 0.3, 0.2) is centred at 30.3: its count
        # vectors must sum their integer offsets, or vectors on one lattice
        # point give atoms a rounding apart and a threshold on that point
        # splits the atom's mass (8.5 % off at an offset of {0, 1, 40}, which
        # now takes the power of 8001 atoms).  The 20301 vectors fold onto
        # 18975 atoms base + i g.  Both laws are read here at every 23rd
        # offset against the nested binomial: c ~ Bin(n, 0.2) draws are top
        # and b ~ Bin(n - c, 3/8) of the others are 1
        n = 200
        for top, atoms, powered in ((150, 18975, False), (40, 8001, True)):
            table = IncrementDistribution.finite_table([(0.0, 0.5), (1.0, 0.3), (top, 0.2)])
            assert montecarlo._part_route(table, n)[1] == powered
            law = montecarlo._part_law(table, n, 0.0)
            assert len(law.atoms) == atoms
            (base, g), c = law.lattice, np.arange(n + 1)
            weights = binom.pmf(c, n, 0.2)
            offsets = range(0, top * n + 1, 23)
            rows = montecarlo._exact_rows(MartingaleSpec.iid(table, n=n),  # exact_tail's reader
                                          [base + i * g for i in offsets])
            for i, row in zip(offsets, rows):
                want = math.fsum(weights * binom.sf(i - top * c, n - c, 0.375))
                assert row.p_hat == pytest.approx(want, rel=1e-12, abs=0.0), (top, i)

    def test_chain_peak_below_fold(self, monkeypatch):
        # the count-vector chain makes each length-V array once and drops it
        # when done, so the fold after it (the argsort and the sorted copies)
        # sets the build's peak memory, which _BYTES prices per vector: on
        # {0, 1, 100} at n = 500 the chain's 125,751 vectors peaked at 7.8 MiB
        # against the fold's 7.0 MiB while the chain indexed by a row array
        # (at n = 2000: 108 against 95 MiB)
        table = IncrementDistribution.finite_table([(0.0, 0.5), (1.0, 0.25), (100.0, 0.25)])
        assert not montecarlo._part_route(table, 500)[1]
        peaks = []

        class Numpy:  # numpy, with the peak read and reset where the fold begins
            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, *args, **kwargs):
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                return np.argsort(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "np", Numpy())
        tracemalloc.start()
        try:
            montecarlo._part_law(table, 500, 0.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        chain, fold = peaks
        assert chain <= fold <= math.comb(502, 2) * montecarlo._BYTES

    def test_near_lattice_not_snapped(self):
        # 2 + 1e-9 is off the lattice {-1, 0, 2}: the top atom of X_10, of
        # mass 4^-10, sits 1e-8 above the lattice's, and both engines see it
        table = IncrementDistribution.finite_table(
            [(-1.0, 0.5), (0.0, 0.25), (2.0 + 1e-9, 0.25)])
        assert table.lattice is None and THREE_POINT.lattice[1].tolist() == [0, 1, 3]
        spec = MartingaleSpec.iid(table, n=10)
        for method in EXACT_METHODS:
            x = 10 * table.values[-1] - 5e-9
            got = estimate_tail(spec, x, method, "saddlepoint", 0, 0).p_hat
            assert got == pytest.approx(0.25**10, rel=1e-12)

    def test_lattice_step_is_gcd_of_gaps(self):
        # {0, 2, 5} has gaps 2 and 3, so its lattice step is 1, not the
        # smallest gap: X_4000 takes 20001 atoms, not C(4002, 2) count
        # vectors past the cap.  Against a nested binomial: c ~ Bin(n, 1/4)
        # draws are 5 and b ~ Bin(n - c, 1/3) of the others are 2, and the
        # table was centred at its mean 7/4
        table = IncrementDistribution.finite_table([(0.0, 0.5), (2.0, 0.25), (5.0, 0.25)])
        assert table.lattice[0] == 1.0 and table.lattice[1].tolist() == [0, 2, 5]
        n = 4000
        c = np.arange(n + 1)
        for x in (0.5, 100.5, 400.5):
            above = binom.sf(np.floor((x + 1.75 * n - 5 * c) / 2), n - c, 1 / 3)
            want = math.fsum(binom.pmf(c, n, 0.25) * above)
            got = exact_tail(MartingaleSpec.iid(table, n=n), x)
            assert got.method == "exact_enum"
            assert got.p_hat == pytest.approx(want, rel=1e-13, abs=0.0), x

    def test_three_point_at_scale(self):
        # {-1, 0, 2} where the paper's claims matter, against a nested
        # binomial: j zeros ~ Bin(n, 1/4), and c ~ Bin(n - j, 2/3) of the
        # other draws are -1, so X_n > x iff 2(n - j) - 3c > x sqrt(1.5 n).
        # (At n = 1000 the engine is within 4e-16 of the exact rationals and
        # this oracle within 1.3e-14.)
        for n in (1000, 3300, 16000):
            j = np.arange(n + 1)
            for x in (1.0, 3.0):
                c_max = np.ceil((2 * (n - j) - x * math.sqrt(1.5 * n)) / 3) - 1
                want = math.fsum(binom.pmf(j, n, 0.25) * binom.cdf(c_max, n - j, 2 / 3))
                got = exact_tail(three_point_spec(n), x)
                assert got.method == "exact_enum"
                assert got.p_hat == pytest.approx(want, rel=1e-13, abs=0.0), (n, x)

    def test_varswitch_zero_sum_ties(self):
        # c_hi/c_lo is irrational, so X_n = c_hi A + c_lo B is 0 only at
        # A = B = 0, and by symmetry P(X_n > 0) = (1 - P(A = 0)^2) / 2
        # at x = 0 and a fraction of an ulp above it: on Rademacher varswitch
        # n = 12 the lattice quotient of 0.0, 1e-17 and 5e-324 rounds below
        # the offset of the atom 0.0, which is still not above x
        for n in (4, 8, 12):
            p_zero = math.comb(n // 2, n // 4) / 2 ** (n // 2)
            for rho in (0.3, 0.5):
                spec = MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=rho)
                for x in (0.0, 1e-17, math.ulp(0.0)):
                    got = exact_tail(spec, x).p_hat
                    assert abs(got - (1.0 - p_zero**2) / 2.0) <= 1e-14, (n, rho, x)


def exact_erfc(z):
    """erfc(z) to 60 digits, from the standard library alone: the series
    e^(-z^2) sum 2^k z^(2k+1) / (2k+1)!! of erf below |z| = 6 (at most 17
    digits cancel in 1 - erf there), the Laplace continued fraction past it
    (200 terms converge beyond 1e-70 from z = 6 on), and erfc(-z) = 2 -
    erfc(z)."""
    with decimal.localcontext(decimal.Context(prec=80, Emin=-10**9, Emax=10**9)):
        x = abs(decimal.Decimal(z))
        if x < 6:
            term = total = x
            k = 0
            while term > total * decimal.Decimal("1e-80"):
                k += 1
                term *= 2 * x * x / (2 * k + 1)
                total += term
            tail = 1 - 2 / PI.sqrt() * (-x * x).exp() * total
        else:
            frac = x
            for k in range(200, 0, -1):
                frac = x + decimal.Decimal(k) / 2 / frac
            tail = (-x * x).exp() / PI.sqrt() / frac
        return +(tail if z >= 0 else 2 - tail)


class TestNormalCdf:
    """Phi, the normal cdf under every KS distance, read as
    bounds.gaussian_tail(-x): against exact values, and an ndarray's result
    against gaussian_tail's scalar calls."""

    # a grid over [-40, 40], dense where erfc leaves 2 and reaches 0, and
    # across the range boundaries of fdlibm's erfc (0.84375, 1.25, 1/0.35, 28)
    GRID = np.unique(np.r_[np.linspace(-40.0, 40.0, 1601), np.linspace(-6.5, 6.5, 521),
                           np.linspace(26.0, 28.0, 81), [0.84375, 1.25, 1 / 0.35, 28.0],
                           np.nextafter([0.84375, 1.25, 1 / 0.35, 28.0], 0.0)])

    def test_within_ulps_of_exact(self):
        # halving is exact, so 2 Phi(x) is the platform's erfc at the double
        # z = -x / sqrt(2) that gaussian_tail(-x) computes, within 4 ulps of exact
        x = self.GRID * -math.sqrt(2.0)
        for z, got in zip(-x / math.sqrt(2.0), 2.0 * bounds.gaussian_tail(-x)):
            want = exact_erfc(float(z))
            assert abs(decimal.Decimal(float(got)) - want) <= 4 * decimal.Decimal(
                math.ulp(float(want))), z

    def test_array_is_the_scalar_map(self):
        # an ndarray is gaussian_tail at every element, to the bit and in its
        # shape: at nan, +-inf, +-0, 8 doubles either side of each x whose
        # z = x / sqrt(2) is where math.erfc leaves 2 (-5.8635847487551676)
        # or reaches 0 (27.226364135742184), the grid and [-1000, 1000], as a
        # row, as a 2-D array and as a 0-d array; a float gives a float
        windows = []
        for t in (27.226364135742184, -5.8635847487551676):
            x0 = t * math.sqrt(2.0)
            x = x0 + np.arange(-8, 9) * math.ulp(x0)
            z = x / math.sqrt(2.0)
            assert t in z and z.min() < t < z.max()
            windows.append(x)
        x = np.concatenate([[math.nan, math.inf, -math.inf, 0.0, -0.0], *windows, self.GRID,
                            np.linspace(-1000.0, 1000.0, 2001)])
        for arr in (x, -x, x[:len(x) // 2 * 2].reshape(2, -1), np.array(1.5)):
            got = bounds.gaussian_tail(arr)
            want = np.array([bounds.gaussian_tail(v) for v in arr.ravel().tolist()])
            assert got.shape == arr.shape and got.dtype == np.float64
            assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))
        assert all(type(bounds.gaussian_tail(v)) is float for v in (1.5, np.float64(1.5)))

    def test_edges(self):
        # erfc at z = -inf, -40, 0, 27.5, 40, inf is 2, 2, 1, 0, 0, 0
        z = np.array([-np.inf, -40.0, 0.0, 27.5, 40.0, np.inf])
        np.testing.assert_array_equal(bounds.gaussian_tail(z * math.sqrt(2.0)),
                                      [1.0, 1.0, 0.5, 0.0, 0.0, 0.0])
        assert np.isnan(bounds.gaussian_tail(np.array([np.nan]))[0])
        assert math.isnan(bounds.gaussian_tail(math.nan))
        # Phi at +-0, -40 and 40
        np.testing.assert_array_equal(bounds.gaussian_tail(-np.array([0.0, -0.0, -40.0, 40.0])),
                                      [0.5, 0.5, 0.0, 1.0])


class TestKsFromCdf:
    """_ks_from_cdf against a dense scan of sup |F - Phi|, on the laws the
    removed merging reader was checked on."""

    def dense_scan(self, values, probs):
        values = np.asarray(values)
        order = np.argsort(values)
        v, p = values[order], np.asarray(probs)[order]
        ts = np.unique(
            np.concatenate([v, v - 1e-9, v + 1e-9, np.linspace(v[0] - 1, v[-1] + 1, 4001)])
        )
        cdf = np.array([float(p[v <= t].sum()) for t in ts])
        phi = np.array([1.0 - bounds.gaussian_tail(t) for t in ts])
        return float(np.max(np.abs(cdf - phi)))

    def test_against_dense_scan_small_binomial(self):
        for n, prob in ((3, 0.5), (6, 0.3), (10, 0.7)):
            k = np.arange(n + 1)
            mean, sd = n * prob, math.sqrt(n * prob * (1 - prob))
            values = (k - mean) / sd
            probs = binom.pmf(k, n, prob)
            assert montecarlo._ks_from_cdf(values, np.cumsum(probs)) == pytest.approx(
                self.dense_scan(values, probs), abs=1e-9
            )

    @given(st.integers(2, 12), st.floats(0.2, 0.8))
    @settings(max_examples=50, deadline=None)
    def test_against_dense_scan_property(self, n, prob):
        k = np.arange(n + 1)
        mean, sd = n * prob, math.sqrt(n * prob * (1 - prob))
        values = (k - mean) / sd
        probs = binom.pmf(k, n, prob)
        assert montecarlo._ks_from_cdf(values, np.cumsum(probs)) == pytest.approx(
            self.dense_scan(values, probs), abs=1e-9
        )

    def test_split_duplicate_atoms(self):
        # each atom's mass split over a run of equal atoms: every partial cdf
        # in a run lies between F(a-) and F(a), so the KS is the merged law's
        assert montecarlo._ks_from_cdf(
            np.array([0.0, 0.0, 1.0]), np.cumsum([0.25, 0.25, 0.5])
        ) == montecarlo._ks_from_cdf(np.array([0.0, 1.0]), np.cumsum([0.5, 0.5]))
        rng = np.random.default_rng(17)
        for n, prob in ((6, 0.3), (40, 0.5)):
            k = np.arange(n + 1)
            values = (k - n * prob) / math.sqrt(n * prob * (1 - prob))
            probs = binom.pmf(k, n, prob)
            runs = rng.integers(1, 4, size=n + 1)
            pieces = np.concatenate([rng.dirichlet(np.ones(r)) * p for r, p in zip(runs, probs)])
            merged = montecarlo._ks_from_cdf(values, np.cumsum(probs))
            split = montecarlo._ks_from_cdf(np.repeat(values, runs), np.cumsum(pieces))
            assert split == pytest.approx(merged, rel=1e-14, abs=1e-15)


class TestRateCurves:
    def test_single_step_frozen(self):
        (row,) = clt_rate_curve(rademacher_spec, [1])
        phi1 = 1.0 - bounds.gaussian_tail(1.0)
        assert row.ks_distance == pytest.approx(phi1 - 0.5, abs=1e-12)  # ~0.341345
        assert row.fitted_c == row.ks_distance / row.bound_value

    def test_gaussian_exact_normality(self):
        rows = clt_rate_curve(gaussian_spec, [10, 100])
        assert all(r.ks_distance == 0.0 for r in rows)

    def test_rows_follow_certificate(self):
        for row in clt_rate_curve(rademacher_spec, [100, 1000]):
            cert = conditions.certify(rademacher_spec(row.n))
            assert row.epsilon == cert.epsilon and row.delta == cert.delta
            assert row.bound_value == bounds.conjugate_rate_bound(0.0, row.epsilon, row.delta)

    def test_conjugate_zero_tilt_bit_identical(self):
        ns = [100, 1000]
        assert conjugate_clt_check(rademacher_spec, 0.0, ns) == clt_rate_curve(
            rademacher_spec, ns
        )

    def test_conjugate_rejects_negative_or_nonfinite_tilt(self):
        # the lam*eps budget term needs lam >= 0; a negative tilt gave a
        # negative bound_value and fitted_c
        for lam in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                conjugate_clt_check(rademacher_spec, lam, [100])

    def test_conjugate_tilted_lattice(self):
        # tilted rademacher is a biased-coin walk recentred by the drift
        (row,) = conjugate_clt_check(rademacher_spec, 1.0, [400])
        assert 0.0 < row.ks_distance < 0.1
        assert row.bound_value == pytest.approx(
            1.0 * row.epsilon + row.epsilon * abs(math.log(row.epsilon)), rel=1e-12
        )

    def test_conjugate_three_point_against_bruteforce(self):
        table = IncrementDistribution.finite_table(
            [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]
        )

        def family(n):
            return MartingaleSpec.iid(table, n=n, normalized=True)

        lam = 0.8
        spec = family(5)
        step = spec.iid_parts()[0][0]
        t_values, t_probs = tilting.tilted_table(step, lam)
        shift = tilting.drift_process(spec, lam)
        atoms, weights = {}, {}
        for combo in itertools.product(range(3), repeat=5):
            s = sum(t_values[i] for i in combo) - shift
            p = math.prod(t_probs[i] for i in combo)
            weights[round(s, 12)] = weights.get(round(s, 12), 0.0) + p
        values = sorted(weights)
        probs = [weights[v] for v in values]
        # independent dense scan of sup |F - Phi|
        cdf = np.cumsum(probs)
        ts = np.concatenate([np.array(values) - 1e-9, values])
        sup = 0.0
        for t in np.sort(ts):
            f = float(cdf[np.searchsorted(values, t, side="right") - 1]) if t >= values[0] else 0.0
            sup = max(sup, abs(f - (1.0 - bounds.gaussian_tail(float(t)))))
        (row,) = conjugate_clt_check(family, lam, [5])
        assert row.ks_distance == pytest.approx(sup, abs=1e-9)


def parts_bruteforce_ks(spec, lam):
    """KS of X_n - B_n(lam) under the lam-tilted law, from every draw of each
    part: tilted tables and drift by hand, atoms equal to 12 decimals merged,
    and sup |F - Phi| read at each merged atom and just left of it."""
    tables, shift = [], 0.0
    for d, count in spec.iid_parts():
        values, probs = np.array(d.values), np.array(d.probs) * np.exp(lam * np.array(d.values))
        probs /= probs.sum()
        tables += [(values, probs)] * count
        shift += count * float(np.dot(values, probs))
    merged = {}
    for combo in itertools.product(*(range(len(v)) for v, _ in tables)):
        s = sum(v[i] for (v, _), i in zip(tables, combo)) - shift
        p = math.prod(q[i] for (_, q), i in zip(tables, combo))
        atom = merged.setdefault(round(s, 12), [s, 0.0])
        atom[1] += p
    sup, cdf = 0.0, 0.0
    for key in sorted(merged):
        s, p = merged[key]
        phi = 1.0 - bounds.gaussian_tail(s)
        sup = max(sup, abs(cdf - phi), abs(cdf + p - phi))
        cdf += p
    return sup


class TestTwoPartKs:
    """The KS of a variance-switching spec reads the two parts' tilted laws
    folded into the sorted law of X_n."""

    def test_against_bruteforce(self):
        # rho = 0.6 puts the high branch at twice the low one, so sums of the
        # two parts tie; rho = 0.5 (ratio sqrt 3) has no ties across parts
        for base, n, rho, lam in itertools.product(
                (RADEMACHER, THREE_POINT), (4, 6), (0.5, 0.6), (0.0, 0.7)):
            spec = MartingaleSpec.variance_switching(base, n=n, rho=rho)
            got = montecarlo._recentred_lattice_ks(spec, lam)
            assert got == pytest.approx(parts_bruteforce_ks(spec, lam), abs=1e-13), (n, rho, lam)

    def test_rho_zero_is_the_iid_law(self):
        # at rho = 0 both parts are the iid step: the folded law is the
        # binomial law the iid two-point KS reads, up to 1024^2 cells at
        # n = 2046
        for n, lam in itertools.product((2, 10, 100, 700, 2046), (0.0, 0.5, 2.0)):
            spec = MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=0.0)
            want = montecarlo._recentred_lattice_ks(rademacher_spec(n), lam)
            assert montecarlo._recentred_lattice_ks(spec, lam) == pytest.approx(
                want, rel=1e-12), (n, lam)

    def test_rate_rows(self):
        def family(n):
            return MartingaleSpec.variance_switching(THREE_POINT, n=n, rho=0.5)

        rows = conjugate_clt_check(family, 0.7, [4, 6])
        for row in rows:
            cert = conditions.certify(family(row.n))
            assert (row.epsilon, row.delta) == (cert.epsilon, cert.delta)
            assert row.ks_distance == pytest.approx(
                parts_bruteforce_ks(family(row.n), 0.7), abs=1e-13)
        assert clt_rate_curve(family, [4, 6]) == conjugate_clt_check(family, 0.0, [4, 6])

    def test_too_large_before_any_law(self, monkeypatch):
        # at n = 8192 each part's binomial table spans 2688 atoms, and the
        # 2688^2 cells are priced at 441 MiB, past the byte budget: refused
        # from the atom counts alone, before either part's law is built
        def family(n):
            return MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=0.5)

        assert [montecarlo._part_route(d, c)[0] for d, c in family(8192).iid_parts()] == [2688] * 2
        assert 2688**2 * montecarlo._BYTES > BYTE_BUDGET
        monkeypatch.setattr(montecarlo, "_part_law", None)
        for lam in (0.0, 0.5):
            with pytest.raises(DomainError, match="too-large"):
                conjugate_clt_check(family, lam, [8192])


def two_point_spec(p, n):
    """n normalized iid steps of the two-point law with mass p on its upper atom."""
    table = IncrementDistribution.finite_table([(0.0, 1.0 - p), (1.0, p)])
    return MartingaleSpec.iid(table, n=n, normalized=True)


def full_range_ks(spec, lam):
    """(KS, F): the two-point KS over all n + 1 atoms, max |F - Phi| at each
    atom and just left of it, written out independently of the library's
    reader with the library's Phi and F = binom.cdf, and that F."""
    ((d, n),) = spec.iid_parts()
    values, probs = tilting.tilted_table(d, lam)
    k = np.arange(n + 1)
    atoms = n * values[0] + k * (values[1] - values[0]) - tilting.drift_process(spec, lam)
    cdf = montecarlo.binom.cdf(k, n, probs[1])
    left = np.concatenate([[0.0], cdf[:-1]])
    phi = bounds.gaussian_tail(-atoms)
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi)))), cdf


def reader_cdf(spec, lam):
    """The running sum of _part_law's binomial table over all n + 1 atoms:
    0 below its span and its last value above it."""
    ((d, n),) = spec.iid_parts()
    values, _ = tilting.tilted_table(d, lam)
    law = montecarlo._part_law(d, n, lam)
    lo = round((law.atoms[0] - n * values[0]) / (values[1] - values[0]))
    cdf = np.cumsum(law.pmf)
    return np.concatenate([np.zeros(lo), cdf, np.full(n + 1 - lo - len(cdf), cdf[-1])])


KS_TRIM = 2.0**-50  # the reader skips atoms with F below it or within it of F's total


class TestTwoPointKs:
    """An iid two-point law's KS reads _part_law's binomial table like any
    other one-part law: one table per row, its atoms trimmed where F is
    within KS_TRIM of 0 or of its total."""

    PS = (0.5, 0.05, 0.95) + tuple(np.random.default_rng(2026).uniform(0.0, 1.0, 2))
    NS = (1, 2, 10, 100, 4096, 100_000, 1_000_000)
    LAMS = (0.0, 0.5, 1.0, 3.0, 50.0)

    def test_equals_full_range(self):
        # |sup_reader - sup_full| is at most the trim's KS_TRIM (F and Phi
        # are monotone, so a skipped term is within KS_TRIM of the edge
        # term kept) plus the largest gap between the two F's (the sup is
        # 1-Lipschitz in F, and both read the same atoms and Phi).  That gap
        # is the rounding of two sums over the same table, which must stay
        # at a few ulps of 1 so that it cannot hide a wrong F; it reaches
        # 7.8e-15 here, above the mode at n = 1e6, and the distances differ
        # by at most 1.2e-15.  The wide unnormalized laws (sd 1000 and
        # 30000) have most atoms trimmed on both sides.
        cases = [(two_point_spec(p, n), lam)
                 for p, n, lam in itertools.product(self.PS, self.NS, self.LAMS)]
        cases += [(MartingaleSpec.iid(IncrementDistribution.scaled_rademacher(scale),
                                      n=1_000_000), lam)
                  for scale, lam in itertools.product((1.0, 30.0), (0.0, 0.5))]
        for spec, lam in cases:
            want, cdf = full_range_ks(spec, lam)
            gap = float(np.max(np.abs(reader_cdf(spec, lam) - cdf)))
            assert gap <= 64 * EPS, (spec.n, lam)
            got = montecarlo._recentred_lattice_ks(spec, lam)
            assert abs(got - want) <= KS_TRIM + gap, (spec.n, lam)

    def test_narrow_law_at_lambda_50(self):
        # at lam = 50 the tilted law puts 0.99995 on the upper step, so the
        # upper count has sd 0.067 and the supremum 0.4996 is 1 - Phi at the
        # top atom.  The atom below the top two has F = 1.2e-5 but Phi = 0.34:
        # a trim that needs Phi small where F is small (the old 12-sd
        # window's certificate failed here) cannot hold, and the reader's
        # trim leans on F and monotonicity alone
        spec = rademacher_spec(100)
        ((d, n),) = spec.iid_parts()
        values, _ = tilting.tilted_table(d, 50.0)
        below = n * values[0] + 98 * (values[1] - values[0]) - tilting.drift_process(spec, 50.0)
        assert bounds.gaussian_tail(-below) == pytest.approx(0.34, abs=0.01)
        ks = montecarlo._recentred_lattice_ks(spec, 50.0)
        assert ks == pytest.approx(0.4996377774644585, abs=1e-15)
        want, cdf = full_range_ks(spec, 50.0)
        assert abs(ks - want) <= KS_TRIM + float(np.max(np.abs(reader_cdf(spec, 50.0) - cdf)))

    def test_one_binomial_build_per_row(self, monkeypatch):
        # each row builds its binomial table once and reads F from it; the
        # scipy-shaped montecarlo.binom is not read at all
        built = []
        real = montecarlo._Binomial
        monkeypatch.setattr(montecarlo, "_Binomial", lambda *a: built.append(a) or real(*a))
        monkeypatch.setattr(montecarlo, "binom", None)
        rows = conjugate_clt_check(rademacher_spec, 0.0, [100, 1_000_000])
        rows += conjugate_clt_check(lambda n: two_point_spec(0.05, n), 3.0, [4096])
        assert [args[0] for args in built] == [100, 1_000_000, 4096]
        assert rows[1].ks_distance * 1000 == pytest.approx(1 / math.sqrt(math.tau), rel=1e-6)

    def test_reach(self):
        # the KS of 2e7 Rademacher steps reads a table of some 180,000
        # atoms: ks * sqrt(n) is about 1/sqrt(2 pi), half the central atom's
        # mass; at n = 1e12 the table is priced past the byte budget and refused
        (row,) = conjugate_clt_check(rademacher_spec, 0.0, [20_000_000])
        assert row.ks_distance * math.sqrt(20_000_000) == pytest.approx(
            1 / math.sqrt(math.tau), rel=1e-7)
        with pytest.raises(DomainError, match="too-large"):
            conjugate_clt_check(rademacher_spec, 0.0, [10**12])


class TestRatioExperiment:
    def test_exact_rows_share_one_law(self, monkeypatch):
        # an exact ratio_experiment builds each part's law once and reads
        # every row from it, the same numbers exact_tail gives row by row
        grid = np.linspace(0.0, 3.0, 11)
        cases = ((rademacher_spec(400), ["_part_law", "_Binomial"]),
                 (three_point_spec(400), ["_part_law"]),
                 (MartingaleSpec.variance_switching(THREE_POINT, n=40, rho=0.5),
                  ["_part_law", "_part_law"]))
        for spec, laws in cases:
            want = [exact_tail(spec, x).p_hat for x in grid]
            built = []
            with monkeypatch.context() as m:
                for name in ("_part_law", "_Binomial"):
                    real = getattr(montecarlo, name)
                    m.setattr(montecarlo, name,
                              lambda *a, real=real, name=name: built.append(name) or real(*a))
                rows = ratio_experiment(spec, grid).rows
            assert built == laws
            assert [row.p_hat for row in rows] == want

    def test_gaussian_exactness(self):
        result = ratio_experiment(gaussian_spec(100), np.arange(0.0, 5.01, 0.5))
        for row in result.rows:
            assert row.ratio == 1.0
            assert row.within_envelope_at_fitted_c
        assert result.fitted_c_star == 0.0

    def test_lattice_rows_feasibility(self):
        result = ratio_experiment(rademacher_spec(16), [0.0, 1.0, 3.0, 5.0])
        feas = [r.feasible for r in result.rows]
        assert feas == [True, True, True, False]  # x=5 beyond sqrt(16)=4
        assert result.fitted_c_star > 0.0
        x0 = result.rows[0]
        assert x0.ratio < 1.0  # point mass at 0 under symmetry
        assert math.isnan(result.rows[3].log_ratio)

    def test_envelope_columns_match_bounds(self):
        result = ratio_experiment(rademacher_spec(100), [1.0])
        row = result.rows[0]
        cert = result.certificate
        assert row.theorem1_upper == bounds.theorem1_upper(1.0, cert.epsilon, cert.delta)
        assert row.theorem2_lower == bounds.theorem2_lower(1.0, cert.epsilon, cert.delta)

    def test_negative_threshold_rejected(self, monkeypatch):
        # the envelopes are stated for x >= 0, so no row is estimated first:
        # the one grid entry, _tail_rows, is not called
        def no_estimate(*args):
            raise AssertionError("a row was estimated")
        monkeypatch.setattr(montecarlo, "_tail_rows", no_estimate)
        for spec in (rademacher_spec(100), gaussian_spec(100)):
            for method in ("exact", "crude", "tilted"):
                with pytest.raises(DomainError, match="x >= 0"):
                    ratio_experiment(spec, [0.0, 1.0, -0.5], method, 1000, 1)

    def test_tilted_estimator_rows(self):
        spec = rademacher_spec(36)
        result = ratio_experiment(spec, [0.0, 1.0, 2.0], method="tilted",
                                  samples=40_000, seed=77)
        for row in result.rows:
            exact = exact_tail(spec, row.x).p_hat
            tol = 3.5 * row.std_err if row.std_err > 0 else 1e-12
            assert abs(row.p_hat - exact) <= tol
        assert result.rows[0].std_err > 0.0


def counted_builds(monkeypatch, record):
    """Patch _part_law and _Binomial to append (name, args) to record."""
    for name in ("_part_law", "_Binomial"):
        real = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name,
                            lambda *a, real=real, name=name: record.append((name, a)) or real(*a))


def exact_sum_law(d, probs, count):
    """{offset: mass}: the law of count iid draws from d's lattice table with
    the given float probs, read as exact rationals and convolved as
    Fractions; offset i is the atom count * v_0 + i g."""
    law = {0: Fraction(1)}
    for _ in range(count):
        step = {}
        for i, q in law.items():
            for k, p in zip(d.lattice[1].tolist(), probs):
                step[i + k] = step.get(i + k, 0) + q * Fraction(p)
        law = step
    return law


def law_offsets(d, count, law):
    """{offset: pmf} of a _Law of count draws from d's lattice table."""
    offsets = np.rint((law.atoms - count * d.values[0]) / d.lattice[0]).astype(int)
    return dict(zip(offsets.tolist(), map(Fraction, law.pmf.tolist())))


class TestThresholdGrid:
    """A sampled threshold grid is one batch: one tilt solve, one
    _weighted_tail call, each part's law built once and re-tilted."""

    SPECS = (rademacher_spec(400), three_point_spec(400),
             MartingaleSpec.variance_switching(RADEMACHER, n=200, rho=0.5),
             MartingaleSpec.variance_switching(THREE_POINT, n=200, rho=0.5))

    def test_grid_rows_match_one_row(self, monkeypatch):
        # every row's tilt has the bits of its own solve, and every row whose
        # laws were built (the first, and any rebuild) has the bits of
        # estimate_tail at its x and seed; the ratio table reads these rows
        grid = [0.25 * k for k in range(1, 17)]
        for spec in self.SPECS:
            for method in ("crude", "tilted"):
                builds = []
                with monkeypatch.context() as m:
                    counted_builds(m, builds)
                    rows = montecarlo._tail_rows(spec, grid, method, "saddlepoint", 10_000, 7)
                    ratio = ratio_experiment(spec, grid, method, 10_000, 7)
                built = {a[2] for name, a in builds if name == "_part_law"}
                assert [r.p_hat for r in ratio.rows] == [r.p_hat for r in rows]
                for row in rows:
                    want = saddlepoint_lambda(spec, row.x) if method == "tilted" else 0.0
                    assert row.lambda_used == want, (spec, method, row.x)
                    if row.lambda_used in built:
                        one = estimate_tail(spec, row.x, method, "saddlepoint", 10_000, 7)
                        assert row == one, (spec, method, row.x)
                assert rows[0].lambda_used in built

    def test_per_draw_grid_rows_match_one_row(self, monkeypatch):
        # drawn one by one, every row of a grid reads the seed's own block
        # streams, so each row of a crude and of a tilted grid has the bits
        # of the one-row estimate at its x and seed: a gaussian spec (no
        # parts to tabulate) and three-point varswitch n = 60 with draws
        # priced at nothing, as in TestTilted.test_per_draw_route_agrees
        def no_histogram(*args):
            raise AssertionError("a histogram was drawn")
        monkeypatch.setattr(montecarlo, "_histogram_sums", no_histogram)
        monkeypatch.setattr(montecarlo, "_DRAW_S", 0.0)
        grid = [0.25 * k for k in range(1, 13)]
        for spec in (gaussian_spec(100),
                     MartingaleSpec.variance_switching(THREE_POINT, n=60, rho=0.5)):
            for method in ("crude", "tilted"):
                rows = montecarlo._tail_rows(spec, grid, method, "saddlepoint", 10_000, 7)
                assert [row.x for row in rows] == grid
                for row in rows:
                    one = estimate_tail(spec, row.x, method, "saddlepoint", 10_000, 7)
                    assert row == one, (spec, method, row.x)

    def test_build_counts(self, monkeypatch):
        # the benchmark's grid builds its binomial table once, at the first
        # row's tilt; a crude grid builds once per part.  Rademacher n = 400
        # up to 19.5 (its top atoms' midpoint is 19.95) builds once too: at
        # the first row's tilt every one of its 401 atoms is a normal double,
        # so the missed-mass bound stays near e^-440.  At n = 1600 the first
        # row's table leaves out the atoms above about 36, which the rows
        # from about x = 27 on need: that grid rebuilds
        def builds_of(spec, grid, method):
            builds = []
            with monkeypatch.context() as m:
                counted_builds(m, builds)
                ratio_experiment(spec, grid, method, 20_000, 3)
            return [name for name, _ in builds]

        half = [0.5 * k for k in range(1, 41)]
        assert builds_of(rademacher_spec(1600), half, "tilted") == ["_part_law", "_Binomial"]
        assert builds_of(rademacher_spec(1600), half, "crude") == ["_part_law", "_Binomial"]
        assert builds_of(self.SPECS[3], half[:8], "crude") == ["_part_law", "_part_law"]
        assert builds_of(rademacher_spec(400), half[:39], "tilted") == ["_part_law", "_Binomial"]
        assert builds_of(rademacher_spec(1600), [0.5 * k for k in range(1, 80)], "tilted") == \
            ["_part_law", "_Binomial"] * 2

    def test_retilt_within_tau(self):
        # against the exact law of the tilted step table at the row's tilt
        # (Fractions), a re-tilted law is within _TAU in L1 plus the relative
        # rounding both forms share: about 2 ulps a draw, and 2^-53 |delta a|
        # for the re-tilt's exponent.  Its expected estimate,
        # sum_{a > x} pmf(a) e^(Psi_n - lam a), is then within L1 e^(Psi_n - lam c)
        # of the exact tail, c the least atom above x, plus its weights' rounding.
        # The three-point law at n = 20 tilted to 300 holds its lowest atoms
        # as zeros and subnormals: re-tilted up, the bound passes and the
        # L1 holds; re-tilted down to 1, the bound refuses it, to be rebuilt.
        # (Two-point tables are kept where 1 - p is good to ulps: far out, p
        # rounds towards 1 and a built and a re-tilted table share that loss)
        cases = [(rademacher_spec(24), 0.3, (0.8, 2.0, 6.0)),
                 (three_point_spec(20), 0.5, (0.1, 1.5, 4.0)),
                 (three_point_spec(20), 300.0, (320.0,)),
                 (MartingaleSpec.variance_switching(THREE_POINT, n=16, rho=0.5), 0.4, (1.0, 3.0))]
        for spec, lam_b, lams in cases:
            parts = spec.iid_parts()
            base = [montecarlo._part_law(d, count, lam_b) for d, count in parts]
            for lam in lams:
                laws = montecarlo._retilted(parts, base, lam - lam_b)
                for (d, count), law in zip(parts, laws):
                    want = exact_sum_law(d, tilting.tilted_table(d, lam)[1], count)
                    got = law_offsets(d, count, law)
                    l1 = sum(abs(got.get(i, 0) - q) for i, q in want.items())
                    reach = abs(lam - lam_b) * count * max(-d.values[0], d.values[-1])
                    assert l1 <= montecarlo._TAU + (2 * count + reach + 4) * EPS, (spec, lam)
                if len(parts) > 1:
                    continue
                (d, count), (law,) = parts[0], laws
                psi = tilting.cumulant_process(spec, lam)
                untilted = exact_sum_law(d, d.probs, count)
                for x in (0.0, 1.0, 2.5):
                    hit = (law.atoms > x) & (law.pmf > 0.0)  # in logs: a weight alone may overflow
                    expected = math.fsum(np.exp(np.log(law.pmf[hit]) + psi - lam * law.atoms[hit]))
                    above = [(a, q) for a, q in ((count * d.values[0] + i * d.lattice[0], q)
                                                 for i, q in untilted.items()) if a > x]
                    tail = float(sum(q for _, q in above))
                    # log of L1 e^(Psi_n - lam c): past 700 the bound says nothing
                    log_bias = math.log(l1) + psi - lam * min(a for a, _ in above)
                    assert log_bias > 700 or abs(expected - tail) <= \
                        math.exp(log_bias) + 1e-12 * tail, (spec, lam, x)
        spec = three_point_spec(20)
        base = [montecarlo._part_law(*spec.iid_parts()[0], 300.0)]
        assert np.count_nonzero(base[0].pmf < 2.0**-1022) >= 20
        assert montecarlo._retilted(spec.iid_parts(), base, 1.0 - 300.0) is None


class TestMdp:
    def test_gaussian_closed_form(self):
        # every gaussian spec, variance switching too, is exactly N(0, 1)
        for family in (gaussian_spec, gaussian_varswitch_spec):
            rows = mdp_diagnostic(family, 0.25, 1.0, [10_000],
                                  samples=0, seed=0)
            row = rows[0]
            assert row.a_n == 10.0
            assert row.value == pytest.approx(
                math.log(bounds.gaussian_tail(10.0)) / 100.0, rel=1e-12)
            assert row.value == pytest.approx(-0.5323, abs=1e-4)
            assert row.p_exact == row.p_hat

    def test_rademacher_cross_check(self):
        # binomial closed form for Rademacher, the lattice table for three points
        for family, n in ((rademacher_spec, 4096), (three_point_spec, 1024)):
            rows = mdp_diagnostic(family, 0.25, 1.0, [n],
                                  samples=100_000, seed=6)
            row = rows[0]
            assert row.feasible
            assert abs(row.p_hat - row.p_exact) <= 3.5 * row.std_err
            assert row.target == -0.5

    def test_p_exact_nan_past_enum_limit(self):
        # {-1, 0, sqrt 2} lies on no lattice, and at n = 4096 its C(4098, 2)
        # count vectors are priced past the byte budget: no exact value, but
        # the tilted row is still reported (drawn one by one).  The
        # three-point lattice law at the same n is exact (12289 atoms).
        assert montecarlo._part_route(IRRATIONAL, 4096)[3] > BYTE_BUDGET
        irrational = lambda n: MartingaleSpec.iid(IRRATIONAL, n=n, normalized=True)  # noqa: E731
        for family, exact in ((irrational, False), (three_point_spec, True)):
            (row,) = mdp_diagnostic(family, 0.25, 1.0, [4096],
                                    samples=1_000, seed=6)
            assert row.feasible and math.isnan(row.p_exact) != exact
        assert row.p_exact == exact_tail(three_point_spec(4096), 4096**0.25).p_hat

    def test_nan_threshold_rejected(self):
        # a nan threshold has no exact value and no estimate: the gaussian
        # row, read through the exact route, once came back as None
        for family in (gaussian_spec, rademacher_spec):
            with pytest.raises(DomainError, match="nan"):
                mdp_diagnostic(family, 0.25, math.nan, [100], samples=1000, seed=1)

    def test_bad_speed_refused_before_any_work(self, monkeypatch):
        # a_n = n**a_exponent is checked at every n before the first row is
        # certified or estimated: one whose square is no positive double
        # (overflow, underflow, nan) raises DomainError; 1e308 and -400 once
        # died in the pow or in the division by a_n^2
        def no_work(*args, **kwargs):
            raise AssertionError("work was done before the speed was checked")
        for name in ("_tail_rows", "exact_tail"):
            monkeypatch.setattr(montecarlo, name, no_work)
        monkeypatch.setattr(conditions, "certify", no_work)
        for gamma, n_list in ((1e308, [100]), (-400.0, [100]), (math.nan, [100]),
                              (60.0, [100, 10**6]), (-60.0, [100, 10**6])):
            with pytest.raises(DomainError, match="speed"):
                mdp_diagnostic(rademacher_spec, gamma, 1.0, n_list, samples=1000, seed=1)

    def test_infeasible_row_reported(self):
        rows = mdp_diagnostic(rademacher_spec, 0.25, 1.0, [4096],
                              samples=200, seed=1, lam_policy=0.0)
        row = rows[0]
        assert not row.feasible and math.isnan(row.value)


class TestFitConstant:
    """ratio_experiment's c*: the largest |log ratio| / budget over the
    feasible rows, 0 where no row is feasible.  Every budget is > 0, since
    epsilon is in (0, 1/2]."""

    def test_all_zero(self):
        # no atom lies above 4 = the top of X_16: no row is feasible
        result = ratio_experiment(rademacher_spec(16), [4.0, 5.0], "exact")
        assert result.fitted_c_star == 0.0
        assert not any(r.feasible or r.within_envelope_at_fitted_c for r in result.rows)

    def test_single_row(self):
        spec = rademacher_spec(100)
        cert = conditions.certify(spec)
        for grid in ([1.5], [0.5, 1.5, 2.5, 12.0]):
            result = ratio_experiment(spec, grid, "exact")
            fits = [abs(r.log_ratio) / bounds.ratio_bound_expression(r.x, cert.epsilon,
                                                                     cert.delta)
                    for r in result.rows if r.feasible]
            assert fits and result.fitted_c_star == max(fits) > 0.0, grid
            assert all(r.within_envelope_at_fitted_c for r in result.rows if r.feasible)


class TestValidation:
    def test_bad_sample_count(self):
        with pytest.raises(ConfigError):
            crude_tail_estimate(rademacher_spec(4), 0.0, 0, seed=1)
        with pytest.raises(ConfigError):
            tilted_tail_estimate(rademacher_spec(4), 0.0, 0.5, 99, seed=1)

    def test_rows_past_the_top_read_zero_through_the_cut(self, monkeypatch):
        # a tilted row at or past the top of the support is sampled as any
        # other by every entry alike (tail, the ratio table and the public
        # estimator share one path): _cut puts no atom above it, so it reads
        # p_hat = 0 and std_err = 0 from all N samples, on both routes, at
        # the tilt the policy gives it.  It asks for 100 samples like any row
        spec = rademacher_spec(16)  # the top of the support is 4
        mid = saddlepoint_lambda(spec, 3.75)
        paper = montecarlo.resolve_tilt(spec, [4.0, 5.0], "paper")
        for draw_s in (montecarlo._DRAW_S, 0.0):  # the histogram route, then per draw
            monkeypatch.setattr(montecarlo, "_DRAW_S", draw_s)
            rows = [(estimate_tail(spec, 4.0, "tilted", "saddlepoint", 1000, 1), mid),
                    (tilted_tail_estimate(spec, 5.0, 0.5, 1000, seed=1), 0.5),
                    *zip(montecarlo._tail_rows(spec, [4.0, 5.0], "tilted", "paper", 1000, 1),
                         paper)]
            for row, lam in rows:
                assert (row.p_hat, row.std_err, row.n_samples, row.lambda_used) == \
                    (0.0, 0.0, 1000, lam), (draw_s, row)
            ratio = ratio_experiment(spec, [4.0, 5.0], "tilted", 1000, 1)
            assert [(r.p_hat, r.std_err) for r in ratio.rows] == [(0.0, 0.0)] * 2
        with pytest.raises(DomainError, match="finite and >= 0"):
            tilted_tail_estimate(spec, 5.0, -0.5, 1000, seed=1)
        for call in (lambda: estimate_tail(spec, 4.0, "tilted", "saddlepoint", 50, 1),
                     lambda: tilted_tail_estimate(spec, 5.0, 0.5, 99, seed=1),
                     lambda: montecarlo._tail_rows(spec, [4.0, 5.0], "tilted", "paper", 0, 1),
                     lambda: ratio_experiment(spec, [1.0, 5.0], "tilted", 50, 1),
                     lambda: ratio_experiment(spec, [5.0], "crude", 50, 1)):
            with pytest.raises(ConfigError, match="samples"):
                call()

    def test_top_of_the_support_reads_as_exact_does(self, monkeypatch):
        # x = _drift_supremum, the sum of count * v_last in floats, can lie
        # below the float top atom, the sum over the parts of base + offset g:
        # only _cut tells whether an atom lies above x.  Over five tables,
        # iid (normalized or not) and varswitch at rho = 0.5, n = 2..100, a
        # saddlepoint-tilted row at that x is > 0 where exact_tail is, within
        # 5 se of it, and exactly 0 where it is 0, on both routes
        tables = (RADEMACHER, THREE_POINT, IRRATIONAL,
                  IncrementDistribution.finite_table([(-0.7, 0.3), (0.3, 0.7)]),
                  IncrementDistribution.finite_table(
                      [(-2.0, 0.1), (-1.0, 0.2), (0.0, 0.4), (1.0, 0.2), (2.0, 0.1)]))
        specs = [spec for d in tables for n in range(2, 101)
                 for spec in (MartingaleSpec.iid(d, n=n, normalized=True),
                              MartingaleSpec.iid(d, n=n),
                              *([MartingaleSpec.variance_switching(d, n=n, rho=0.5)]
                                if n % 2 == 0 else []))]
        assert len(specs) == 1240
        reached, empty = [], []
        for spec in specs:
            x = montecarlo._drift_supremum(spec)
            p = exact_tail(spec, x).p_hat
            (reached if p > 0.0 else empty).append((spec, x, p))
        assert len(reached) == 138
        for spec, x, p in reached:
            est = estimate_tail(spec, x, "tilted", "saddlepoint", 4000, 1)
            assert est.p_hat > 0.0 and abs(est.p_hat - p) <= 5.0 * est.std_err, (spec, x, p, est)
        for draw_s in (montecarlo._DRAW_S, 0.0):  # the histogram route, then per draw
            monkeypatch.setattr(montecarlo, "_DRAW_S", draw_s)
            for spec, x, _ in empty[::10]:
                est = estimate_tail(spec, x, "tilted", "saddlepoint", 4000, 1)
                assert (est.p_hat, est.std_err) == (0.0, 0.0), (draw_s, spec, x, est)

    def test_unknown_method_rejected(self, monkeypatch):
        # a method outside TAIL_METHODS is refused by every entry, and by
        # estimate_tail before any law is built, tilt solved or draw made
        def no_work(*args, **kwargs):
            raise AssertionError("work was done for an unknown method")
        unknown = ("auto", "exact_binomial", "Crude", "")
        for spec in (rademacher_spec(20), three_point_spec(20), gaussian_spec(20)):
            with monkeypatch.context() as m:
                for name in ("_part_law", "_Binomial", "resolve_tilt", "saddlepoint_lambda",
                             "_weighted_tail", "_histogram_sums", "_per_draw_sums"):
                    m.setattr(montecarlo, name, no_work)
                for method in unknown:
                    with pytest.raises(ConfigError, match="unknown method"):
                        estimate_tail(spec, 1.0, method, "saddlepoint", 1000, 1)
            for method in unknown:
                for call in (lambda: ratio_experiment(spec, [0.5, 1.0], method, 1000, 1),
                             lambda: montecarlo._tail_rows(spec, [0.5, 1.0], method,
                                                           "saddlepoint", 1000, 1)):
                    with pytest.raises(ConfigError, match="unknown method"):
                        call()

    def test_sample_cap(self):
        # 2^30 samples are 2^18 blocks; one more is refused before any work
        too_many = MAX_SAMPLES + 1
        assert MAX_SAMPLES == 2**30
        spec = rademacher_spec(20)
        for call in (lambda: crude_tail_estimate(spec, 1.0, too_many, seed=1),
                     lambda: tilted_tail_estimate(spec, 1.0, 0.5, too_many, seed=1),
                     lambda: estimate_tail(spec, 1.0, "tilted", "saddlepoint", too_many, 1),
                     lambda: ratio_experiment(spec, [1.0], "crude", too_many, 1),
                     lambda: mdp_diagnostic(rademacher_spec, 0.25, 1.0,
                                            [100], samples=too_many, seed=1)):
            with pytest.raises(ConfigError, match="samples"):
                call()

    def test_nan_threshold_rejected(self, monkeypatch):
        # no route has an answer for x = nan, so each call refuses it before
        # building a law, drawing a sample, solving a tilt or certifying
        def no_work(*args, **kwargs):
            raise AssertionError("work was done for a nan threshold")
        for name in ("_exact_rows", "_weighted_tail", "saddlepoint_lambda"):
            monkeypatch.setattr(montecarlo, name, no_work)
        monkeypatch.setattr(conditions, "certify", no_work)
        for spec in (rademacher_spec(10), three_point_spec(10), gaussian_spec(10)):
            with pytest.raises(DomainError, match="nan"):
                exact_tail(spec, math.nan)
            for method in TAIL_METHODS:
                calls = [lambda: estimate_tail(spec, math.nan, method, "saddlepoint", 1000, 1),
                         lambda: ratio_experiment(spec, [1.0, math.nan], method, 1000, 1)]
                for call in calls:
                    with pytest.raises(DomainError, match="nan"):
                        call()

    def test_nonfinite_tilt_rejected(self, monkeypatch):
        # lam = nan or inf is refused before any draw: nan had no atom index,
        # and inf overflowed the tilted table first (a RuntimeWarning, which
        # the test configuration makes an error)
        def no_draw(*args):
            raise AssertionError("a non-finite tilt was sampled")
        for name in ("_histogram_sums", "_per_draw_sums"):
            monkeypatch.setattr(montecarlo, name, no_draw)
        for lam in (math.nan, math.inf):
            for spec in (rademacher_spec(20), gaussian_spec(20)):
                with pytest.raises(DomainError, match="finite and >= 0"):
                    tilted_tail_estimate(spec, 1.0, lam, 1000, seed=1)

    def test_nan_threshold_rejected_by_the_solvers(self, monkeypatch):
        # each solver refuses x = nan before reading the drift: the
        # saddlepoint loop once ran its 400 steps, the closed forms gave nan
        def no_drift(*args):
            raise AssertionError("the drift was read at a nan threshold")
        for name in ("drift_process", "drift_and_slope"):
            monkeypatch.setattr(tilting, name, no_drift)
        for call in (lambda: saddlepoint_lambda(rademacher_spec(20), math.nan),
                     lambda: tilting.solve_lambda_bar(math.nan, 0.1, 0.0, 1.0),
                     lambda: tilting.solve_lambda_under(math.nan, 0.1, 0.0, 1.0)):
            with pytest.raises(DomainError, match="x must be >= 0"):
                call()

    def test_paper_policy_is_its_numeric_tilt(self):
        # a "paper" estimate is the estimate at the numeric lambda-bar of the
        # spec's own certificate, to the bit
        for spec, x in ((rademacher_spec(400), 2.0),
                        (MartingaleSpec.variance_switching(THREE_POINT, n=200, rho=0.5), 1.5)):
            cert = conditions.certify(spec)
            lam = tilting.solve_lambda_bar(x, cert.epsilon, cert.delta, bounds.C)
            paper = estimate_tail(spec, x, "tilted", "paper", 20_000, 3)
            assert paper == estimate_tail(spec, x, "tilted", lam, 20_000, 3)
            assert paper.lambda_used == lam > 0.0

    def test_tilt_policies(self):
        # a number is taken as given at every threshold and refused unless
        # finite and >= 0, "paper" is solve_lambda_bar at the epsilon and
        # delta of the spec's own certificate, and any other policy is refused
        for spec in (rademacher_spec(100),
                     MartingaleSpec.variance_switching(THREE_POINT, n=200, rho=0.5)):
            cert = conditions.certify(spec)
            assert montecarlo.resolve_tilt(spec, [1.0, 2.0], 0.25) == [0.25, 0.25]
            for lam in (-0.5, math.nan, math.inf):
                with pytest.raises(DomainError, match="finite and >= 0"):
                    montecarlo.resolve_tilt(spec, [], lam)
            assert montecarlo.resolve_tilt(spec, [1.0, 2.5], "paper") == [
                tilting.solve_lambda_bar(x, cert.epsilon, cert.delta, bounds.C) for x in (1.0, 2.5)]
        with pytest.raises(ConfigError, match="lambda policy"):
            montecarlo.resolve_tilt(spec, [1.0], "nosuch")

    def test_overflowing_tilt_rejected(self, monkeypatch):
        # a finite tilt whose Psi_n overflows made every weight exp(inf - inf)
        # and the estimate nan; it is refused before any draw, on either route
        def no_draw(*args):
            raise AssertionError("an overflowing tilt was sampled")
        for name in ("_histogram_sums", "_per_draw_sums"):
            monkeypatch.setattr(montecarlo, name, no_draw)
        for spec, lam in ((MartingaleSpec.iid(RADEMACHER, n=20), 1e308), (gaussian_spec(20), 1e200),
                          (MartingaleSpec.variance_switching(THREE_POINT, n=4000, rho=0.5), 1e308)):
            with pytest.raises(DomainError, match="overflows"):
                tilted_tail_estimate(spec, 2.0, lam, 1000, seed=1)

    def test_cancelling_tilt_rejected(self, monkeypatch):
        # past 2^32, |Psi_n| or |lam| max|X_n|, the weight's exponent
        # Psi_n - lam X_n cancels: on Rademacher n = 4 at x = 0.5 (P = 5/16)
        # lam = 1e300 read p_hat = 1.0 and lam = 1e15 0.0498.  Both are
        # refused before any draw; a gaussian spec reads |Psi_n| alone
        def no_draw(*args):
            raise AssertionError("a cancelling tilt was sampled")
        spec = MartingaleSpec.iid(RADEMACHER, n=4)
        for lam in (1e15, 1e300, 2.0**30):  # 4 * 2^30 = 2^32
            with monkeypatch.context() as m:
                for name in ("_histogram_sums", "_per_draw_sums"):
                    m.setattr(montecarlo, name, no_draw)
                with pytest.raises(DomainError, match="cancels"):
                    tilted_tail_estimate(spec, 0.5, lam, 1000, seed=1)
        # below it, the top atom's 1/16 is read to the exponent's 2^-53 2^31
        est = tilted_tail_estimate(spec, 0.5, 2.0**29, 1000, seed=1)
        assert abs(est.p_hat / 2.0**-4 - 1.0) <= 2.0**-20 and est.std_err == 0.0
        with pytest.raises(DomainError, match="cancels"):
            tilted_tail_estimate(gaussian_spec(20), 1.0, 2.0**16.5, 1000, seed=1)  # Psi = 2^32
        tilted_tail_estimate(gaussian_spec(20), 1.0, 2.0**16, 1000, seed=1)

    def test_saddlepoint_tilts_far_below_cancelling(self):
        # every saddlepoint tilt the benchmark's estimates and these tests'
        # sampled near-top cases solve keeps |Psi_n| and lam max|X_n| below
        # 2^22, a thousandth of the refused 2^32
        varswitch = [MartingaleSpec.variance_switching(d, n=200, rho=0.5)
                     for d in (RADEMACHER, THREE_POINT)]
        cases = [(rademacher_spec(20), [2.0]), (three_point_spec(400), [3.0]),
                 (rademacher_spec(1600), [0.5 * k for k in range(1, 41)]),
                 *((rademacher_spec(n), [n**0.25]) for n in (100, 1000, 10000, 10**6)),
                 *((spec, [2.0]) for spec in varswitch),
                 (rademacher_spec(16), [3.9]), (rademacher_spec(400), [19.5]),
                 (three_point_spec(100), [0.999 * montecarlo._drift_supremum(three_point_spec(100))])]
        for spec, xs in cases:
            lams = saddlepoint_lambda(spec, np.array(xs))
            psi = tilting.cumulant_process(spec, lams)
            # max |X_n| is the top of the support: these tables' top value is their largest |value|
            reach = lams * montecarlo._drift_supremum(spec)
            assert np.all(np.abs(psi) < 2.0**22) and np.all(reach < 2.0**22), spec

    @pytest.mark.parametrize("p_hat, std_err", [(-0.1, 0.0), (1.5, 0.0), (1.0 + 1e-8, 0.0),
                                                (1.5, 0.05), (0.5, -1e-3), (math.nan, 0.0),
                                                (0.5, math.nan), (math.nan, math.nan)])
    def test_estimate_out_of_range_rejected(self, p_hat, std_err):
        # p_hat may pass 1 only by max(1e-9, 5 std_err), std_err is >= 0,
        # and neither may be nan
        with pytest.raises(ValueError):
            TailEstimate(x=1.0, p_hat=p_hat, std_err=std_err, n_samples=100, method="tilted",
                         seed=1)
        TailEstimate(x=1.0, p_hat=1.0 + 5e-10, std_err=0.0, n_samples=100, method="tilted", seed=1)

    def test_nan_threshold_rejected_by_the_estimators(self, monkeypatch):
        # called directly, the estimators refuse it too, before any draw: the
        # law's floor rule has no atom index for nan
        def no_draw(*args):
            raise AssertionError("a nan threshold was sampled")
        for name in ("_histogram_sums", "_per_draw_sums"):
            monkeypatch.setattr(montecarlo, name, no_draw)
        for spec in (rademacher_spec(10), three_point_spec(10), gaussian_spec(10)):
            for call in (lambda: crude_tail_estimate(spec, math.nan, 1000, seed=1),
                         lambda: tilted_tail_estimate(spec, math.nan, 0.5, 1000, seed=1)):
                with pytest.raises(DomainError, match="nan"):
                    call()
