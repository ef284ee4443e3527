import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy import special
from scipy.stats import binom

from mlde import bounds, conditions, montecarlo, tilting
from mlde.errors import ConfigError, DomainError
from mlde.model import IncrementDistribution, MartingaleSpec
from mlde.montecarlo import (
    ENUM_LIMIT,
    MAX_SAMPLES,
    _pool_size,
    clt_rate_curve,
    conjugate_clt_check,
    crude_tail_estimate,
    estimate_tail,
    exact_tail,
    fit_constant,
    lattice_ks,
    mdp_diagnostic,
    ratio_experiment,
    saddlepoint_lambda,
    tilted_tail_estimate,
)

RADEMACHER = IncrementDistribution.scaled_rademacher(1.0)
GAUSSIAN = IncrementDistribution.gaussian(1.0)
THREE_POINT = IncrementDistribution.finite_table([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])


def rademacher_spec(n):
    return MartingaleSpec.iid(RADEMACHER, n=n, normalized=True)


def gaussian_spec(n):
    return MartingaleSpec.iid(GAUSSIAN, n=n, normalized=True)


def gaussian_varswitch_spec(n):
    return MartingaleSpec.variance_switching(GAUSSIAN, n=n, rho=0.5)


def three_point_spec(n):
    return MartingaleSpec.iid(THREE_POINT, n=n, normalized=True)


def binomial_ks(n):
    """Every k for small n, else a spread of k with both ends: 0, n - 1, n."""
    return np.unique(np.r_[np.arange(min(n, 40) + 1), np.linspace(0, n, 41).astype(int), n - 1])


class TestBinomialLaw:
    """montecarlo.binom (scipy.special only) against scipy.stats.binom."""

    NS = (1, 2, 3, 7, 22, 100, 1000, 3300, 100_000, 1_000_000)
    PS = (0.0, 1.0, 1e-6, 0.123, 0.3, 1.0 / 3.0, 0.5, 0.7, 1.0 - 1e-9)

    def test_sf_bitwise(self):
        for n in self.NS:
            k = binomial_ks(n)
            for p in self.PS:
                np.testing.assert_array_equal(montecarlo.binom.sf(k, n, p),
                                              binom.sf(k, n, p), err_msg=f"{n} {p}")

    def test_cdf_bitwise(self):
        # cdf takes p through 1 - p, so it is scipy's cdf at q = 1 - (1 - p):
        # p itself for every p >= 1/2 and for the grid's 0 and 0.123, its
        # neighbouring double for 1e-6, 0.3 and 1/3
        for n in self.NS:
            k = binomial_ks(n)
            for p in self.PS:
                q = 1.0 - (1.0 - p)
                np.testing.assert_array_equal(montecarlo.binom.cdf(k, n, p),
                                              binom.cdf(k, n, q), err_msg=f"{n} {p}")
        assert [1.0 - (1.0 - p) == p for p in self.PS].count(False) == 3

    def test_pmf_against_exact_rationals(self):
        # pmf = exp(L), L = lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)
        # + k log p + (n-k) log1p(-p).  exp turns an absolute error d in L
        # into a relative error d.  Each term is good to an ulp or two of its
        # size, and the log-gammas are at most lgamma(n+1) <= (n+1) log(n+2).
        # Hence |rel err| <= c eps (1 + |k log p| + |(n-k) log(1-p)|
        # + (n+1) log(n+2)) with c a few units; c = 4 here (worst seen 0.98).
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
        s = spec.step_distribution.max_abs
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

    def test_crude_tilted_consistency(self):
        spec = rademacher_spec(16)
        x = 1.0
        crude = crude_tail_estimate(spec, x, 200_000, seed=31)
        lam = saddlepoint_lambda(spec, x)
        tilt = tilted_tail_estimate(spec, x, lam, 200_000, seed=32)
        combined = math.hypot(crude.std_err, tilt.std_err)
        assert abs(crude.p_hat - tilt.p_hat) <= 3.5 * combined

    def test_parallel_invariance(self, monkeypatch):
        for spec in (rademacher_spec(20),
                     MartingaleSpec.variance_switching(RADEMACHER, n=12, rho=0.5),
                     gaussian_spec(15)):
            results = []
            for w in ("1", "2", "8"):
                monkeypatch.setenv("MLDE_THREADS", w)
                results.append(tilted_tail_estimate(spec, 1.0, 0.8, 30_000, seed=9))
            assert results[0].p_hat == results[1].p_hat == results[2].p_hat
            assert results[0].std_err == results[1].std_err == results[2].std_err

    def test_pool_size_clamped(self):
        cpus = os.cpu_count() or 1
        assert _pool_size(10**6, 10**6) == cpus
        assert _pool_size(10**6, 3) == min(cpus, 3)
        assert _pool_size(1, 100) == 1
        assert _pool_size(0, 0) == 1

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            tilted_tail_estimate(rademacher_spec(4), 0.5, -0.1, 100, seed=0)

    def test_sure_event_under_tilt(self):
        # below the support every path hits; the weight mean sits at 1 up to
        # sampling noise and must not trip the estimate validator
        est = tilted_tail_estimate(rademacher_spec(8), -5.0, 0.7, 5_000, seed=4)
        assert abs(est.p_hat - 1.0) <= 3.5 * est.std_err


class TestSaddlepoint:
    def test_root_residual(self):
        spec = rademacher_spec(20)
        for x in (0.5, 1.0, 2.0, 3.5):
            lam = saddlepoint_lambda(spec, x)
            assert tilting.drift_process(spec, lam) == pytest.approx(x, abs=1e-8)

    def test_zero(self):
        assert saddlepoint_lambda(rademacher_spec(8), 0.0) == 0.0

    def test_beyond_support(self):
        with pytest.raises(DomainError):
            saddlepoint_lambda(rademacher_spec(16), 4.0)  # sup drift = sqrt(16) = 4

    def test_gaussian_closed_form(self):
        assert saddlepoint_lambda(gaussian_spec(30), 2.0) == pytest.approx(2.0, abs=1e-9)


class TestExactTail:
    def test_enumeration_small_case(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=4)
        est = exact_tail(spec, 3.0, method="exact_enum")
        assert est.p_hat == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert est.std_err == 0.0

    def test_impossible(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=6)
        assert exact_tail(spec, 6.0).p_hat == 0.0

    def test_methods_are_exact_or_enum(self):
        # "exact" already takes the binomial and normal closed forms wherever
        # they apply, so they are tags of the route taken, not methods to ask
        # for; "auto", its old second spelling, is gone
        two_point = MartingaleSpec.iid(RADEMACHER, n=6)
        assert exact_tail(two_point, 1.0).method == "exact_binomial"
        assert exact_tail(two_point, 1.0, "exact") == exact_tail(two_point, 1.0)
        assert exact_tail(two_point, 1.0, "exact_enum").method == "exact_enum"
        assert exact_tail(gaussian_spec(6), 1.0, "exact").method == "exact_gaussian"
        for spec in (two_point, gaussian_spec(6)):
            for method in ("exact_binomial", "exact_gaussian", "auto"):
                with pytest.raises(ConfigError):
                    exact_tail(spec, 1.0, method=method)
                with pytest.raises(ConfigError):
                    estimate_tail(spec, 1.0, method, "saddlepoint", 0, 0)
        with pytest.raises(DomainError):
            exact_tail(gaussian_spec(6), 1.0, method="exact_enum")
        spec = rademacher_spec(16)  # ratio_experiment's default method is "exact"
        assert ratio_experiment(spec, [1.0]).rows[0].p_hat == exact_tail(spec, 1.0).p_hat

    def test_binomial_equals_enumeration(self):
        # n = 30 has 2^30 paths but only 31 count vectors
        for n in (*range(1, 9), 30):
            spec = MartingaleSpec.iid(RADEMACHER, n=n)
            thresholds = np.arange(-n - 1, n + 2, 2.0) + 0.0  # mid-atom offsets
            for x in thresholds:
                binomial = exact_tail(spec, float(x) + 1.0)  # exact: the closed form
                assert binomial.method == "exact_binomial"
                b = binomial.p_hat
                e = exact_tail(spec, float(x) + 1.0, method="exact_enum").p_hat
                assert abs(b - e) <= 1e-14

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
        values, probs = spec.step_distribution.table()

        def brute(x):
            total = 0.0
            for combo in itertools.product(range(3), repeat=5):
                s = sum(values[i] for i in combo)
                if s > x:
                    total += math.prod(probs[i] for i in combo)
            return total

        for x in (-0.3, 0.0, 0.4, 1.1):
            assert exact_tail(spec, x).p_hat == pytest.approx(brute(x), abs=1e-14)

    def test_too_large_rejected(self):
        # a 6-atom law at n = 100 has C(105, 5) ~ 9.7e7 count vectors, far
        # above the cap; the check is arithmetic, made before any allocation
        table = IncrementDistribution.finite_table([(v, 1.0 / 6.0) for v in range(6)])
        assert math.comb(105, 5) * 6 > ENUM_LIMIT
        with pytest.raises(DomainError, match="too-large"):
            exact_tail(MartingaleSpec.iid(table, n=100), 1.0, method="exact_enum")

    def test_varswitch_zero_sum_ties(self):
        # c_hi/c_lo is irrational, so X_n = c_hi A + c_lo B is 0 only at
        # A = B = 0, and by symmetry P(X_n > 0) = (1 - P(A = 0)^2) / 2
        for n in (4, 8, 12):
            p_zero = math.comb(n // 2, n // 4) / 2 ** (n // 2)
            for rho in (0.3, 0.5):
                spec = MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=rho)
                assert abs(exact_tail(spec, 0.0).p_hat - (1.0 - p_zero**2) / 2.0) <= 1e-14


class TestLatticeKs:
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
            assert lattice_ks(values, probs) == pytest.approx(
                self.dense_scan(values, probs), abs=1e-9
            )

    @given(st.integers(2, 12), st.floats(0.2, 0.8))
    @settings(max_examples=50, deadline=None)
    def test_against_dense_scan_property(self, n, prob):
        k = np.arange(n + 1)
        mean, sd = n * prob, math.sqrt(n * prob * (1 - prob))
        values = (k - mean) / sd
        probs = binom.pmf(k, n, prob)
        assert lattice_ks(values, probs) == pytest.approx(
            self.dense_scan(values, probs), abs=1e-9
        )

    def test_merges_duplicate_atoms(self):
        ks = lattice_ks([0.0, 0.0, 1.0], [0.25, 0.25, 0.5])
        assert ks == lattice_ks([0.0, 1.0], [0.5, 0.5])


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
        step = spec.step_distribution
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


def two_point_spec(p, n):
    """n normalized iid steps of the two-point law with mass p on its upper atom."""
    table = IncrementDistribution.finite_table([(0.0, 1.0 - p), (1.0, p)])
    return MartingaleSpec.iid(table, n=n, normalized=True)


def full_range_ks(spec, lam):
    """The two-point KS over all n + 1 atoms: max |F - Phi| at each atom and
    just left of it, written out independently of the library's window."""
    ((d, n),) = spec.iid_parts()
    values, probs = tilting.tilted_table(d, lam)
    k = np.arange(n + 1)
    atoms = n * values[0] + k * (values[1] - values[0]) - tilting.drift_process(spec, lam)
    cdf = montecarlo.binom.cdf(k, n, probs[1])
    left = np.concatenate([[0.0], cdf[:-1]])
    phi = 1.0 - 0.5 * special.erfc(atoms / math.sqrt(2.0))
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))


def window(spec, lam):
    """The atoms [lo, hi] within WINDOW_SD sds of the tilted mean."""
    ((d, n),) = spec.iid_parts()
    _, (q, p) = tilting.tilted_table(d, lam)
    half = montecarlo.WINDOW_SD * math.sqrt(n * q * p)
    return max(0, math.floor(n * p - half)), min(n, math.ceil(n * p + half))


class TestTwoPointKsWindow:
    """The two-point KS reads a certified window of atoms, never a different
    number than the full range."""

    PS = (0.5, 0.05, 0.95) + tuple(np.random.default_rng(2026).uniform(0.0, 1.0, 2))
    NS = (1, 2, 10, 100, 4096, 100_000, 1_000_000)
    LAMS = (0.0, 0.5, 1.0, 3.0, 50.0)

    def test_window_equals_full_range_bitwise(self):
        covering = 0
        for p, n, lam in itertools.product(self.PS, self.NS, self.LAMS):
            spec = two_point_spec(p, n)
            got = montecarlo._recentred_lattice_ks(spec, lam)
            assert got == full_range_ks(spec, lam), (p, n, lam)
            covering += window(spec, lam) == (0, n)
        # the grid holds cases whose window already is the full range
        assert covering >= 10

    def count_cdf_arguments(self, monkeypatch):
        counted = []
        cdf = montecarlo.binom.cdf

        def counting(k, n, p):
            counted.append(np.size(k))
            return cdf(k, n, p)

        monkeypatch.setattr(montecarlo.binom, "cdf", counting)
        return counted

    def test_window_used_at_large_n(self, monkeypatch):
        counted = self.count_cdf_arguments(monkeypatch)
        (row,) = clt_rate_curve(rademacher_spec, [1_000_000])
        assert 0 < sum(counted) < 100_000
        assert row.ks_distance == full_range_ks(rademacher_spec(1_000_000), 0.0)

    def test_uncertified_window_falls_back_to_full_range(self, monkeypatch):
        # at lam = 50 the tilted law puts 0.99995 on the upper step: the
        # count of upper draws has sd 0.067, so the window is the top two
        # atoms; the atom just below it sits 0.4 under the tilted mean, and
        # Phi there (0.34) is above half the window's maximum (0.4996)
        spec = rademacher_spec(100)
        assert window(spec, 50.0) == (99, 100)
        counted = self.count_cdf_arguments(monkeypatch)
        ks = montecarlo._recentred_lattice_ks(spec, 50.0)
        assert sum(counted) == 2 + 1 + 101  # window, F(98), then all atoms
        assert ks == full_range_ks(spec, 50.0)


class TestRatioExperiment:
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
        # the envelopes are stated for x >= 0, so no row is estimated first
        def no_estimate(*args):
            raise AssertionError("a row was estimated")
        monkeypatch.setattr(montecarlo, "estimate_tail", no_estimate)
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


class TestMdp:
    def test_gaussian_closed_form(self):
        # every gaussian spec, variance switching too, is exactly N(0, 1)
        for family in (gaussian_spec, gaussian_varswitch_spec):
            rows = mdp_diagnostic(family, lambda n: n**0.25, 1.0, [10_000],
                                  samples=0, seed=0)
            row = rows[0]
            assert row.a_n == 10.0
            assert row.value == pytest.approx(
                math.log(bounds.gaussian_tail(10.0)) / 100.0, rel=1e-12)
            assert row.value == pytest.approx(-0.5323, abs=1e-4)
            assert row.p_exact == row.p_hat

    def test_rademacher_cross_check(self):
        # binomial closed form for Rademacher, count vectors for three points
        for family, n in ((rademacher_spec, 4096), (three_point_spec, 1024)):
            rows = mdp_diagnostic(family, lambda n: n**0.25, 1.0, [n],
                                  samples=100_000, seed=6)
            row = rows[0]
            assert row.feasible
            assert abs(row.p_hat - row.p_exact) <= 3.5 * row.std_err
            assert row.target == -0.5

    def test_p_exact_nan_past_enum_limit(self):
        # C(4098, 2) * 3 count-vector entries exceed the cap: no exact value,
        # but the tilted row is still reported
        assert math.comb(4098, 2) * 3 > ENUM_LIMIT
        rows = mdp_diagnostic(three_point_spec, lambda n: n**0.25, 1.0, [4096],
                              samples=1_000, seed=6)
        assert math.isnan(rows[0].p_exact) and rows[0].feasible

    def test_infeasible_row_reported(self):
        rows = mdp_diagnostic(rademacher_spec, lambda n: n**0.25, 1.0, [4096],
                              samples=200, seed=1, lam_policy=0.0)
        row = rows[0]
        assert not row.feasible and math.isnan(row.value)


class TestFitConstant:
    def test_all_zero(self):
        assert fit_constant([(0.0, 1.0), (0.0, 2.0)]) == 0.0

    def test_single_row(self):
        assert fit_constant([(0.3, 0.1)]) == pytest.approx(3.0, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_constant([])

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            fit_constant([(0.1, 0.0)])


class TestValidation:
    def test_bad_sample_count(self):
        with pytest.raises(ConfigError):
            crude_tail_estimate(rademacher_spec(4), 0.0, 0, seed=1)
        with pytest.raises(ConfigError):
            tilted_tail_estimate(rademacher_spec(4), 0.0, 0.5, 99, seed=1)

    def test_sample_cap(self):
        # 2^30 samples are 2^18 blocks; one more is refused before any work
        too_many = MAX_SAMPLES + 1
        assert MAX_SAMPLES == 2**30
        spec = rademacher_spec(20)
        for call in (lambda: crude_tail_estimate(spec, 1.0, too_many, seed=1),
                     lambda: tilted_tail_estimate(spec, 1.0, 0.5, too_many, seed=1),
                     lambda: estimate_tail(spec, 1.0, "tilted", "saddlepoint", too_many, 1),
                     lambda: ratio_experiment(spec, [1.0], "crude", too_many, 1),
                     lambda: mdp_diagnostic(rademacher_spec, lambda n: n**0.25, 1.0,
                                            [100], samples=too_many, seed=1)):
            with pytest.raises(ConfigError, match="samples"):
                call()
