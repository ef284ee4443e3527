import math
from fractions import Fraction

import pytest
from scipy.integrate import quad
from hypothesis import given, settings
import hypothesis.strategies as st

from mlde.conditions import (
    bernstein_slack,
    certify,
    check_factorial_moment,
    check_sakhanenko,
    cramer_to_bernstein,
    minimal_bernstein_H,
    minimal_factorial_rho,
    SAKHANENKO_T0,
    sakhanenko_K_from_H,
)
from mlde.errors import DomainError
from mlde.model import IncrementDistribution, MartingaleSpec

RADEMACHER = IncrementDistribution.scaled_rademacher(1.0)
GAUSSIAN = IncrementDistribution.gaussian(1.0)


def bisect_t0(tol=1e-13):
    """Independent root oracle for g(t) = 6t/(1-t)^4 = 1 on (0, 1/2)."""
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 6 * mid / (1 - mid) ** 4 < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def abs3_exp_by_quadrature(sigma2, K):
    """E(|eta|^3 e^(K|eta|)) for eta ~ N(0, sigma2); the exponents are summed
    before exp, so the integrand stays finite wherever the moment is."""
    val, _ = quad(lambda z: z**3 * math.exp(K * z - z * z / (2.0 * sigma2)),
                  0.0, math.inf, epsrel=1e-13, limit=200)
    return 2.0 * val / math.sqrt(2.0 * math.pi * sigma2)


class TestMinimalH:
    def test_rademacher(self):
        # binding order is k=4: H = (2*1/4!)^(1/2) = 12^(-1/2)
        h = minimal_bernstein_H(RADEMACHER)
        assert h == pytest.approx(12 ** -0.5, rel=1e-14)

    def test_gaussian(self):
        # binding at k=4: 3 <= 12 H^2  ->  H = 1/2
        assert minimal_bernstein_H(GAUSSIAN) == pytest.approx(0.5, rel=1e-14)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, c):
        base = minimal_bernstein_H(RADEMACHER)
        assert minimal_bernstein_H(RADEMACHER.scaled(c)) == pytest.approx(
            c * base, rel=1e-12
        )

    @given(
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(0.05, 1.0)),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_support_dominates(self, pairs):
        total = sum(p for _, p in pairs)
        pairs = [(v, p / total) for v, p in pairs]
        if max(v for v, _ in pairs) - min(v for v, _ in pairs) < 1e-4:
            return
        d = IncrementDistribution.finite_table(pairs)
        # |E eta^k| <= M^(k-2) E eta^2 <= k!/2 M^(k-2) E eta^2 for k >= 3
        assert minimal_bernstein_H(d) <= d.max_abs * (1 + 1e-12)


class TestCertify:
    def test_normalized_rademacher(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=1200, normalized=True)
        cert = certify(spec)
        assert cert.epsilon == pytest.approx(12 ** -0.5 / math.sqrt(1200), rel=1e-12)
        assert cert.delta == 0.0
        assert cert.N == 0.0
        assert cert.binding_k == 4
        assert cert.slack <= 1 + 1e-12

    def test_varswitch_delta_zero(self):
        for n in (2, 8, 100):
            spec = MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=0.4)
            cert = certify(spec)
            assert cert.delta == 0.0
            # binding branch is the high-variance one
            expected = 12 ** -0.5 * math.sqrt(1.4 / n)
            assert cert.epsilon == pytest.approx(expected, rel=1e-12)

    def test_gaussian_boundary_accepted(self):
        spec = MartingaleSpec.iid(GAUSSIAN, n=1, normalized=True)
        assert certify(spec).epsilon == pytest.approx(0.5, rel=1e-12)

    def test_rademacher_single_step_inside_range(self):
        # 12^(-1/2) ~ 0.289 <= 1/2, so even n = 1 certifies
        spec = MartingaleSpec.iid(RADEMACHER, n=1, normalized=True)
        assert certify(spec).epsilon == pytest.approx(12 ** -0.5, rel=1e-12)

    def test_epsilon_range_exceeded(self):
        # H = 2/sqrt(12) ~ 0.577 > 1/2 at n = 1 unnormalized
        spec = MartingaleSpec.iid(RADEMACHER.scaled(2.0), n=1)
        with pytest.raises(DomainError):
            certify(spec)

    def test_delta_range_exceeded(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=4)  # <X>_n = 4, delta = sqrt(3)
        with pytest.raises(DomainError):
            certify(spec)

    def test_slack_binds_at_binding_k(self):
        for d in (RADEMACHER, GAUSSIAN):
            h = minimal_bernstein_H(d)
            assert bernstein_slack(d, h) == pytest.approx(1.0, abs=1e-12)


class TestSakhanenko:
    def test_root_against_bisection_oracle(self):
        t0 = bisect_t0()
        assert sakhanenko_K_from_H(1.0) == pytest.approx(t0, abs=1e-12)

    def test_root_is_the_nearest_double(self):
        # g is increasing, so the exact root lies within half an ulp of t0
        # iff g changes sign across t0 -/+ ulp/2 (exact rational arithmetic)
        g = lambda t: 6 * t / (1 - t) ** 4
        half = Fraction(math.ulp(SAKHANENKO_T0)) / 2
        assert g(Fraction(SAKHANENKO_T0) - half) < 1 < g(Fraction(SAKHANENKO_T0) + half)
        assert sakhanenko_K_from_H(1.0) == SAKHANENKO_T0

    def test_scaling_in_H(self):
        assert sakhanenko_K_from_H(2.0) == pytest.approx(
            sakhanenko_K_from_H(1.0) / 2.0, rel=1e-14
        )

    def test_g_endpoint_values(self):
        g = lambda t: 6 * t / (1 - t) ** 4
        assert g(0.0) == 0.0
        assert g(0.5) == pytest.approx(48.0) and g(0.5) >= 3.0

    def test_construction_yields_valid_K(self):
        for d in (RADEMACHER, GAUSSIAN):
            K = sakhanenko_K_from_H(minimal_bernstein_H(d))
            report = check_sakhanenko(d, K)
            assert report.holds, report.detail

    def test_rademacher_ratio_closed_form(self):
        # E(|eta|^3 e^(K|eta|)) = e^K for unit rademacher
        K = 0.25
        report = check_sakhanenko(RADEMACHER, K)
        assert report.witness == pytest.approx(K * math.exp(K), rel=1e-12)

    def test_large_K_fails(self):
        assert not check_sakhanenko(RADEMACHER, 10.0).holds

    @pytest.mark.parametrize("sigma2", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("K", [0.1, 0.3, 0.5, 1.0, 2.0])
    def test_gaussian_closed_form_against_quadrature(self, sigma2, K):
        # K >= 0.5 (and sigma2 = 2 at K = 0.3) once overflowed in exp(K z)
        report = check_sakhanenko(IncrementDistribution.gaussian(sigma2), K)
        expected = K * abs3_exp_by_quadrature(sigma2, K) / sigma2
        assert report.witness == pytest.approx(expected, rel=1e-12)
        assert report.holds == (expected <= 1.0)

    def test_gaussian_moment_past_float_range(self):
        # e^(a^2/2) overflows at a = K sigma = 100: an infinite witness, no error
        report = check_sakhanenko(IncrementDistribution.gaussian(1.0), 100.0)
        assert report.witness == math.inf and not report.holds

    def test_small_K_limit(self):
        report = check_sakhanenko(RADEMACHER, 1e-8)
        assert report.holds and report.witness < 1e-7


class TestCramerConversion:
    def test_rademacher_example(self):
        # c0 = 1, c1 = E e^{|eta|} = e, sigma2 = 1  ->  H = max(1, 2e)
        h = cramer_to_bernstein(1.0, math.e, 1.0)
        assert h == pytest.approx(2 * math.e, rel=1e-14)
        # valid (slack <= 1) though far from minimal
        assert bernstein_slack(RADEMACHER, h) <= 1.0

    def test_large_variance_degenerates(self):
        assert cramer_to_bernstein(1.0, math.e, 1e12) == 1.0

    @given(st.floats(0.1, 5.0), st.floats(1.0, 50.0), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_lower_bound(self, c0, c1, sigma2):
        assert cramer_to_bernstein(c0, c1, sigma2) >= c0


class TestFactorialMoment:
    def test_rademacher_binding_k3(self):
        # E|eta|^3 = 1 needs 3 rho >= 1, i.e. rho >= 1/3
        assert not check_factorial_moment(RADEMACHER, 12 ** -0.5).holds
        report = check_factorial_moment(RADEMACHER, 1.0 / 3.0)
        assert report.holds
        assert minimal_factorial_rho(RADEMACHER) == pytest.approx(1 / 3, rel=1e-12)

    def test_gaussian_binding_k3(self):
        rho = minimal_factorial_rho(GAUSSIAN)
        assert rho == pytest.approx(math.sqrt(8 / math.pi) / 3, rel=1e-12)
        assert check_factorial_moment(GAUSSIAN, rho * (1 + 1e-10)).holds
        assert not check_factorial_moment(GAUSSIAN, rho * (1 - 1e-6)).holds

    def test_round_trip_via_sakhanenko(self):
        # exponential-moment form with constant K implies the absolute-moment
        # form with rho = 1/K
        for d in (RADEMACHER, GAUSSIAN):
            K = sakhanenko_K_from_H(minimal_bernstein_H(d))
            assert check_factorial_moment(d, 1.0 / K).holds
