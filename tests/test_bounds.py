import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.integrate import quad

from mlde.bounds import (
    conjugate_rate_bound,
    dominance_check,
    gaussian_tail,
    mdp_rate,
    ratio_bound_expression,
    regime_tag,
    theorem1_upper,
    theorem2_lower,
    theorems_envelope,
)
from mlde.errors import DomainError


def tail_by_quadrature(x):
    """Adaptive-integration oracle for 1 - Phi(x)."""
    val, err = quad(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
        x,
        math.inf,
        limit=200,
        epsabs=1e-16,
        epsrel=1e-13,
    )
    return val


class TestGaussianTail:
    def test_symmetry_at_zero(self):
        assert gaussian_tail(0.0) == 0.5

    def test_frozen_oracle_values(self):
        # values computed by the quadrature oracle
        assert gaussian_tail(1.0) == pytest.approx(0.158655253931, abs=1e-12)
        assert gaussian_tail(3.0) == pytest.approx(1.349898031630e-3, rel=1e-12)

    def test_against_quadrature_grid(self):
        for x in np.linspace(0.0, 8.0, 33):
            assert gaussian_tail(float(x)) == pytest.approx(
                tail_by_quadrature(float(x)), rel=1e-10
            )


def mills_brackets(x):
    """e^(-x^2/2)/(sqrt(2 pi)(1+x)) <= 1-Phi(x) <= e^(-x^2/2)/(sqrt(pi)(1+x))
    for x >= 0."""
    core = math.exp(-0.5 * x * x) / (1.0 + x)
    return core / math.sqrt(2.0 * math.pi), core / math.sqrt(math.pi)


class TestMills:
    def test_frozen_values(self):
        lo, hi = mills_brackets(0.0)
        assert lo <= gaussian_tail(0.0) <= hi
        lo1, hi1 = mills_brackets(1.0)
        assert lo1 == pytest.approx(0.1209854, abs=1e-7)
        assert hi1 == pytest.approx(0.1710991, abs=1e-7)
        assert lo1 <= gaussian_tail(1.0) <= hi1

    def test_containment_grid(self):
        for x in np.arange(0.0, 10.0 + 1e-9, 0.1):
            lo, hi = mills_brackets(float(x))
            assert lo <= gaussian_tail(float(x)) <= hi

    @given(st.floats(0.0, 30.0))
    @settings(max_examples=300, deadline=None)
    def test_containment_property(self, x):
        lo, hi = mills_brackets(x)
        assert lo <= gaussian_tail(x) <= hi


class TestRatioEnvelopes:
    def test_upper_x0_collapse(self):
        eps, delta = 0.03, 0.02
        expect = 1.0 + (eps * abs(math.log(eps)) + delta)
        assert theorem1_upper(0.0, eps, delta) == pytest.approx(expect, rel=1e-14)

    def test_upper_frozen_arithmetic(self):
        # x=1, eps=0.008333, delta=0, c=1:
        # exp(0.008333) * (1 + 2*0.008333*|ln 0.008333|) = 1.0888245 (own arithmetic)
        assert theorem1_upper(1.0, 0.008333, 0.0) == pytest.approx(
            1.0888244798347069, rel=1e-12
        )

    def test_upper_monotonicity(self):
        base = theorem1_upper(1.0, 0.01, 0.1)
        assert theorem1_upper(1.5, 0.01, 0.1) >= base
        assert theorem1_upper(1.0, 0.02, 0.1) >= base
        assert theorem1_upper(1.0, 0.01, 0.2) >= base

    def test_lower_x0_and_limit(self):
        eps, delta = 0.03, 0.02
        val = theorem2_lower(0.0, eps, delta)
        assert val == pytest.approx(math.exp(-(eps * abs(math.log(eps)) + delta)), rel=1e-14)
        assert val < 1.0
        assert theorem2_lower(1.0, 1e-12, 0.0) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(0.0, 10.0),
        st.floats(1e-4, 0.5),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_lower_below_upper(self, x, eps, delta):
        assert theorem2_lower(x, eps, delta) <= theorem1_upper(x, eps, delta)

    def test_envelope_validity_flags(self):
        env = theorems_envelope(1.0, 0.01, 0.0)
        assert env.valid
        assert env.lower_ratio <= env.upper_ratio
        env2 = theorems_envelope(95.0, 0.01, 0.0)
        assert not env2.valid

    def test_bound_expression_positive_at_zero(self):
        assert ratio_bound_expression(0.0, 0.01, 0.0) > 0.0


class TestRates:
    def test_berry_esseen_frozen(self):
        assert conjugate_rate_bound(0.0, 0.1, 0.05) == pytest.approx(0.2802585, abs=1e-7)

    def test_berry_esseen_maximum(self):
        # eps |ln eps| peaks at eps = 1/e
        peak = conjugate_rate_bound(0.0, 1 / math.e, 0.0)
        assert peak == pytest.approx(1 / math.e, rel=1e-12)
        for eps in (0.05, 0.2, 0.36, 0.37, 0.5):
            assert conjugate_rate_bound(0.0, eps, 0.0) <= peak + 1e-15

    def test_berry_esseen_vanishes(self):
        assert conjugate_rate_bound(0.0, 1e-12, 0.0) < 1e-10

    def test_bolthausen_frozen(self):
        # eps^3 n log n = 0.4605 >= (3/4) eps |log eps| = 0.1727
        assert dominance_check(0.1, 100)

    def test_bolthausen_boundary_accepted(self):
        eps = math.sqrt(3.0 / (4.0 * 64))
        assert dominance_check(eps, 64)

    def test_bolthausen_precondition(self):
        with pytest.raises(DomainError):
            dominance_check(0.2, 4)  # 0.2 < sqrt(3/16)
        with pytest.raises(DomainError):
            dominance_check(0.6, 100)  # past 1/2

    def test_dominance_holds_across_admissible_grid(self):
        for n in (4, 16, 100, 10_000, 1_000_000):
            floor = math.sqrt(3.0 / (4.0 * n))
            for eps in np.linspace(floor, 0.5, 25):
                assert dominance_check(float(eps), n)


class TestMdpRate:
    def test_values(self):
        assert mdp_rate(0.0) == 0.0
        assert mdp_rate(1.0) == -0.5
        assert mdp_rate(2.0) == -2.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mdp_rate(-1.0)


class TestRegimeTag:
    def test_ordering(self):
        n = 10_000
        assert regime_tag(1.0, n) == "sqrt_log"
        assert regime_tag(3.5, n) == "sixth_root"
        assert regime_tag(20.0, n) == "sqrt_n"
        assert regime_tag(80.0, n) == "outside"
