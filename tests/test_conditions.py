import math

import pytest
from scipy.integrate import quad
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from mlde.conditions import K_MAX, _bernstein_scan, _moments, _slack, certify
from mlde.errors import DomainError
from mlde.model import IncrementDistribution, MartingaleSpec

RADEMACHER = IncrementDistribution.scaled_rademacher(1.0)
GAUSSIAN = IncrementDistribution.gaussian(1.0)


def single_step_H(dist):
    """The certificate's H for one unnormalized step of dist (n = 1, so the
    step law is dist itself and epsilon = H)."""
    return certify(MartingaleSpec.iid(dist, n=1)).H


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


def even_moment_by_quadrature(sigma2, k):
    """E eta^k for eta ~ N(0, sigma2) and even k."""
    val, _ = quad(lambda z: z**k * math.exp(-z * z / (2.0 * sigma2)),
                  0.0, math.inf, epsrel=1e-13, limit=200)
    return 2.0 * val / math.sqrt(2.0 * math.pi * sigma2)


class TestMinimalH:
    def test_rademacher(self):
        # binding order is k=4: H = (2*1/4!)^(1/2) = 12^(-1/2)
        assert single_step_H(RADEMACHER) == pytest.approx(12 ** -0.5, rel=1e-14)
        assert _bernstein_scan(_moments(RADEMACHER)) == (pytest.approx(12 ** -0.5, rel=1e-14), 4)

    def test_gaussian(self):
        # binding at k=4: 3 <= 12 H^2  ->  H = 1/2
        assert single_step_H(GAUSSIAN) == pytest.approx(0.5, rel=1e-14)
        assert _bernstein_scan(_moments(GAUSSIAN)) == (pytest.approx(0.5, rel=1e-14), 4)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, c):
        # most scales put epsilon or delta past 1/2 at n = 1, where certify
        # raises, so the scan that certify maximizes is checked directly
        base, _ = _bernstein_scan(_moments(RADEMACHER))
        assert _bernstein_scan(_moments(RADEMACHER.scaled(c)))[0] == pytest.approx(
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
        assert _bernstein_scan(_moments(d))[0] <= max(abs(v) for v in d.values) * (1 + 1e-12)


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

    def test_each_moment_summed_once(self, monkeypatch):
        # the scan and the slack read one list of moments per law: E eta^k
        # for k = 2..K_MAX is summed once per part, and the certificate keeps
        # the bits of the scan and the slack computed on their own
        calls = []
        moment = IncrementDistribution.moment
        monkeypatch.setattr(IncrementDistribution, "moment",
                            lambda self, k: calls.append((self, k)) or moment(self, k))
        for spec in (MartingaleSpec.iid(RADEMACHER, n=100, normalized=True),
                     MartingaleSpec.variance_switching(RADEMACHER, n=100, rho=0.5)):
            laws = [d for d, _ in spec.iid_parts()]
            calls.clear()
            cert = certify(spec)
            assert sorted(calls, key=lambda c: (laws.index(c[0]), c[1])) == \
                [(d, k) for d in laws for k in range(2, K_MAX + 1)]
            eps, k = max(_bernstein_scan(_moments(d)) for d in laws)
            assert (cert.epsilon, cert.binding_k) == (eps, k)
            assert cert.slack == max(_slack(_moments(d), eps) for d in laws)

    def test_slack_binds_at_binding_k(self):
        for d in (RADEMACHER, GAUSSIAN):
            cert = certify(MartingaleSpec.iid(d, n=1))
            assert cert.slack == pytest.approx(1.0, abs=1e-12)
            assert _slack(_moments(d), cert.H) == pytest.approx(1.0, abs=1e-12)


class TestSakhanenko:
    """Sakhanenko's form K E(|eta|^3 e^(K|eta|)) <= E eta^2 against the
    moment-growth constant: a valid H gives the form at K = t0/H, t0 the root
    of 6t/(1-t)^4 = 1, and the form at K gives moment growth at H = 1/K,
    since E|eta|^k <= (k-3)! K^(3-k) E(|eta|^3 e^(K|eta|)) for k >= 3."""

    def test_construction_yields_valid_K(self):
        t0 = bisect_t0()
        for d, abs3_exp in ((RADEMACHER, math.exp),
                            (GAUSSIAN, lambda K: abs3_exp_by_quadrature(1.0, K))):
            K = t0 / single_step_H(d)
            assert K * abs3_exp(K) / d.variance <= 1.0

    @pytest.mark.parametrize("sigma2", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("K", [0.1, 0.3, 0.5, 1.0, 2.0])
    def test_gaussian_closed_form_against_quadrature(self, sigma2, K):
        # the slack's closed-form gaussian moments against quadrature ones
        # (odd moments vanish), at the H = 1/K that Sakhanenko's form implies
        H = 1.0 / K
        m2 = even_moment_by_quadrature(sigma2, 2)
        expected = max(
            even_moment_by_quadrature(sigma2, k) / (0.5 * math.factorial(k) * H ** (k - 2) * m2)
            for k in range(4, K_MAX + 1, 2)
        )
        slack = _slack(_moments(IncrementDistribution.gaussian(sigma2)), H)
        assert slack == pytest.approx(expected, rel=1e-12)
        if K * abs3_exp_by_quadrature(sigma2, K) / sigma2 <= 1.0:
            assert slack <= 1.0


class TestCramerConversion:
    """A finite exponential moment c1 = E e^(|eta|/c0) gives the valid, not
    minimal, moment-growth constant H = max(c0, 2 c0^3 c1 / E eta^2), since
    E|eta|^k <= k! c0^k c1."""

    def test_rademacher_example(self):
        # c0 = 1, c1 = e, E eta^2 = 1 -> H = 2e; the slack binds at k = 4
        h = max(1.0, 2.0 * math.e)
        assert _slack(_moments(RADEMACHER), h) == pytest.approx(1.0 / (48.0 * math.e**2), rel=1e-14)
        assert _bernstein_scan(_moments(RADEMACHER))[0] <= h

    @given(
        st.floats(0.5, 5.0),
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(0.05, 1.0)),
            min_size=2,
            max_size=5,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_lower_bound(self, c0, pairs):
        total = sum(p for _, p in pairs)
        pairs = [(v, p / total) for v, p in pairs]
        assume(max(v for v, _ in pairs) - min(v for v, _ in pairs) >= 1e-4)
        d = IncrementDistribution.finite_table(pairs)
        assume(d.variance >= 0.01)  # keeps H^(K_MAX - 2) inside the float range
        c1 = math.fsum(p * math.exp(abs(v) / c0) for v, p in zip(d.values, d.probs))
        h = max(c0, 2.0 * c0**3 * c1 / d.variance)
        assert _slack(_moments(d), h) <= 1.0 + 1e-12
        assert _bernstein_scan(_moments(d))[0] <= h
