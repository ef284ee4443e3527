import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mlde.errors import ConfigError
from mlde.model import (
    IncrementDistribution,
    MartingaleSpec,
    conditional_moment,
    format_spec_config,
    parse_spec_config,
    quadratic_characteristic,
    sample_path,
    sample_paths,
    spec_from_dict,
    spec_to_dict,
)


def gauss_hermite_moment(sigma2, k, nodes=80):
    """Quadrature oracle for E Z^k, Z ~ N(0, sigma2)."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    sigma = math.sqrt(sigma2)
    return float(np.sum(w * (sigma * x) ** k) / math.sqrt(2 * math.pi))


class TestIncrementDistribution:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            IncrementDistribution.finite_table([(-1, 0.5), (1, 0.4)])

    def test_negative_prob_rejected(self):
        with pytest.raises(ConfigError):
            IncrementDistribution.finite_table([(-1, 1.1), (1, -0.1)])

    def test_auto_centering(self):
        d = IncrementDistribution.finite_table([(0.0, 0.5), (2.0, 0.5)])
        assert abs(d.moment(1)) <= 1e-12
        assert d.values == (-1.0, 1.0)

    def test_rademacher_moments(self):
        r = IncrementDistribution.scaled_rademacher(1.0)
        assert r.moment(3) == 0.0
        assert r.moment(4) == 1.0
        assert r.abs_moment(3) == 1.0

    def test_gaussian_moments_against_quadrature(self):
        g = IncrementDistribution.gaussian(1.0)
        for k in (2, 4, 6, 8):
            assert g.moment(k) == pytest.approx(gauss_hermite_moment(1.0, k), rel=1e-10)
        assert g.moment(4) == 3.0
        for k in (3, 5, 7):
            assert g.moment(k) == 0.0
            assert g.abs_moment(k) == pytest.approx(
                2 ** (k / 2) * math.gamma((k + 1) / 2) / math.sqrt(math.pi), rel=1e-12
            )

    def test_gaussian_abs_third_moment(self):
        g = IncrementDistribution.gaussian(1.0)
        assert g.abs_moment(3) == pytest.approx(math.sqrt(8 / math.pi), rel=1e-12)

    def test_scaling(self):
        d = IncrementDistribution.finite_table([(-2.0, 0.25), (2/3, 0.75)])
        s = d.scaled(3.0)
        assert s.moment(2) == pytest.approx(9 * d.moment(2), rel=1e-12)
        assert s.moment(4) == pytest.approx(81 * d.moment(4), rel=1e-12)

    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(0.05, 1.0)),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_tables_centered_and_normalized(self, pairs):
        total = sum(p for _, p in pairs)
        pairs = [(v, p / total) for v, p in pairs]
        values = [v for v, _ in pairs]
        if max(values) - min(values) < 1e-6:
            return  # would be (nearly) degenerate
        d = IncrementDistribution.finite_table(pairs)
        assert abs(d.moment(1)) <= 1e-12
        assert abs(math.fsum(d.probs) - 1.0) <= 1e-12
        assert d.variance > 0

    def test_symmetric_odd_moments_vanish(self):
        d = IncrementDistribution.finite_table(
            [(-2.0, 0.2), (-1.0, 0.3), (1.0, 0.3), (2.0, 0.2)]
        )
        for k in (1, 3, 5, 7):
            assert abs(d.moment(k)) <= 1e-14


class TestSpec:
    def test_normalized_rademacher_scale(self):
        spec = MartingaleSpec.iid(
            IncrementDistribution.scaled_rademacher(1.0), n=4, normalized=True
        )
        assert spec.step_distribution.scale == pytest.approx(0.5)
        path = sample_path(spec, 123)
        assert np.all(np.isin(path.increments, [-0.5, 0.5]))
        assert abs(path.partial_sums[-1]) <= 2.0

    def test_varswitch_needs_even_n(self):
        base = IncrementDistribution.scaled_rademacher(1.0)
        with pytest.raises(ConfigError):
            MartingaleSpec.variance_switching(base, n=5, rho=0.2)
        with pytest.raises(ConfigError):
            MartingaleSpec.variance_switching(base, n=4, rho=1.0)

    def test_varswitch_pair_variances(self):
        # n=2, rho=0.5: the pair starts at zero so s=+1, giving step variances
        # (1+rho)/n = 0.75 then (1-rho)/n = 0.25, which sum to 1 exactly
        spec = MartingaleSpec.variance_switching(
            IncrementDistribution.scaled_rademacher(1.0), n=2, rho=0.5
        )
        path = sample_path(spec, 0)
        assert path.predictable_variances[0] == pytest.approx(0.75)
        assert path.predictable_variances[1] == pytest.approx(0.25)
        assert quadratic_characteristic(path, 2) == pytest.approx(1.0, abs=1e-15)

    def test_total_variance_exact(self):
        base = IncrementDistribution.scaled_rademacher(1.0)
        assert MartingaleSpec.iid(base, n=7, normalized=True).total_variance() == 1.0
        assert MartingaleSpec.variance_switching(base, n=6, rho=0.3).total_variance() == 1.0
        assert MartingaleSpec.iid(base, n=7).total_variance() == 7.0


class TestSampling:
    def test_determinism(self):
        spec = MartingaleSpec.iid(
            IncrementDistribution.gaussian(1.0), n=10, normalized=True
        )
        a = sample_path(spec, 99)
        b = sample_path(spec, 99)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.partial_sums, b.partial_sums)

    def test_partial_sums_consistent(self):
        spec = MartingaleSpec.variance_switching(
            IncrementDistribution.scaled_rademacher(1.0), n=12, rho=0.4
        )
        path = sample_path(spec, 5)
        assert path.partial_sums[0] == 0.0
        assert np.allclose(np.diff(path.partial_sums), path.increments)

    def test_quadratic_characteristic_nondecreasing(self):
        spec = MartingaleSpec.variance_switching(
            IncrementDistribution.scaled_rademacher(1.0), n=20, rho=0.7
        )
        for seed in range(5):
            path = sample_path(spec, seed)
            qc = [quadratic_characteristic(path, k) for k in range(21)]
            assert qc[0] == 0.0
            assert all(b >= a for a, b in zip(qc, qc[1:]))
            assert qc[-1] == pytest.approx(1.0, abs=1e-12)

    def test_normalized_qc_is_one(self):
        spec = MartingaleSpec.iid(
            IncrementDistribution.scaled_rademacher(1.0), n=16, normalized=True
        )
        path = sample_path(spec, 2)
        assert quadratic_characteristic(path, 16) == pytest.approx(1.0, abs=1e-12)

    def test_paths_are_pure_function_of_seed_and_index(self):
        spec = MartingaleSpec.iid(
            IncrementDistribution.scaled_rademacher(1.0), n=8, normalized=True
        )
        inc_small, _ = sample_paths(spec, 10, seed=77)
        inc_large, _ = sample_paths(spec, 5000, seed=77)
        assert np.array_equal(inc_small, inc_large[:10])

    def test_martingale_property_statistical(self):
        # |mean X_n| <= 4 sqrt(<X>_n / N) at N = 2e4 (4-sigma check)
        n_paths = 20000
        for spec in (
            MartingaleSpec.iid(
                IncrementDistribution.scaled_rademacher(1.0), n=16, normalized=True
            ),
            MartingaleSpec.variance_switching(
                IncrementDistribution.scaled_rademacher(1.0), n=16, rho=0.6
            ),
        ):
            inc, _ = sample_paths(spec, n_paths, seed=2024)
            xn = inc.sum(axis=1)
            assert abs(float(xn.mean())) <= 4.0 * math.sqrt(1.0 / n_paths)


class TestConditionalMoments:
    def test_iid_moments(self):
        spec = MartingaleSpec.iid(
            IncrementDistribution.gaussian(1.0), n=4, normalized=True
        )
        # step variance 1/4, fourth moment 3 * (1/4)^2
        assert conditional_moment(spec, None, 1, 2) == pytest.approx(0.25, rel=1e-12)
        assert conditional_moment(spec, None, 3, 4) == pytest.approx(3 * 0.25**2, rel=1e-12)

    def test_varswitch_moments_follow_sign(self):
        spec = MartingaleSpec.variance_switching(
            IncrementDistribution.scaled_rademacher(1.0), n=4, rho=0.5
        )
        path = sample_path(spec, 1)
        v_hi, v_lo = spec.branch_variances
        # first pair starts at zero: s=+1
        assert conditional_moment(spec, path, 1, 2) == pytest.approx(v_hi, rel=1e-12)
        assert conditional_moment(spec, path, 2, 2) == pytest.approx(v_lo, rel=1e-12)
        # second pair keyed to the sign of X_2
        s = 1.0 if path.partial_sums[2] >= 0 else -1.0
        expect_3 = v_hi if s > 0 else v_lo
        assert conditional_moment(spec, path, 3, 2) == pytest.approx(expect_3, rel=1e-12)
        # moments realized along the path agree with the recorded variances
        for i in range(1, 5):
            assert conditional_moment(spec, path, i, 2) == pytest.approx(
                path.predictable_variances[i - 1], rel=1e-12
            )


class TestSpecConfig:
    @pytest.mark.parametrize(
        "spec",
        [
            MartingaleSpec.iid(
                IncrementDistribution.scaled_rademacher(1.0), n=1200, normalized=True
            ),
            MartingaleSpec.iid(IncrementDistribution.gaussian(2.0), n=10),
            MartingaleSpec.variance_switching(
                IncrementDistribution.scaled_rademacher(1.0), n=8, rho=0.25
            ),
            MartingaleSpec.iid(
                IncrementDistribution.finite_table(
                    [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]
                ),
                n=6,
                normalized=True,
            ),
            MartingaleSpec.variance_switching(
                IncrementDistribution.gaussian(2.0), n=8, rho=0.25
            ),
        ],
    )
    def test_round_trip(self, spec):
        assert parse_spec_config(format_spec_config(spec)) == spec
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            parse_spec_config("model = rademacher\n")  # no n
        with pytest.raises(ConfigError):
            parse_spec_config("model = nosuch\nn = 4\n")
        with pytest.raises(ConfigError):
            parse_spec_config("just garbage\n")
        with pytest.raises(ConfigError):  # sigma2 on a base that is not gaussian
            parse_spec_config("model = rademacher\nn = 4\nsigma2 = 2\n")
        with pytest.raises(ConfigError):
            parse_spec_config("model = varswitch\nn = 4\nrho = 0.5\nsigma2 = 2\n"
                              "values = -1, 1\nprobs = 0.5, 0.5\n")
