import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mlde.errors import ConfigError, UnsupportedKindError
from mlde.model import (
    IncrementDistribution,
    MartingaleSpec,
    block_rng,
    parse_config_dict,
    spec_from_dict,
    spec_to_dict,
)


def parse_spec(text):
    """The spec a config text describes, by the path the CLI runs."""
    return spec_from_dict(parse_config_dict(text))


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

    def test_canonical_table(self):
        # sorted, equal values merged and zero-mass atoms dropped
        d = IncrementDistribution.finite_table(
            [(2, 0.25), (0, 0.125), (5, 0.0), (-1, 0.5), (0, 0.125)]
        )
        assert d.values == (-1.0, 0.0, 2.0)
        assert d.probs == (0.5, 0.25, 0.25)
        with pytest.raises(ConfigError):  # one atom of positive mass
            IncrementDistribution.finite_table([(-1, 1.0), (1, 0.0)])

    def test_rademacher_moments(self):
        r = IncrementDistribution.scaled_rademacher(1.0)
        assert r == IncrementDistribution.finite_table([(1, 0.5), (-1, 0.5)])
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

    def test_bad_parameters_rejected(self):
        for call in (lambda: IncrementDistribution.gaussian(0.0),
                     lambda: IncrementDistribution.gaussian(math.inf),
                     lambda: IncrementDistribution.scaled_rademacher(0.0)):
            with pytest.raises(ConfigError):
                call()
        r = IncrementDistribution.scaled_rademacher(1.0)
        with pytest.raises(ValueError, match="order"):
            r.moment(-1)
        with pytest.raises(ValueError, match="scale factor"):
            r.scaled(0.0)
        with pytest.raises(UnsupportedKindError):
            IncrementDistribution.gaussian(1.0).table()

    def test_moment_past_the_double_range(self):
        # v**k past the largest double reads as inf, not an OverflowError,
        # and a table whose variance is not finite is refused
        d = IncrementDistribution.finite_table([(-1e11, 0.5), (1e11, 0.5)])
        assert d.moment(28) == pytest.approx(1e308, rel=1e-12)
        assert d.moment(30) == math.inf
        with pytest.raises(ConfigError, match="finite variance"):
            IncrementDistribution.finite_table([(-1e200, 0.5), (1e200, 0.5)])

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
        ((step, count),) = spec.iid_parts()
        values, probs = step.table()
        assert values.tolist() == [-0.5, 0.5]
        assert probs.tolist() == [0.5, 0.5]
        assert count == 4
        assert spec.n * max(abs(v) for v in step.values) == 2.0

    def test_bad_step_count_and_seed_rejected(self):
        with pytest.raises(ConfigError, match="n must be"):
            MartingaleSpec.iid(IncrementDistribution.scaled_rademacher(1.0), n=0)
        for seed in (-1, 2**64, 2**70):
            with pytest.raises(ConfigError, match="seed"):
                block_rng(seed, 0)

    def test_seed_keys_every_bit(self):
        # the key is two uint64 words: seeds from 2^63 were stored as float64,
        # so 2^63 and 2^63 + 1 drew one stream and 2^64 - 1 warned; below 2^63
        # the key words, and so the draws, are unchanged
        raw = [block_rng(seed, 0).bit_generator.random_raw(4).tolist()
               for seed in (2**63, 2**63 + 1, 2**64 - 1, 2**64 - 2)]
        assert len({tuple(r) for r in raw}) == 4
        assert block_rng(5, 3).bit_generator.random_raw(4).tolist() == [
            13864069777372183386, 7591028229250530963, 13303101288174429082, 18197207255242370058]

    def test_varswitch_needs_even_n(self):
        base = IncrementDistribution.scaled_rademacher(1.0)
        with pytest.raises(ConfigError):
            MartingaleSpec.variance_switching(base, n=5, rho=0.2)
        with pytest.raises(ConfigError):
            MartingaleSpec.variance_switching(base, n=4, rho=1.0)

    def test_varswitch_pair_variances(self):
        # n=2, rho=0.5: one draw of the high-branch law, variance
        # (1+rho)/n = 0.75, and one of the low-branch law, (1-rho)/n = 0.25,
        # which sum to 1 exactly
        spec = MartingaleSpec.variance_switching(
            IncrementDistribution.scaled_rademacher(1.0), n=2, rho=0.5
        )
        (hi, n_hi), (lo, n_lo) = spec.iid_parts()
        assert (n_hi, n_lo) == (1, 1)
        assert hi.variance == pytest.approx(0.75, rel=1e-15)
        assert lo.variance == pytest.approx(0.25, rel=1e-15)
        assert n_hi * hi.variance + n_lo * lo.variance == pytest.approx(1.0, abs=1e-15)

    def test_total_variance_exact(self):
        base = IncrementDistribution.scaled_rademacher(1.0)
        assert MartingaleSpec.iid(base, n=7, normalized=True).total_variance() == 1.0
        assert MartingaleSpec.variance_switching(base, n=6, rho=0.3).total_variance() == 1.0
        assert MartingaleSpec.iid(base, n=7).total_variance() == 7.0


class TestCaches:
    """The iid parts and the tables are built once per instance and kept
    outside the fields: they are never writeable, and a spec with its caches
    filled is equal, hashes and serializes the same as one without."""

    THREE = IncrementDistribution.finite_table([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])

    def specs(self):
        return (MartingaleSpec.iid(self.THREE, n=30, normalized=True),
                MartingaleSpec.iid(self.THREE, n=30),
                MartingaleSpec.variance_switching(self.THREE, n=30, rho=0.5),
                MartingaleSpec.iid(IncrementDistribution.gaussian(2.0), n=30))

    def test_table_is_read_only(self):
        values, probs = self.THREE.table()
        for a in (values, probs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert self.THREE.table()[0] is values
        assert values.tolist() == list(self.THREE.values)

    def test_filled_cache_changes_no_identity(self):
        for filled, fresh in zip(self.specs(), self.specs()):
            for d, _ in filled.iid_parts():
                if d.kind != "gaussian":
                    d.table()
            assert filled == fresh
            assert hash(filled) == hash(fresh)
            assert repr(filled) == repr(fresh)
            assert spec_to_dict(filled) == spec_to_dict(fresh)

    def test_parts_same_before_and_after_filling(self):
        three = self.THREE
        branch = [three.scaled(math.sqrt(v / three.variance)) for v in (1.5 / 30, 0.5 / 30)]
        derived = (((three.scaled(1.0 / math.sqrt(30 * three.variance)), 30),),
                   ((three, 30),),
                   ((branch[0], 15), (branch[1], 15)),
                   ((IncrementDistribution.gaussian(2.0), 30),))
        for spec, want in zip(self.specs(), derived):
            first = spec.iid_parts()
            assert first == want
            assert spec.iid_parts() is first and spec.iid_parts() == want


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
        # the spec a JSON sidecar records, read back
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            parse_spec("model = rademacher\n")  # no n
        with pytest.raises(ConfigError):
            parse_spec("model = nosuch\nn = 4\n")
        with pytest.raises(ConfigError):
            parse_spec("just garbage\n")
        with pytest.raises(ConfigError):  # sigma2 on a base that is not gaussian
            parse_spec("model = rademacher\nn = 4\nsigma2 = 2\n")
        with pytest.raises(ConfigError):
            parse_spec("model = varswitch\nn = 4\nrho = 0.5\nsigma2 = 2\n"
                       "values = -1, 1\nprobs = 0.5, 0.5\n")
        # keys the chosen model never reads
        for text in (
            # rho on iid models
            "model = rademacher\nn = 100\nnormalized = true\nrho = 0.5\n",
            "model = gaussian\nn = 10\nrho = 0.5\n",
            "n = 6\nvalues = -1, 1\nprobs = 0.5, 0.5\nrho = 0.5\n",
            # normalized on varswitch
            "model = varswitch\nn = 4\nrho = 0.5\nnormalized = true\n",
            "model = varswitch\nn = 4\nrho = 0.5\nnormalized = false\n",
            # scale on gaussian or finite bases
            "model = gaussian\nn = 4\nscale = 2\n",
            "model = finite\nn = 4\nscale = 2\nvalues = -1, 1\nprobs = 0.5, 0.5\n",
            "model = varswitch\nn = 4\nrho = 0.5\nsigma2 = 2\nscale = 2\n",
            "model = varswitch\nn = 4\nrho = 0.5\nscale = 2\n"
            "values = -1, 1\nprobs = 0.5, 0.5\n",
            # a finite table under a model that has none
            "model = rademacher\nn = 4\nvalues = -1, 0, 2\nprobs = 0.5, 0.25, 0.25\n",
            "model = gaussian\nn = 4\nvalues = -1, 1\nprobs = 0.5, 0.5\n",
            # unknown keys
            "model = rademacher\nn = 4\nfoo = 1\n",
            "model = varswitch\nn = 4\nrho = 0.5\nfoo = 1\n",
        ):
            with pytest.raises(ConfigError):
                parse_spec(text)

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n   \nmodel = rademacher  # trailing\n\t\nn = 4\n# n = 5\n"
        assert parse_config_dict(text) == {"model": "rademacher", "n": 4}

    def test_table_files_load(self):
        # a bare table is a finite iid law; with model = varswitch it is the base
        three = "values = -1, 0, 2\nprobs = 0.5, 0.25, 0.25\n"
        spec = parse_spec("n = 14\n" + three)
        assert (spec.rule, spec.dist.kind, spec.n) == ("iid", "finite_table", 14)
        spec = parse_spec("model = varswitch\nn = 200\nrho = 0.5\n" + three)
        assert (spec.rule, spec.dist.kind, spec.rho) == ("variance_switching",
                                                         "finite_table", 0.5)
