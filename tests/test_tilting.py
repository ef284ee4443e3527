import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mlde import bounds, conditions, montecarlo, tilting
from mlde.errors import DomainError
from mlde.model import IncrementDistribution, MartingaleSpec
from mlde.tilting import (
    check_lemma1,
    check_lemma2_lemma3,
    cumulant_process,
    drift_and_slope,
    drift_process,
    solve_lambda_bar,
    solve_lambda_under,
)

RADEMACHER = IncrementDistribution.scaled_rademacher(1.0)
GAUSSIAN = IncrementDistribution.gaussian(1.0)
TABLE = IncrementDistribution.finite_table([(-2.0, 0.2), (0.0, 0.3), (1.0, 0.5)])
# gaussian specs whose total variance is not 1: V = 1.1 and V = 20
GAUSSIANS_OFF_ONE = (MartingaleSpec.iid(IncrementDistribution.gaussian(0.1), n=11),
                     MartingaleSpec.iid(IncrementDistribution.gaussian(2.0), n=10))


def step_cumulant(dist, lam):
    """log E e^(lam eta), the law's cumulant at one tilt."""
    return float(dist.cumulant(np.array([float(lam)]))[0])


def step_drift(dist, lam):
    """The law's tilted mean at one tilt."""
    return float(dist.drift_and_slope(np.array([float(lam)]))[0][0])


def tilted_probs(dist, lam):
    """The tilted table's probs, term by term in math.exp from the top value."""
    top = max(dist.values)
    w = [p * math.exp(lam * (v - top)) for v, p in zip(dist.values, dist.probs)]
    return np.array(w) / math.fsum(w)


def tilted_variance(dist, lam):
    """Variance of the tilted law of a finite table, from tilted_probs."""
    values, probs = np.array(dist.values), tilted_probs(dist, lam)
    mean = float(np.dot(values, probs))
    return float(np.dot(values * values, probs)) - mean * mean


def drift_slope(spec, lam):
    """B_n'(lam), drift_and_slope's slope."""
    return drift_and_slope(spec, lam)[1]


def fitted_constants(reports):
    """(c2, c3): the smallest constants making both bounds hold on every row."""
    return max(r.fitted_c2 for r in reports), max(r.fitted_c3 for r in reports)


class TestStepQuantities:
    def test_cumulant_closed_forms(self):
        for lam in (0.0, 0.3, 2.0, 40.0):
            assert step_cumulant(RADEMACHER.scaled(0.7), lam) == pytest.approx(
                math.log(math.cosh(lam * 0.7)) if lam * 0.7 < 300 else lam * 0.7 - math.log(2),
                rel=1e-12,
            )
            assert step_cumulant(GAUSSIAN, lam) == pytest.approx(lam**2 / 2, rel=1e-14)
        assert step_cumulant(TABLE, 0.0) == 0.0

    def test_cumulant_matches_direct_sum(self):
        lam = 1.7
        direct = math.log(
            sum(p * math.exp(lam * v) for v, p in zip(TABLE.values, TABLE.probs))
        )
        assert step_cumulant(TABLE, lam) == pytest.approx(direct, rel=1e-13)

    def test_cumulant_overflow_guarded(self):
        # lam * support ~ 700+ would overflow an unshifted exponential sum
        val = step_cumulant(RADEMACHER.scaled(10.0), 200.0)
        assert val == pytest.approx(2000.0 - math.log(2.0), rel=1e-12)

    def test_drift_closed_forms(self):
        for lam in (0.0, 0.5, 3.0):
            assert step_drift(RADEMACHER.scaled(0.5), lam) == pytest.approx(
                0.5 * math.tanh(0.5 * lam), abs=1e-14
            )
            assert step_drift(GAUSSIAN, lam) == lam
        assert step_drift(TABLE, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_cumulant_derivative_is_drift(self):
        h = 1e-6
        for d in (RADEMACHER, GAUSSIAN, TABLE):
            for lam in (0.2, 1.0, 2.5):
                fd = (step_cumulant(d, lam + h) - step_cumulant(d, lam - h)) / (2 * h)
                assert fd == pytest.approx(step_drift(d, lam), rel=1e-6)

    def test_tilted_variance(self):
        # the tilted variance is the derivative of the tilted mean in lam
        h = 1e-6
        for lam in (0.0, 0.8, 2.0):
            assert tilted_variance(RADEMACHER, lam) == pytest.approx(
                1.0 - math.tanh(lam) ** 2, rel=1e-12
            )
            fd = (step_drift(GAUSSIAN, lam + h) - step_drift(GAUSSIAN, lam - h)) / (2 * h)
            assert fd == pytest.approx(1.0, rel=1e-9)
            for d in (RADEMACHER, TABLE):
                fd = (step_drift(d, lam + h) - step_drift(d, lam - h)) / (2 * h)
                assert fd == pytest.approx(tilted_variance(d, lam), rel=1e-6)
                slope = float(d.drift_and_slope(np.array([lam]))[1][0])
                assert slope == pytest.approx(tilted_variance(d, lam), rel=1e-12)
        assert tilted_variance(TABLE, 0.0) == pytest.approx(TABLE.variance, rel=1e-12)

    def test_tilted_law_normalized_and_mean(self):
        for d in (RADEMACHER, TABLE):
            for lam in (0.0, 0.7, 4.0):
                values, probs = d.table()[0], d._tilted(lam)
                assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(probs, tilted_probs(d, lam), rtol=1e-13)
                mean = float(np.dot(values, probs))
                assert mean == pytest.approx(step_drift(d, lam), abs=1e-12)

    def test_tilted_model_step_law(self):
        # the tilted gaussian step is N(lam sigma^2, sigma^2)
        step = MartingaleSpec.iid(GAUSSIAN, n=4, normalized=True).iid_parts()[0][0]
        assert step_drift(step, 2.0) == pytest.approx(0.5)
        h = 1e-6
        assert (step_drift(step, 2.0 + h) - step_drift(step, 2.0 - h)) / (2 * h) == \
            pytest.approx(0.25)
        # the tilted rademacher step puts e^(+-lam s) / (2 cosh(lam s)) on +-s
        step = MartingaleSpec.iid(RADEMACHER, n=4, normalized=True).iid_parts()[0][0]
        values, probs = step.table()[0], step._tilted(2.0)
        np.testing.assert_allclose(values, [-0.5, 0.5])
        np.testing.assert_allclose(probs, np.exp([-1.0, 1.0]) / (2.0 * math.cosh(1.0)),
                                   rtol=1e-14)
        assert float(np.dot(values, probs)) == pytest.approx(step_drift(step, 2.0),
                                                             rel=1e-14)


class TestProcesses:
    def test_zero_tilt_identities(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=9, normalized=True)
        assert cumulant_process(spec, 0.0) == 0.0
        assert drift_process(spec, 0.0) == 0.0

    def test_gaussian_exact(self):
        # B_n = lam V and Psi_n = lam^2 V / 2, V the total variance taken exactly
        spec = MartingaleSpec.iid(GAUSSIAN, n=100, normalized=True)
        for lam in (0.1, 1.0, 3.0):
            assert drift_process(spec, lam) == lam
            assert cumulant_process(spec, lam) == 0.5 * lam * lam
            for other in GAUSSIANS_OFF_ONE:
                v = other.total_variance()
                assert v in (11 * 0.1, 20.0)
                assert drift_and_slope(other, lam) == (lam * v, v)
                assert cumulant_process(other, lam) == 0.5 * lam * lam * v

    def test_cumulant_convexity(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=50, normalized=True)
        lams = np.linspace(0.0, 3.0, 61)
        psi = np.array([cumulant_process(spec, l) for l in lams])
        second = psi[2:] - 2 * psi[1:-1] + psi[:-2]
        assert np.all(second >= -1e-10)

    def test_varswitch_process_is_pair_sum(self):
        spec = MartingaleSpec.variance_switching(RADEMACHER, n=6, rho=0.5)
        (hi, n_hi), (lo, n_lo) = spec.iid_parts()
        # n/2 draws of each branch law, at the branch variances (1 +- rho)/n
        assert (n_hi, n_lo) == (3, 3)
        assert (hi.variance, lo.variance) == pytest.approx((1.5 / 6, 0.5 / 6), rel=1e-15)
        lam = 1.2
        assert cumulant_process(spec, lam) == pytest.approx(
            3 * (step_cumulant(hi, lam) + step_cumulant(lo, lam)), rel=1e-14
        )
        assert drift_process(spec, lam) == pytest.approx(
            3 * (step_drift(hi, lam) + step_drift(lo, lam)), rel=1e-14
        )

    def test_drift_closed_form(self):
        # n = 36 normalized Rademacher steps of +-1/6: B_n = 36 (1/6) tanh(lam/6)
        spec = MartingaleSpec.iid(RADEMACHER, n=36, normalized=True)
        for lam in (0.9, 2.2):
            assert drift_process(spec, lam) == pytest.approx(6 * math.tanh(lam / 6),
                                                             rel=1e-12)
        assert drift_process(spec, 0.0) == 0.0

    def test_drift_slope(self):
        # B_n' is the tilted predictable variance: 36 (1/36) sech^2(lam/6) for
        # the normalized Rademacher steps above, the total variance for a
        # gaussian spec, and the derivative of drift_process for every rule
        rad = MartingaleSpec.iid(RADEMACHER, n=36, normalized=True)
        for lam in (0.0, 0.9, 2.2):
            assert drift_slope(rad, lam) == pytest.approx(1 - math.tanh(lam / 6) ** 2,
                                                          rel=1e-12)
        for spec in (MartingaleSpec.iid(GAUSSIAN, n=30),
                     MartingaleSpec.variance_switching(GAUSSIAN, n=30, rho=0.5)):
            assert drift_slope(spec, 1.3) == spec.total_variance()
        h = 1e-6
        for spec in (MartingaleSpec.iid(TABLE, n=40, normalized=True),
                     MartingaleSpec.variance_switching(TABLE, n=40, rho=0.5)):
            assert drift_slope(spec, 0.0) == pytest.approx(1.0, rel=1e-12)
            for lam in (0.5, 3.0, 12.0):
                fd = (drift_process(spec, lam + h) - drift_process(spec, lam - h)) / (2 * h)
                assert fd == pytest.approx(drift_slope(spec, lam), rel=1e-6)

    def test_array_tilts_have_the_scalar_bits(self):
        # an array of tilts gives an array whose every element has the bits
        # of the one-tilt call, a float, on one and two parts, two-, three-
        # and nine-atom tables, off a lattice and gaussian; Psi_n and B_n
        # keep the bits of the sums over the iid parts of the scalar step
        # cumulant and drift, written here as the library once had them (a
        # gaussian spec's, lam^2 V / 2 and lam V with V its total variance)
        def cumulant(d, lam):
            a = lam * np.array(d.values) + np.log(d.probs)
            shift = float(a.max())
            return shift + math.log(float(np.exp(a - shift).sum()))

        def drift(d, lam):
            values = np.array(d.values)
            a = lam * values + np.log(d.probs)
            terms = np.exp(a - float(a.max()))
            return float(np.dot(values, terms) / terms.sum())

        nine = IncrementDistribution.finite_table([(float(v), 1 / 9) for v in range(9)])
        specs = (MartingaleSpec.iid(RADEMACHER, n=20, normalized=True),
                 MartingaleSpec.iid(TABLE, n=400, normalized=True),
                 MartingaleSpec.iid(nine, n=10),
                 MartingaleSpec.variance_switching(TABLE, n=200, rho=0.5),
                 MartingaleSpec.iid(GAUSSIAN, n=30, normalized=True),
                 MartingaleSpec.variance_switching(GAUSSIAN, n=30, rho=0.5),
                 *GAUSSIANS_OFF_ONE)
        lams = [0.0, 0.3, 1.0, 2.5, 31.6, 100.0]
        for spec in specs:
            for f in (cumulant_process, drift_process,
                      lambda s, lam: drift_and_slope(s, lam)[0],
                      lambda s, lam: drift_and_slope(s, lam)[1]):
                one = [f(spec, lam) for lam in lams]
                assert all(type(v) is float for v in one), spec
                assert f(spec, np.array(lams)).tolist() == one, spec
            if spec.dist.kind == "gaussian":
                v = spec.total_variance()
                assert cumulant_process(spec, np.array(lams)).tolist() == \
                    [0.5 * lam * lam * v for lam in lams], spec
                assert drift_process(spec, np.array(lams)).tolist() == [lam * v for lam in lams]
                continue
            parts = spec.iid_parts()
            assert cumulant_process(spec, np.array(lams)).tolist() == \
                [sum(c * cumulant(d, lam) for d, c in parts) for lam in lams], spec
            assert drift_process(spec, np.array(lams)).tolist() == \
                [sum(c * drift(d, lam) for d, c in parts) for lam in lams], spec

    def test_long_grid_of_a_wide_table_is_read_in_blocks(self):
        # 1000 tilts of a 2000-atom table: one (tilts x parts x atoms) array
        # would be 15 MiB, and the processes and the solve keep several of
        # them.  Read in blocks of about 2^16 cells, every call's peak stays
        # under 4 MiB (numpy reports its buffers to tracemalloc), and each
        # element keeps the bits of its one-tilt call
        wide = IncrementDistribution.finite_table([(float(v), 1 / 2000) for v in range(2000)])
        spec = MartingaleSpec.iid(wide, n=10)
        lams = np.linspace(0.0, 0.05, 1000)
        xs = np.linspace(0.0, 0.99 * 10 * wide.top, 1000)  # below the top of the support
        calls = [(cumulant_process, spec, lams), (drift_process, spec, lams),
                 (drift_slope, spec, lams), (montecarlo.saddlepoint_lambda, spec, xs)]
        for f, spec, grid in calls:
            tracemalloc.start()
            try:
                got = f(spec, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, (f.__name__, peak)
            for i in (0, 31, 32, 500, 999):  # 32 tilts a block: both sides of its first edge
                assert got[i] == f(spec, float(grid[i])), (f.__name__, i)

    def test_decomposition_varswitch(self):
        # B_n accumulated step by step along every one of the 2^10 Rademacher
        # sign paths, each step's branch set by the pair-sign rule, equals
        # drift_process: the pairing makes the drift path-independent
        n, rho, lam = 10, 0.6, 1.5
        spec = MartingaleSpec.variance_switching(RADEMACHER, n=n, rho=rho)
        # (step scale, step drift) of each branch, variances (1 +- rho)/n
        hi, lo = ((c, step_drift(RADEMACHER.scaled(c), lam))
                  for c in (math.sqrt((1 + rho) / n), math.sqrt((1 - rho) / n)))
        b_n = drift_process(spec, lam)
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            run, along_path = 0.0, []
            for j in range(0, n, 2):
                # the sign of the running sum (+1 at zero) picks the pair's order
                (c1, d1), (c2, d2) = (hi, lo) if run >= 0 else (lo, hi)
                run += signs[j] * c1 + signs[j + 1] * c2
                along_path += [d1, d2]
            assert math.fsum(along_path) == pytest.approx(b_n, rel=1e-12)


class TestSolvers:
    def test_bar_frozen_example(self):
        lam = solve_lambda_bar(1.0, 0.01, 0.0, 1.0)
        assert lam == pytest.approx(2.0 / (math.sqrt(1.04) + 1.0), rel=1e-14)
        assert lam + 0.01 * lam**2 == pytest.approx(1.0, abs=1e-7)

    def test_under_frozen_example(self):
        lam = solve_lambda_under(1.0, 0.01, 0.0, 1.0)
        assert lam == pytest.approx(2.0 / (1.0 + math.sqrt(0.96)), rel=1e-14)
        assert lam - 0.01 * lam**2 == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_cases(self):
        assert solve_lambda_bar(3.0, 0.5, 0.0, 0.0) == 3.0
        assert solve_lambda_under(2.0, 1e-15, 0.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_constants_out_of_range(self):
        # the closed forms need epsilon > 0 and c >= 0
        for solve in (solve_lambda_bar, solve_lambda_under):
            for eps, c in ((0.0, 1.0), (-0.01, 1.0), (0.01, -1.0)):
                with pytest.raises(DomainError, match="epsilon must be > 0 and c >= 0"):
                    solve(1.0, eps, 0.0, c)

    def test_under_discriminant_error(self):
        # c*x*eps = 0.3 makes the discriminant 1 - 1.2 < 0
        with pytest.raises(DomainError):
            solve_lambda_under(0.3 / (1.0 * 0.01), 0.01, 0.0, 1.0)

    @given(
        st.floats(0.0, 20.0),
        st.floats(1e-4, 0.5),
        st.floats(0.0, 0.5),
        st.floats(0.0, 5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bar_residual_and_bracket(self, x, eps, delta, c):
        lam = solve_lambda_bar(x, eps, delta, c)
        residual = lam + lam * delta**2 + c * lam**2 * eps - x
        assert abs(residual) <= 1e-12 * max(1.0, x)
        assert lam <= x * (1 + 1e-12)

    @given(st.floats(0.0, 5.0), st.floats(1e-4, 0.1), st.floats(0.0, 0.1))
    @settings(max_examples=300, deadline=None)
    def test_under_residual_and_bracket(self, x, eps, delta):
        c = 1.0
        if (1 - delta**2) ** 2 - 4 * c * x * eps <= 1e-9:
            return
        lam = solve_lambda_under(x, eps, delta, c)
        residual = lam - lam * delta**2 - c * lam**2 * eps - x
        assert abs(residual) <= 1e-12 * max(1.0, x)
        assert x * (1 - 1e-12) <= lam
        if delta <= 0.1 and c * x * eps <= 0.01:
            assert lam <= 2 * x * (1 + 1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 8.0, 40)
        bars = [solve_lambda_bar(x, 0.02, 0.1, 1.0) for x in xs]
        unders = [solve_lambda_under(x, 0.002, 0.1, 1.0) for x in xs]
        assert all(b <= a + 1e-15 for b, a in zip(bars, bars[1:]))
        assert all(b <= a + 1e-15 for b, a in zip(unders, unders[1:]))
        # bar sits below x, under above, wherever both exist
        for x, b, u in zip(xs, bars, unders):
            assert b <= x * (1 + 1e-12) <= max(u, 1e-12) * (1 + 1e-9) or x == 0.0


class TestLemmaChecks:
    def test_moment_bounds_hold_at_minimal_eps(self):
        for d in (RADEMACHER, GAUSSIAN):
            # one unnormalized step: the minimal epsilon is the law's own H
            eps = conditions.certify(MartingaleSpec.iid(d, n=1)).epsilon
            report = check_lemma1(d, eps)
            assert report.holds, report.detail

    def test_moment_bounds_fail_below_minimal(self):
        report = check_lemma1(RADEMACHER, 0.1)
        assert not report.holds

    def test_gaussian_fitted_constants_zero(self):
        spec = MartingaleSpec.iid(GAUSSIAN, n=100, normalized=True)
        cert = conditions.certify(spec)
        grid = np.linspace(0.0, 0.5 / cert.epsilon, 11)
        reports = check_lemma2_lemma3(spec, grid)
        c2, c3 = fitted_constants(reports)
        assert c2 == 0.0 and c3 == 0.0
        for r in reports:
            assert r.b_n == r.lam
            assert r.psi_n == 0.5 * r.lam**2

    def test_zero_lambda_row(self):
        spec = MartingaleSpec.iid(RADEMACHER, n=100, normalized=True)
        (report,) = check_lemma2_lemma3(spec, [0.0])
        assert report.psi_n == 0.0 and report.b_n == 0.0
        assert report.lemma2_residual == 0.0 and report.lemma3_residual == 0.0

    def test_rademacher_fitted_constants_stable_in_n(self):
        cs = {}
        for n in (100, 400, 1600):
            spec = MartingaleSpec.iid(RADEMACHER, n=n, normalized=True)
            cert = conditions.certify(spec)
            grid = np.linspace(0.0, 0.5 / cert.epsilon, 41)
            reports = check_lemma2_lemma3(spec, grid)
            cs[n] = fitted_constants(reports)
            # at the fitted constants the two-sided bounds hold on every row
            c2, c3 = cs[n]
            for r in reports:
                bound2 = (r.lam * cert.delta**2 + c2 * r.lam**2 * cert.epsilon) * (1 + 1e-12)
                bound3 = c3 * r.lam**3 * cert.epsilon * (1 + 1e-12)
                assert abs(r.b_n - r.lam) <= bound2 + 1e-15
                assert abs(r.psi_n - r.lam**2 / 2) <= bound3 + 1e-15
        values2 = [cs[n][0] for n in (100, 400, 1600)]
        values3 = [cs[n][1] for n in (100, 400, 1600)]
        assert max(values2) <= 1.05 * min(values2)
        assert max(values3) <= 1.05 * min(values3)
        assert 0 < max(values2) < 5 and 0 < max(values3) < 5

    def test_varswitch_drift_cumulant_bounds(self):
        # the pair construction fixes B_n and Psi_n, so the two-sided bounds
        # reduce to an exact check over a single trajectory of constants
        spec = MartingaleSpec.variance_switching(RADEMACHER, n=50, rho=0.5)
        cert = conditions.certify(spec)
        assert cert.delta == 0.0
        grid = np.linspace(0.0, 0.5 / cert.epsilon, 21)
        reports = check_lemma2_lemma3(spec, grid)
        c2, c3 = fitted_constants(reports)
        assert 0 < c2 < 10 and 0 < c3 < 10

    def test_range_error_beyond_alpha_over_eps(self, monkeypatch):
        # a tilt outside [0, alpha/epsilon] anywhere in the grid, at
        # certify(spec)'s epsilon, is refused before B_n or Psi_n is read
        def no_work(*args):
            raise AssertionError("B_n or Psi_n was read for a refused grid")
        for spec in (MartingaleSpec.iid(RADEMACHER, n=100, normalized=True),
                     MartingaleSpec.variance_switching(RADEMACHER, n=50, rho=0.5),
                     MartingaleSpec.iid(GAUSSIAN, n=100, normalized=True)):
            eps = conditions.certify(spec).epsilon
            with monkeypatch.context() as m:
                for name in ("drift_process", "cumulant_process"):
                    m.setattr(tilting, name, no_work)
                for bad in (0.6 / eps, -0.1, math.nan):
                    with pytest.raises(DomainError, match="outside"):
                        check_lemma2_lemma3(spec, [0.0, 0.25 / eps, 0.5 / eps, bad])

    def test_whole_grid_in_one_call_each(self, monkeypatch):
        # B_n and Psi_n are read for the whole grid in one call each, and
        # every row has the bits of the one-tilt drift_process and
        # cumulant_process, at certify(spec)'s epsilon and delta
        for spec in (MartingaleSpec.iid(TABLE, n=60, normalized=True),
                     MartingaleSpec.variance_switching(RADEMACHER, n=50, rho=0.5),
                     MartingaleSpec.iid(GAUSSIAN, n=100, normalized=True)):
            cert = conditions.certify(spec)
            grid = np.linspace(0.0, 0.5 / cert.epsilon, 21)
            calls = []
            with monkeypatch.context() as m:
                for name in ("drift_process", "cumulant_process"):
                    real = getattr(tilting, name)
                    m.setattr(tilting, name, lambda s, lam, real=real, name=name:
                              calls.append(name) or real(s, lam))
                reports = check_lemma2_lemma3(spec, grid)
            assert sorted(calls) == ["cumulant_process", "drift_process"]
            for r, lam in zip(reports, grid.tolist(), strict=True):
                assert (r.lam, r.b_n, r.psi_n) == \
                    (lam, drift_process(spec, lam), cumulant_process(spec, lam))
                want = lam * cert.delta**2 + bounds.C * lam**2 * cert.epsilon
                assert r.lemma2_residual == abs(r.b_n - lam) - want

    def test_tilted_variance_perturbation_bound(self):
        # |tilted var - var| <= c * lam * eps * var with a finite fitted c
        spec = MartingaleSpec.iid(RADEMACHER, n=100, normalized=True)
        d = spec.iid_parts()[0][0]
        eps = conditions.certify(spec).epsilon
        var = d.variance
        cs = []
        for lam in np.linspace(0.01, 0.25 / eps, 30):
            dev = abs(tilted_variance(d, lam) - var)
            cs.append(dev / (lam * eps * var))
        c_fit = max(cs)
        assert 0 < c_fit < 10
        for lam in np.linspace(0.01, 0.25 / eps, 30):
            assert abs(tilted_variance(d, lam) - var) <= c_fit * lam * eps * var * (1 + 1e-12)
