"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Oracles are closed forms and exact enumerations computed here or in the
library's exact-oracle paths; no expected value below was invented.  Stated
runtime ceilings are asserted with the wall clock.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp
from scipy.stats import binom

from mlde import bounds, conditions, montecarlo, tilting
from mlde.cli import run as cli_run
from mlde.model import IncrementDistribution, MartingaleSpec
from mlde.montecarlo import (
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


def rademacher_spec(n):
    return MartingaleSpec.iid(RADEMACHER, n=n, normalized=True)


def gaussian_spec(n):
    return MartingaleSpec.iid(GAUSSIAN, n=n, normalized=True)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_gaussian_exactness():
    started = time.monotonic()
    result = ratio_experiment(gaussian_spec(400), np.arange(0.0, 5.0 + 1e-9, 0.25))
    worst = max(abs(r.ratio - 1.0) for r in result.rows)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and result.fitted_c_star == 0.0 and elapsed < 1.0
    assert report(
        1, ok,
        f"max |ratio-1| = {worst:.3g}, fitted c* = {result.fitted_c_star!r}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    cases = unequal = 0
    for n in range(1, 13):
        # every one of the 2^n sign paths, each of probability 2^-n
        signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
        for normalized in (False, True):
            spec = MartingaleSpec.iid(RADEMACHER, n=n, normalized=normalized)
            scale = max(abs(v) for v in spec.iid_parts()[0][0].values)
            path_sums = (signs * scale).sum(axis=1)
            # atoms sit at scale*(2k-n); thresholds at every midpoint between
            # atoms plus one beyond each end
            mids = scale * (2.0 * np.arange(-1, n + 1) - n + 1.0)
            for x in mids:
                binomial = exact_tail(spec, float(x))  # the binomial table
                assert binomial.method == "exact_binomial"
                b = binomial.p_hat
                # the CLI's exact_enum spelling reads the same route, to the bit
                e = estimate_tail(spec, float(x), "exact_enum", "saddlepoint", 0, 0)
                brute = np.count_nonzero(path_sums > x) / 2**n
                worst = max(worst, abs(b - brute))
                unequal += e != binomial
                cases += 1
    elapsed = time.monotonic() - started
    ok = unequal == 0 and worst <= 1e-14 and elapsed < 10.0
    assert report(2, ok, f"{cases} cases, binomial != enum in {unequal}, max "
                         f"|binomial - brute force| = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_03_is_unbiasedness_and_variance_ratio():
    started = time.monotonic()
    spec = rademacher_spec(20)
    x = 2.0
    samples = 100_000
    exact = exact_tail(spec, x).p_hat
    lam = saddlepoint_lambda(spec, x)
    hits = 0
    for seed in range(200):
        est = tilted_tail_estimate(spec, x, lam, samples, seed=seed)
        if abs(est.p_hat - exact) <= 3.5 * est.std_err:
            hits += 1
    tilt = tilted_tail_estimate(spec, x, lam, samples, seed=0)
    crude = crude_tail_estimate(spec, x, samples, seed=0)
    ratio = tilt.std_err / crude.std_err

    # Exact moments of the per-path estimate Z = 1{X_n > x} e^(Psi_n - t X_n)
    # under the t-tilted lattice law: E_t[Z^r] = sum_{atoms > x} pmf(k)
    # e^((r-1)(Psi_n(t) - t a_k)).  At t = 0 every weight is 1, and Z is the
    # crude estimator's indicator.
    s = max(abs(v) for v in spec.iid_parts()[0][0].values)
    k = np.arange(21)
    atoms = s * (2.0 * k - 20.0)
    hit = atoms > x
    log_pmf, atoms = binom.logpmf(k, 20, 0.5)[hit], atoms[hit]

    def moment(t, r):
        log_w = 20.0 * math.log(math.cosh(t * s)) - t * atoms
        return float(np.sum(np.exp(log_pmf + (r - 1) * log_w)))

    def exact_se(t):
        return math.sqrt((moment(t, 2) - exact**2) / samples)

    def se_rel_sd(t):
        # delta method: sd of sqrt(sample variance) over its mean is
        # sqrt((mu_4 / var^2 - 1) / N) / 2, mu_4 the central fourth moment
        m1, m2, m3, m4 = (moment(t, r) for r in (1, 2, 3, 4))
        var = m2 - m1**2
        mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
        return 0.5 * math.sqrt((mu4 / var**2 - 1.0) / samples)

    # log E_t[Z^2] = Psi_n(t) + log sum pmf(k) e^(-t a_k) is convex in t. Its
    # slope, Psi_n'(t) minus the mean hit atom under pmf(k) e^(-t a_k), is
    # negative at t = 0 and tends to (max atom - min hit atom) > 0, so its one
    # root is the variance-optimal tilt over all t >= 0.
    def slope(t):
        log_q = log_pmf - t * atoms
        mean_atom = float(np.sum(atoms * np.exp(log_q - logsumexp(log_q))))
        return 20.0 * s * math.tanh(t * s) - mean_atom

    hi = 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
    lam_opt = brentq(slope, 0.0, hi, xtol=1e-12)
    ratio_sp = exact_se(lam) / exact_se(0.0)
    ratio_opt = exact_se(lam_opt) / exact_se(0.0)
    z = 4.0  # delta-method standard deviations allowed for a measured se
    sd_tilt, sd_crude = se_rel_sd(lam), se_rel_sd(0.0)
    # (a) a 5 % excess in se costs about 10 % more samples than the best tilt
    near_opt = ratio_sp <= 1.05 * ratio_opt
    # (b) the reported standard errors are the exact ones
    se_ok = (abs(tilt.std_err / exact_se(lam) - 1.0) <= z * sd_tilt
             and abs(crude.std_err / exact_se(0.0) - 1.0) <= z * sd_crude)
    # (c) so the measured ratio is the exact one; the relative errors of the
    # two se subtract, so their sds add at worst
    ratio_ok = abs(ratio / ratio_sp - 1.0) <= z * (sd_tilt + sd_crude)
    elapsed = time.monotonic() - started
    ok = hits >= 198 and near_opt and se_ok and ratio_ok and elapsed < 120.0
    assert report(
        3, ok,
        f"{hits}/200 seeds within 3.5 se (need >= 198); exact std_err ratio "
        f"{ratio_sp:.4f} at lambda_sp = {lam:.4f} vs minimum {ratio_opt:.4f} "
        f"at lambda_opt = {lam_opt:.4f} (need <= 1.05x); measured ratio "
        f"{ratio:.4f} (need within {z:g} sd, {z * (sd_tilt + sd_crude):.2%}); "
        f"tilted / crude se vs exact {tilt.std_err / exact_se(lam):.4f} / "
        f"{crude.std_err / exact_se(0.0):.4f} (sd {sd_tilt:.2%} / "
        f"{sd_crude:.2%}); {elapsed:.1f}s",
    )


def test_criterion_04_ratio_envelope_constant_bounded():
    started = time.monotonic()
    c_stars = {}
    for n in (400, 1600, 6400):
        spec = rademacher_spec(n)
        eps = conditions.certify(spec).epsilon
        grid = np.linspace(0.0, 0.5 / eps, 101)
        c_stars[n] = ratio_experiment(spec, grid).fitted_c_star
    spread = max(c_stars.values()) / min(c_stars.values())
    elapsed = time.monotonic() - started
    ok = spread < 3.0 and elapsed < 60.0
    assert report(
        4, ok,
        "c* = " + ", ".join(f"{n}: {c:.4f}" for n, c in c_stars.items())
        + f"; spread factor {spread:.2f} (need < 3); {elapsed:.1f}s",
    )


def test_criterion_05_clt_rate_and_dominance():
    started = time.monotonic()
    rows = clt_rate_curve(rademacher_spec, [100, 1_000, 10_000])
    cs = [row.fitted_c for row in rows]
    spread = max(cs) / min(cs)
    # the bounded-increment comparison needs eps >= sqrt(3/(4n)); that holds
    # for the per-increment magnitude 1/sqrt(n), not for the (smaller)
    # moment-growth epsilon, so the check runs at the increment scale
    dominance_ok = True
    precondition_cases = 0
    for row in rows:
        eps_increment = 1.0 / math.sqrt(row.n)
        assert eps_increment >= math.sqrt(3.0 / (4.0 * row.n))
        precondition_cases += 1
        dominance_ok &= bounds.dominance_check(eps_increment, row.n)
        assert row.epsilon < math.sqrt(3.0 / (4.0 * row.n))  # Bernstein eps: vacuous
    elapsed = time.monotonic() - started
    ok = spread < 3.0 and dominance_ok and precondition_cases == 3 and elapsed < 60.0
    assert report(
        5, ok,
        f"fitted c = {[round(c, 4) for c in cs]}, spread {spread:.2f} (need < 3); "
        f"dominance holds in all {precondition_cases} admissible cases; {elapsed:.1f}s",
    )


def test_criterion_06_conjugate_rate_under_tilt(tmp_path):
    started = time.monotonic()
    lams = [0.0, 0.5, 1.0, 2.0]
    rows = {lam: conjugate_clt_check(rademacher_spec, lam, [10_000])[0] for lam in lams}
    fitted = {lam: rows[lam].fitted_c for lam in lams}
    c_fit = max(fitted.values())
    within = all(
        rows[lam].ks_distance <= c_fit * rows[lam].bound_value for lam in lams
    )
    spread = max(fitted.values()) / min(fitted.values())
    # the lambda = 0 row, cell for cell as repr, against what clt-rate writes
    assert cli_run(["clt-rate", "--model", "rademacher", "--normalized",
                    "--n-list", "10000", "--out", str(tmp_path)]) == 0
    cells = [repr(v if isinstance(v, int) else float(v)) for v in dataclasses.astuple(rows[0.0])]
    body = (tmp_path / "clt_rate.csv").read_text().splitlines()[1:]
    bit_identical = body == [",".join(cells)]
    elapsed = time.monotonic() - started
    ok = within and spread < 3.0 and bit_identical and elapsed < 60.0
    assert report(
        6, ok,
        f"fitted c across lambda = { {l: round(c, 4) for l, c in fitted.items()} }, "
        f"spread {spread:.2f}; lambda=0 row bit-identical to clt_rate.csv: {bit_identical}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_moment_drift_cumulant_checks():
    started = time.monotonic()
    # gaussian: exactly zero fitted constants
    gspec = gaussian_spec(100)
    gcert = conditions.certify(gspec)
    ggrid = np.linspace(0.0, 0.5 / gcert.epsilon, 26)
    greports = tilting.check_lemma2_lemma3(gspec, ggrid)
    g2, g3 = max(r.fitted_c2 for r in greports), max(r.fitted_c3 for r in greports)
    gauss_zero = g2 == 0.0 and g3 == 0.0
    gauss_lemma1 = tilting.check_lemma1(gspec.iid_parts()[0][0], gcert.epsilon).holds

    all_hold = True
    for n in (100, 400):
        spec = rademacher_spec(n)
        cert = conditions.certify(spec)
        assert tilting.check_lemma1(spec.iid_parts()[0][0], cert.epsilon).holds
        grid = np.linspace(0.0, 0.5 / cert.epsilon, 26)
        reports = tilting.check_lemma2_lemma3(spec, grid)
        c2, c3 = max(r.fitted_c2 for r in reports), max(r.fitted_c3 for r in reports)
        for r in reports:
            ok2 = abs(r.b_n - r.lam) <= (r.lam * cert.delta**2
                                         + c2 * r.lam**2 * cert.epsilon) * (1 + 1e-12)
            ok3 = abs(r.psi_n - r.lam**2 / 2) <= (c3 * r.lam**3 * cert.epsilon
                                                  + r.lam**2 * cert.delta**2 / 2) * (1 + 1e-12)
            all_hold &= (ok2 and ok3) or r.lam == 0.0
        all_hold &= math.isfinite(c2) and math.isfinite(c3)
    elapsed = time.monotonic() - started
    ok = gauss_zero and gauss_lemma1 and all_hold and elapsed < 10.0
    assert report(
        7, ok,
        f"gaussian fitted (c2, c3) = ({g2!r}, {g3!r}); all families hold at "
        f"fitted constants: {all_hold}; {elapsed:.1f}s",
    )


def test_criterion_08_solver_residuals_and_brackets():
    started = time.monotonic()
    xs = np.linspace(0.01, 20.0, 35)
    epss = np.logspace(-4, math.log10(0.5), 10)
    deltas = [0.0, 0.05, 0.1, 0.25, 0.5]
    cs = [0.5, 1.0, 2.0, 5.0]
    points = 0
    worst_resid = 0.0
    brackets_ok = True
    for x in xs:
        for eps in epss:
            for delta in deltas:
                for c in cs:
                    lam = tilting.solve_lambda_bar(x, eps, delta, c)
                    resid = abs(lam + lam * delta**2 + c * lam**2 * eps - x)
                    worst_resid = max(worst_resid, resid / max(1.0, x))
                    brackets_ok &= lam <= x * (1 + 1e-12)
                    if x * eps <= 1.0:  # inside the stated range x <= alpha/eps
                        floor = 2.0 / (math.sqrt((1 + delta**2) ** 2 + 4 * c) + 1 + delta**2)
                        brackets_ok &= lam >= floor * x * (1 - 1e-12)
                    points += 1
                    disc = (1 - delta**2) ** 2 - 4 * c * x * eps
                    if disc > 1e-12:
                        lam_u = tilting.solve_lambda_under(x, eps, delta, c)
                        resid = abs(lam_u - lam_u * delta**2 - c * lam_u**2 * eps - x)
                        worst_resid = max(worst_resid, resid / max(1.0, x))
                        brackets_ok &= lam_u >= x * (1 - 1e-12)
                        if delta <= 0.1 and c * x * eps <= 0.01:
                            brackets_ok &= lam_u <= 2 * x * (1 + 1e-12)
                        points += 1
    elapsed = time.monotonic() - started
    ok = points >= 10_000 and worst_resid <= 1e-12 and brackets_ok and elapsed < 5.0
    assert report(
        8, ok,
        f"{points} grid points, worst residual / max(1,x) = {worst_resid:.2e} "
        f"(need <= 1e-12), brackets hold: {brackets_ok}; {elapsed:.1f}s",
    )


def test_criterion_09_mdp_diagnostic():
    started = time.monotonic()
    rows = mdp_diagnostic(rademacher_spec, 0.25, 1.0, [10_000],
                          samples=100_000, seed=424242)
    row = rows[0]
    rel_dev = abs(row.value - (-0.5)) / 0.5
    cross_ok = abs(row.p_hat - row.p_exact) <= 3.5 * row.std_err
    # independent oracle: the event X_n > 10 is the lattice walk exceeding 1000
    p_oracle = float(binom.sf(5500, 10_000, 0.5))
    oracle_ok = row.p_exact == pytest.approx(p_oracle, rel=1e-12)
    elapsed = time.monotonic() - started
    ok = row.feasible and rel_dev <= 0.15 and cross_ok and oracle_ok and elapsed < 300.0
    assert report(
        9, ok,
        f"(1/a^2) log p_hat = {row.value:.4f} vs -0.5 (rel dev {rel_dev:.1%}, "
        f"need <= 15%); cross-check within 3.5 se: {cross_ok}; {elapsed:.1f}s",
    )


def test_criterion_10_worker_count_determinism(tmp_path, monkeypatch):
    started = time.monotonic()
    # three-point varswitch at n = 4000 (6001^2 cells, past the byte budget)
    # is drawn one by one, its 30,000 draws priced at 18 ms: pooled by the rule
    (tmp_path / "vs3.cfg").write_text(
        "model = varswitch\nn = 4000\nrho = 0.5\nvalues = -1, 0, 2\nprobs = 0.5, 0.25, 0.25\n")
    per_draw = []
    draw = montecarlo._per_draw_sums
    monkeypatch.setattr(montecarlo, "_per_draw_sums",
                        lambda *args: per_draw.append(args[-1]) or draw(*args))
    runs = {
        "tail-tilted": ["tail", "--model", "rademacher", "--n", "20", "--normalized",
                        "--x", "2.0", "--method", "tilted", "--samples", "100000",
                        "--seed", "42"],
        "tail-crude": ["tail", "--model", "rademacher", "--n", "20", "--normalized",
                       "--x", "2.0", "--method", "crude", "--samples", "100000",
                       "--seed", "42"],
        "tail-varswitch": ["tail", "--model", "varswitch", "--rho", "0.4", "--n", "12",
                           "--x", "0.8", "--method", "tilted", "--samples", "50000",
                           "--seed", "7"],
        "mdp": ["mdp", "--model", "rademacher", "--normalized", "--n", "10",
                "--x", "1.0", "--n-list", "10000", "--samples", "100000",
                "--seed", "424242"],
        "tail-varswitch-per-draw": ["tail", "--spec-file", str(tmp_path / "vs3.cfg"),
                                    "--x", "2", "--method", "tilted", "--samples", "30000",
                                    "--seed", "7"],
    }
    assert cli_run(runs["tail-varswitch-per-draw"] + ["--out", str(tmp_path / "own")]) == 0
    pooled = per_draw == [True]  # at the rule's own _POOL_S
    all_equal = True
    for name, argv in runs.items():
        payloads = set()
        # the pool forced off (_POOL_S = inf) and on (_POOL_S = 0) at 1, 2 and 8 CPUs
        for pool_s, cpus in ((math.inf, 1), (0.0, 1), (0.0, 2), (0.0, 8)):
            monkeypatch.setattr(montecarlo, "_POOL_S", pool_s)
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
            out = tmp_path / f"{name}-{pool_s}-{cpus}"
            code = cli_run(argv + ["--out", str(out)])
            assert code == 0, name
            csvs = sorted(out.glob("*.csv"))
            payloads.add(b"".join(p.read_bytes() for p in csvs))
        all_equal &= len(payloads) == 1
    elapsed = time.monotonic() - started
    ok = all_equal and pooled and elapsed < 120.0
    assert report(
        10, ok,
        f"{len(runs)} stochastic runs byte-identical, pool off and on at 1, 2 and 8 CPUs: "
        f"{all_equal}; the per-draw spec pooled by the rule: {pooled}; {elapsed:.1f}s",
    )
