import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlde import cli, model, montecarlo
from mlde.cli import run
from mlde.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def read(path):
    return path.read_bytes()


def exit_code(argv):
    """run's exit code, also when argparse rejects a flag or its value."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestCertify:
    def test_json_record(self, tmp_path, capsys):
        code = run(["certify", "--model", "rademacher", "--n", "1200",
                    "--normalized", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"H", "N", "epsilon", "delta", "k_max", "slack",
                                "binding_k"}
        assert payload["epsilon"] == pytest.approx(0.008333, abs=1e-6)
        assert payload["delta"] == 0.0
        sidecar = json.loads((tmp_path / "certify.json").read_text())
        assert sidecar["certificate"]["epsilon"] == payload["epsilon"]

    def test_domain_error_exit_code(self, tmp_path):
        # unnormalized n=4 puts delta far outside its range
        code = run(["certify", "--model", "rademacher", "--n", "4",
                    "--out", str(tmp_path)])
        assert code == 3


class TestLargeValuedTables:
    # a moment past the double range reads as inf, so the certificate refuses
    # the law (exit 3), and a table whose variance overflows is a
    # configuration error (exit 2); the exact tail needs neither
    @pytest.mark.parametrize("scale, argv, code", [
        ("1e11", ["certify"], 3),
        ("1e20", ["ratio-table", "--x-grid", "0:2:1"], 3),
        ("1e20", ["lemmas"], 3),
        ("1e20", ["clt-rate", "--n-list", "10,100"], 3),
        ("1e200", ["tail", "--x", "1", "--method", "exact"], 2),
        ("1e20", ["tail", "--x", "1", "--method", "exact"], 0),
    ], ids=["certify", "ratio-table", "lemmas", "clt-rate", "tail-overflow", "tail"])
    def test_exit_code(self, tmp_path, scale, argv, code):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"values = -{scale}, {scale}\nprobs = 0.5, 0.5\n")
        out = tmp_path / "out"
        assert run([*argv, "--model", f"finite:{cfg}", "--n", "100", "--out", str(out)]) == code
        if argv[0] == "tail" and code == 0:
            assert (out / "tail.csv").read_bytes() == (
                b"x,p_hat,std_err,n_samples,method,seed,lambda_used\r\n"
                b"1.0,0.4602053813064105,0.0,0,exact_binomial,0,0.0\r\n")


class TestTail:
    def test_exact_enum_row(self, tmp_path):
        # exact_enum spells exact's one route: the same CSV, tagged with the
        # law's form, the binomial table of a two-atom iid law
        for method in ("exact", "exact_enum"):
            code = run(["tail", "--model", "rademacher", "--n", "20", "--normalized",
                        "--x", "2.0", "--method", method, "--out", str(tmp_path / method)])
            assert code == 0
        text = (tmp_path / "exact_enum" / "tail.csv").read_text()
        assert text == (tmp_path / "exact" / "tail.csv").read_text()
        header, row = text.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["method"] == "exact_binomial"
        assert float(cells["std_err"]) == 0.0
        assert float(cells["p_hat"]) == pytest.approx(0.020695, abs=1e-6)

    def test_tilted_near_exact(self, tmp_path):
        code = run(["tail", "--model", "rademacher", "--n", "20", "--normalized",
                    "--x", "2.0", "--method", "tilted", "--samples", "100000",
                    "--seed", "42", "--out", str(tmp_path)])
        assert code == 0
        header, row = (tmp_path / "tail.csv").read_text().strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["std_err"]) > 0.0
        assert abs(float(cells["p_hat"]) - 0.020695) <= 3.5 * float(cells["std_err"])

    def test_paper_lambda_policy(self, tmp_path):
        code = run(["tail", "--model", "rademacher", "--n", "20", "--normalized",
                    "--x", "2.0", "--method", "tilted", "--lambda", "paper",
                    "--samples", "50000", "--seed", "13", "--out", str(tmp_path)])
        assert code == 0
        header, row = (tmp_path / "tail.csv").read_text().strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        # closed-form largest root at c=1 sits below x
        assert 0.0 < float(cells["lambda_used"]) < 2.0

    def test_seed_mandatory(self, tmp_path):
        code = run(["tail", "--model", "rademacher", "--n", "8", "--normalized",
                    "--x", "0.5", "--method", "crude", "--out", str(tmp_path)])
        assert code == 2

    def test_repeat_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["tail", "--model", "varswitch", "--rho", "0.4", "--n", "10",
                        "--x", "0.8", "--method", "tilted", "--samples", "20000",
                        "--seed", "9", "--out", str(out)]) == 0
        assert read(a / "tail.csv") == read(b / "tail.csv")

    def test_non_finite_numbers_are_config_errors(self, tmp_path):
        tail = ["tail", "--model", "rademacher", "--normalized", "--n", "100"]
        tilted = [*tail, "--x", "1", "--method", "tilted", "--seed", "1",
                  "--samples", "1000"]
        for argv in ([*tail, "--x", "nan", "--method", "exact"],
                     [*tail, "--x", "inf", "--method", "exact"],
                     [*tilted, "--lambda", "nan"],
                     [*tilted, "--lambda", "inf"],
                     ["mdp", "--normalized", "--n", "10", "--x", "1", "--n-list", "100",
                      "--a-exponent", "nan", "--seed", "1", "--samples", "1000"]):
            assert exit_code([*argv, "--out", str(tmp_path)]) == 2, argv
        assert not list(tmp_path.glob("*.csv"))

    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        outs = []
        for workers in ("1", "8"):
            monkeypatch.setenv("MLDE_THREADS", workers)
            out = tmp_path / f"w{workers}"
            assert run(["tail", "--model", "rademacher", "--n", "20", "--normalized",
                        "--x", "2.0", "--method", "tilted", "--samples", "50000",
                        "--seed", "5", "--out", str(out)]) == 0
            outs.append(read(out / "tail.csv"))
        assert outs[0] == outs[1]

    def test_sample_cap(self, tmp_path):
        # 2^30 + 1 samples is refused before any row is computed
        too_many = str(montecarlo.MAX_SAMPLES + 1)
        rad = ["--model", "rademacher", "--normalized", "--n", "20", "--seed", "1",
               "--samples", too_many, "--out", str(tmp_path)]
        for argv in (["tail", "--x", "1", "--method", "crude"],
                     ["tail", "--x", "1", "--method", "tilted"],
                     ["ratio-table", "--x-grid", "0:2:1", "--method", "tilted"],
                     ["mdp", "--x", "1", "--n-list", "100"]):
            assert run([*argv, *rad]) == 2, argv
        assert not list(tmp_path.glob("*"))

    def test_parser_keeps_no_state(self, tmp_path):
        # one parser serves every run in a process: a flag given in one run
        # (--normalized, --seed) must not leak into the next
        base = ["tail", "--model", "rademacher", "--n", "20", "--x", "2.0",
                "--method", "tilted", "--samples", "20000"]
        argvs = [[*base, "--normalized", "--seed", "1"], [*base, "--seed", "1"],
                 [*base, "--normalized", "--seed", "2"]]

        def outputs(out):
            sidecar = json.loads((out / "tail.json").read_text())
            return read(out / "tail.csv"), sidecar["config"], sidecar["spec"]

        cli._build_parser.cache_clear()
        shared = []
        for i, argv in enumerate(argvs):
            assert run([*argv, "--out", str(tmp_path / str(i))]) == 0
            shared.append(outputs(tmp_path / str(i)))
        assert cli._build_parser.cache_info().misses == 1
        assert shared[0][2]["normalized"] and not shared[1][2]["normalized"]
        assert shared[0][0] != shared[2][0]  # the seed reached the sampler
        for i, argv in enumerate(argvs):
            cli._build_parser.cache_clear()
            assert run([*argv, "--out", str(tmp_path / str(i))]) == 0
            assert outputs(tmp_path / str(i)) == shared[i], argv


def argv_from_config(command: str, config: dict) -> list:
    """Rebuild an argv that reproduces a sidecar's run."""
    argv = [command]
    for key, value in sorted(config.items()):
        flag = "--" + key.replace("_", "-")
        if flag == "--lam":
            flag = "--lambda"
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


class TestSidecarRoundTrip:
    def test_rerun_from_sidecar(self, tmp_path):
        rad = ["--model", "rademacher", "--n", "16", "--normalized"]
        for stem, argv in (
            ("tail", ["tail", *rad, "--x", "1.0", "--method", "tilted",
                      "--samples", "30000", "--seed", "21"]),
            ("clt_rate", ["clt-rate", *rad, "--n-list", "100,400"]),
            ("conjugate_clt", ["conjugate-clt", *rad, "--n-list", "100,400",
                               "--lambda", "0,0.5"]),
        ):
            first, second = tmp_path / stem / "first", tmp_path / stem / "second"
            assert run([*argv, "--out", str(first)]) == 0
            sidecar = json.loads((first / f"{stem}.json").read_text())
            config = dict(sidecar["config"])
            config["out"] = str(second)
            assert run(argv_from_config(sidecar["command"], config)) == 0
            assert read(first / f"{stem}.csv") == read(second / f"{stem}.csv")

    def test_rate_sidecars_carry_lambdas_and_fitted_c(self, tmp_path):
        rad = ["--model", "rademacher", "--n", "16", "--normalized", "--n-list", "100,400"]
        assert run(["clt-rate", *rad, "--out", str(tmp_path)]) == 0
        assert run(["conjugate-clt", *rad, "--lambda", "0,0.5", "--out", str(tmp_path)]) == 0
        clt = json.loads((tmp_path / "clt_rate.json").read_text())
        conj = json.loads((tmp_path / "conjugate_clt.json").read_text())
        assert "lam" not in clt["config"]
        assert clt["results"]["lambdas"] == [0.0]
        assert conj["results"]["lambdas"] == [0.0, 0.5]
        assert len(clt["results"]["fitted_c"]) == 2
        assert conj["results"]["fitted_c"][:2] == clt["results"]["fitted_c"]


class TestGridsAndLists:
    def test_bad_grid_exit(self, tmp_path):
        # each is refused before a grid is allocated or a row is computed
        for command, flag, grid in (("ratio-table", "--x-grid", "5:1:0.5"),
                                    ("ratio-table", "--x-grid", "0:1e30:1"),
                                    ("ratio-table", "--x-grid", "0:nan:1"),
                                    ("lemmas", "--lambda-grid", "0:inf:1")):
            code = run([command, "--model", "gaussian", "--n", "50", "--normalized",
                        flag, grid, "--out", str(tmp_path)])
            assert code == 2, grid
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("method", ["exact", "crude"])
    def test_negative_threshold_is_domain_error(self, tmp_path, capsys, method):
        code = run(["ratio-table", "--model", "rademacher", "--normalized", "--n", "100",
                    "--x-grid=-2:1:0.5", "--method", method, "--samples", "1000",
                    "--seed", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "x >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_tilted_rows_past_the_support_top(self, tmp_path):
        # sqrt(20) = 4.472 is the largest X_20: the rows x = 4.5 and 5 hold the
        # exact P = 0, flagged infeasible, as the crude and exact tables write them
        rows = {}
        for method in ("tilted", "crude", "exact"):
            out = tmp_path / method
            assert run(["ratio-table", "--model", "rademacher", "--normalized",
                        "--n", "20", "--x-grid", "0:5:0.5", "--method", method,
                        "--samples", "1000", "--seed", "1", "--out", str(out)]) == 0
            lines = (out / "ratio.csv").read_text().strip().splitlines()
            rows[method] = [dict(zip(lines[0].split(","), line.split(",")))
                            for line in lines[1:]]
        for table in rows.values():
            assert len(table) == 11
            for row in table[-2:]:
                assert (row["p_hat"], row["std_err"], row["feasible"]) == ("0.0", "0.0", "false")
        for method in ("tilted", "exact"):  # 1000 crude draws miss P(X > 4) = 2^-20
            assert all(row["feasible"] == "true" for row in rows[method][:-2]), method

    def test_malformed_grid_and_list(self, tmp_path):
        with pytest.raises(ConfigError, match="a:b:step"):
            cli._parse_grid("1:2")
        with pytest.raises(ConfigError, match="n list"):
            cli._parse_n_list("1,x")
        assert run(["certify", "--model", "rademacher", "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    def test_grid_row_cap(self):
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_ROWS - 1}:1")) == cli.MAX_GRID_ROWS
        with pytest.raises(ConfigError):
            cli._parse_grid(f"0:{cli.MAX_GRID_ROWS}:1")

    def test_ratio_table_gaussian(self, tmp_path):
        code = run(["ratio-table", "--model", "gaussian", "--n", "100", "--normalized",
                    "--x-grid", "0:5:0.5", "--method", "exact", "--out", str(tmp_path)])
        assert code == 0
        sidecar = json.loads((tmp_path / "ratio.json").read_text())
        assert sidecar["results"]["fitted_c_star"] == 0.0
        lines = (tmp_path / "ratio.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 11

    def test_unsorted_n_list_rejected(self, tmp_path):
        code = run(["clt-rate", "--model", "rademacher", "--normalized",
                    "--n", "10", "--n-list", "1000,100", "--out", str(tmp_path)])
        assert code == 2

    def test_clt_rate(self, tmp_path):
        code = run(["clt-rate", "--model", "rademacher", "--normalized", "--n", "10",
                    "--n-list", "100,1000", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "clt_rate.csv").read_text().strip().splitlines()
        assert lines[0].startswith("lambda,n,epsilon,delta,ks_distance")
        assert len(lines) == 3

    def test_two_point_ks_size_guard(self, tmp_path):
        # 10^12 + 1 lattice atoms: refused before any array is allocated
        code = run(["clt-rate", "--model", "rademacher", "--normalized", "--n", "10",
                    "--n-list", "1000000000000", "--out", str(tmp_path)])
        assert code == 3
        assert not list(tmp_path.glob("*.csv"))

    def test_conjugate_clt_lambda_list(self, tmp_path):
        code = run(["conjugate-clt", "--model", "rademacher", "--normalized",
                    "--n", "10", "--n-list", "100", "--lambda", "0,0.5,1",
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "conjugate_clt.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        # every entry must be a number; the tilt policies do not apply here
        for lam in ("0,abc", "paper", "0,saddlepoint"):
            assert run(["conjugate-clt", "--model", "rademacher", "--normalized",
                        "--n-list", "100", "--lambda", lam, "--out", str(tmp_path)]) == 2
        # so must every tilt be finite, as every other number the CLI reads
        for lam in ("nan", "inf", "0,nan", "0.5,-inf"):
            assert run(["conjugate-clt", "--model", "rademacher", "--normalized",
                        "--n-list", "100", "--lambda", lam, "--out", str(tmp_path)]) == 2
        # a finite number outside the tilt range is a domain error
        assert run(["conjugate-clt", "--model", "rademacher", "--normalized",
                    "--n-list", "100", "--lambda", "0,-1", "--out", str(tmp_path)]) == 3

    def test_clt_rate_is_conjugate_clt_at_zero(self, tmp_path):
        # one code path: the same rows, byte for byte, under the two names
        for model in (["--model", "rademacher", "--normalized", "--n", "10"],
                      ["--model", "gaussian", "--normalized", "--n", "10"]):
            clt, conj = tmp_path / "clt", tmp_path / "conj"
            assert run(["clt-rate", *model, "--n-list", "1,100,1000",
                        "--out", str(clt)]) == 0
            assert run(["conjugate-clt", *model, "--n-list", "1,100,1000",
                        "--lambda", "0", "--out", str(conj)]) == 0
            assert read(clt / "clt_rate.csv") == read(conj / "conjugate_clt.csv")


    def test_varswitch_rate_rows(self, tmp_path):
        # two-part specs take the folded law: clt-rate is still conjugate-clt
        # at lambda 0, byte for byte, and past FOLD_CELLS both exit 3 before
        # writing anything
        vs = ["--model", "varswitch", "--rho", "0.5", "--n", "10"]
        clt, conj = tmp_path / "clt", tmp_path / "conj"
        assert run(["clt-rate", *vs, "--n-list", "20,200", "--out", str(clt)]) == 0
        assert run(["conjugate-clt", *vs, "--n-list", "20,200", "--lambda", "0",
                    "--out", str(conj)]) == 0
        assert read(clt / "clt_rate.csv") == read(conj / "conjugate_clt.csv")
        for argv in (["clt-rate"], ["conjugate-clt", "--lambda", "0.5"]):
            out = tmp_path / argv[0]
            assert run([*argv, *vs, "--n-list", "2048", "--out", str(out)]) == 3
            assert not list(out.glob("*.csv"))

    def test_three_point_varswitch_rows(self, tmp_path):
        # the oracle: each part's tilted law on the integer offsets of
        # {-1, 0, 2} by 100 plain convolutions, scaled by its branch's sd
        # sqrt((1 +- rho) / (1.5 n)) and folded over both parts
        cfg = tmp_path / "vs3.cfg"
        cfg.write_text("model = varswitch\nn = 200\nrho = 0.5\n" + THREE)
        assert run(["conjugate-clt", "--spec-file", str(cfg), "--n-list", "200",
                    "--lambda", "0,0.5,1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "conjugate_clt.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        for lam, row in zip((0.0, 0.5, 1.0), rows):
            atoms, pmf, shift = np.zeros(1), np.ones(1), 0.0
            for scale in (math.sqrt(1.5 / 300), math.sqrt(0.5 / 300)):
                tilt = np.array([0.5, 0.25, 0.0, 0.25]) * np.exp(lam * scale * np.arange(-1, 3))
                tilt /= tilt.sum()
                law = np.ones(1)
                for _ in range(100):
                    law = np.convolve(law, tilt)
                shift += 100 * scale * float(np.dot(np.arange(-1, 3), tilt))
                atoms = np.add.outer(atoms, scale * (np.arange(len(law)) - 100)).ravel()
                pmf = np.outer(pmf, law).ravel()
            order = np.argsort(atoms)
            atoms, cdf = atoms[order] - shift, np.cumsum(pmf[order])
            phi = np.array([0.5 * math.erfc(-a / math.sqrt(2.0)) for a in atoms])
            left = np.concatenate([[0.0], cdf[:-1]])
            want = float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))
            got = float(row[header.index("ks_distance")])
            assert float(row[header.index("lambda")]) == lam
            assert got == pytest.approx(want, rel=1e-11), lam


class TestMdpCommand:
    def test_normal_run(self, tmp_path):
        code = run(["mdp", "--model", "rademacher", "--normalized", "--n", "10",
                    "--x", "1.0", "--n-list", "4096", "--samples", "50000",
                    "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "mdp.csv").read_text().strip().splitlines()
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert cells["feasible"] == "true"
        assert float(cells["target"]) == -0.5

    def test_infeasible_exit_code(self, tmp_path):
        # crude sampling (lambda 0) cannot reach the rare event with 50 paths
        code = run(["mdp", "--model", "rademacher", "--normalized", "--n", "10",
                    "--x", "1.0", "--n-list", "4096", "--samples", "200",
                    "--seed", "3", "--lambda", "0", "--out", str(tmp_path)])
        assert code == 4
        # the row is still written, flagged infeasible
        lines = (tmp_path / "mdp.csv").read_text().strip().splitlines()
        assert "false" in lines[1]

    def test_threshold_past_the_support_top(self, tmp_path):
        # at n = 1 the threshold a_n x = 1 is the top of the support: the row is
        # the exact P = 0, written and flagged infeasible (exit 4)
        code = run(["mdp", "--model", "rademacher", "--normalized", "--n", "10",
                    "--x", "1", "--n-list", "1,4", "--samples", "1000",
                    "--seed", "1", "--out", str(tmp_path)])
        assert code == 4
        lines = (tmp_path / "mdp.csv").read_text().strip().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [r["feasible"] for r in rows] == ["false", "true"]
        assert (rows[0]["p_hat"], rows[0]["std_err"], rows[0]["p_exact"]) == ("0.0", "0.0", "0.0")


class TestLemmasCommand:
    def test_gaussian_zero_constants(self, tmp_path):
        code = run(["lemmas", "--model", "gaussian", "--n", "100", "--normalized",
                    "--out", str(tmp_path)])
        assert code == 0
        sidecar = json.loads((tmp_path / "lemmas.json").read_text())
        assert sidecar["results"]["fitted_c2"] == 0.0
        assert sidecar["results"]["fitted_c3"] == 0.0
        assert sidecar["results"]["moment_bounds_hold"] is True
        header = (tmp_path / "lemmas.csv").read_text().splitlines()[0]
        assert header == ("lambda,psi_n,b_n,lemma2_residual,lemma3_residual,"
                          "fitted_c2,fitted_c3")

    def test_varswitch_one_detail_per_part(self, tmp_path):
        code = run(["lemmas", "--model", "varswitch", "--n", "50", "--rho", "0.5",
                    "--out", str(tmp_path)])
        assert code == 0
        results = json.loads((tmp_path / "lemmas.json").read_text())["results"]
        assert results["moment_bounds_hold"] is True
        # Lemma 1 runs once on each iid part: the high and the low branch law
        assert len(results["moment_bounds_detail"]) == 2


RATE_COLUMNS = "lambda,n,epsilon,delta,ks_distance,bound_value,fitted_c"


class TestCsvSchemas:
    @pytest.mark.parametrize("argv, name, header", [
        (["tail", "--n", "20", "--normalized", "--x", "1", "--method", "exact"],
         "tail", "x,p_hat,std_err,n_samples,method,seed,lambda_used"),
        (["ratio-table", "--n", "100", "--normalized", "--x-grid", "0:1:0.5"],
         "ratio", "x,p_hat,std_err,gaussian_tail,ratio,log_ratio,theorem1_upper,"
                  "theorem2_lower,valid,feasible,regime,within_envelope_at_fitted_c"),
        (["clt-rate", "--normalized", "--n-list", "100"], "clt_rate", RATE_COLUMNS),
        (["conjugate-clt", "--normalized", "--n-list", "100", "--lambda", "0.5"],
         "conjugate_clt", RATE_COLUMNS),
        (["mdp", "--normalized", "--x", "1", "--n-list", "256", "--samples", "1000",
          "--seed", "1"],
         "mdp", "n,a_n,lambda,p_hat,std_err,p_exact,value,err_band,target,feasible,a_eps"),
        (["lemmas", "--n", "100", "--normalized"],
         "lemmas", "lambda,psi_n,b_n,lemma2_residual,lemma3_residual,fitted_c2,fitted_c3"),
    ])
    def test_header_is_documented_columns(self, tmp_path, argv, name, header):
        assert run([*argv, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{name}.csv").read_text().splitlines()[0] == header
        sidecar = json.loads((tmp_path / f"{name}.json").read_text())
        assert sidecar["files"] == [str(tmp_path / f"{name}.csv")]

    def test_certify_writes_only_its_sidecar(self, tmp_path):
        assert run(["certify", "--n", "1200", "--normalized", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["certify.json"]
        assert json.loads((tmp_path / "certify.json").read_text())["files"] == []

    def test_no_k_max_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["certify", "--n", "1200", "--normalized", "--k-max", "2",
                 "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--k-max" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tail", "--x", "1", "--method", "exact", "--c-alpha", "2"],
        ["ratio-table", "--x-grid", "0:1:0.5", "--c-alpha", "2"],
        ["ratio-table", "--x-grid", "0:1:0.5", "--alpha", "0.5"],
        ["lemmas", "--c-alpha", "2"],
        ["lemmas", "--alpha", "0.4"],
    ])
    def test_no_constant_flags(self, tmp_path, capsys, argv):
        # the theorems' constants are bounds.C, bounds.ALPHA and tilting.LEMMA_ALPHA
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--n", "100", "--normalized", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def _readme_cli():
    """README's ## CLI section: (its text, its mlde commands as argv lists)."""
    section = README.read_text().split("\n## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("mlde ")]
    return section, commands


class TestReadme:
    def test_examples_run(self, tmp_path):
        _, commands = _readme_cli()
        assert len(commands) == len(cli._COMMANDS)
        for i, argv in enumerate(commands):
            j = argv.index("--out")
            argv[j + 1] = str(tmp_path / str(i))
            assert run(argv) == 0, argv

    def test_flags_match_parser(self, capsys):
        section, _ = _readme_cli()
        accepted = set()
        for command in cli._COMMANDS:
            with pytest.raises(SystemExit):
                run([command, "--help"])
            accepted |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        assert documented <= accepted
        assert accepted - {"--help"} <= documented

    def test_method_list(self):
        section, _ = _readme_cli()
        (listed,) = re.findall(r"--method \{([^}]*)\}", section)
        assert tuple(listed.split("|")) == montecarlo.TAIL_METHODS

    def test_library_sketch_runs(self):
        # every name the sketch imports must still exist, and it must run
        section = README.read_text().split("\n## Library sketch", 1)[1].split("\n## ", 1)[0]
        block = section.split("```python", 1)[1].split("```", 1)[0]
        names = {}
        exec(block, names)
        est, oracle = names["est"], names["oracle"]
        assert names["cert"].delta == 0.0
        assert abs(est.p_hat - oracle.p_hat) <= 4.0 * est.std_err


class TestSpecFile:
    def test_load_spec_file(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("model = varswitch\nn = 8\nrho = 0.5\n")
        code = run(["certify", "--spec-file", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        sidecar = json.loads((tmp_path / "certify.json").read_text())
        assert sidecar["spec"]["model"] == "varswitch"
        assert sidecar["certificate"]["delta"] == 0.0

    def test_flags_override_file_values(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("model = varswitch\nn = 8\nrho = 0.5\n")
        code = run(["certify", "--spec-file", str(cfg), "--n", "32",
                    "--out", str(tmp_path)])
        assert code == 0
        sidecar = json.loads((tmp_path / "certify.json").read_text())
        assert sidecar["spec"]["n"] == 32
        assert sidecar["spec"]["rho"] == 0.5

    def test_gaussian_varswitch(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("model = varswitch\nn = 100\nrho = 0.5\nsigma2 = 2.0\n")
        assert run(["certify", "--spec-file", str(cfg), "--out", str(tmp_path)]) == 0
        spec = json.loads((tmp_path / "certify.json").read_text())["spec"]
        assert spec == {"model": "varswitch", "n": 100, "rho": 0.5, "sigma2": 2.0}
        cfg.write_text("model = rademacher\nn = 100\nsigma2 = 2.0\n")
        assert run(["certify", "--spec-file", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        missing = tmp_path / "missing.cfg"
        assert run(["certify", "--spec-file", str(missing), "--out", str(tmp_path)]) == 2
        assert run(["certify", "--model", f"finite:{missing}", "--n", "8",
                    "--out", str(tmp_path)]) == 2

    def test_unread_keys_are_config_errors(self, tmp_path):
        # keys the chosen model never reads, from flags or from a spec file
        for model in (["--model", "rademacher", "--rho", "0.5", "--normalized"],
                      ["--model", "varswitch", "--rho", "0.5", "--normalized"]):
            assert run(["certify", *model, "--n", "100", "--out", str(tmp_path)]) == 2
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("model = rademacher\nn = 100\nfoo = 1\n")
        assert run(["certify", "--spec-file", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "certify.json").exists()

    def test_varswitch_requires_rho(self, tmp_path):
        code = run(["certify", "--model", "varswitch", "--n", "8",
                    "--out", str(tmp_path)])
        assert code == 2

    def test_finite_model_path(self, tmp_path):
        table = tmp_path / "table.cfg"
        table.write_text(
            "model = finite\nn = 1\nvalues = -1.0, 0.0, 1.0\nprobs = 0.25, 0.5, 0.25\n"
        )
        code = run(["certify", "--model", f"finite:{table}", "--n", "64",
                    "--normalized", "--out", str(tmp_path)])
        assert code == 0

    def test_finite_target_is_a_spec_file(self, tmp_path):
        # the target's normalized applies: an unnormalized table at n = 100
        # would leave delta outside its range
        table = tmp_path / "table.cfg"
        table.write_text("values = -1, 0, 1\nprobs = 0.25, 0.5, 0.25\n"
                         "normalized = true\nn = 999\n")
        assert run(["certify", "--model", f"finite:{table}", "--n", "100",
                    "--out", str(tmp_path)]) == 0
        sidecar = json.loads((tmp_path / "certify.json").read_text())
        assert sidecar["certificate"]["delta"] == 0.0
        assert sidecar["spec"]["n"] == 100 and sidecar["spec"]["normalized"] is True

    @pytest.mark.parametrize(
        "extra", ["bogus = 7\n", "rho = 0.3\n", "model = varswitch\nrho = 0.3\n"],
        ids=["unknown-key", "rho", "varswitch-rho"])
    def test_finite_target_unread_key_is_config_error(self, tmp_path, capsys, extra):
        table = tmp_path / "table.cfg"
        table.write_text("values = -1, 0, 1\nprobs = 0.25, 0.5, 0.25\n"
                         "normalized = true\nn = 999\n" + extra)
        for argv in (["certify"], ["tail", "--x", "1", "--method", "exact"]):
            assert run([*argv, "--model", f"finite:{table}", "--n", "100",
                        "--out", str(tmp_path)]) == 2
        assert "does not read" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))

    def test_finite_target_needs_probs(self, tmp_path):
        table = tmp_path / "table.cfg"
        table.write_text("values = -1, 0, 1\n")
        assert run(["tail", "--model", f"finite:{table}", "--n", "100", "--normalized",
                    "--x", "1", "--method", "exact", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "tail.csv").exists()

    @pytest.mark.parametrize("text, method", [
        # more values than probs: a zip would drop the atom 2
        ("values = -1, 0, 2\nprobs = 0.5, 0.5\n", "exact"),
        ("values = 1\nprobs = 1\n", "exact"),
        ("values = 1, x\nprobs = 0.5, 0.5\n", "exact"),
        # non-finite law parameters
        ("values = -1, nan, 1\nprobs = 0.25, 0.5, 0.25\n", "exact"),
        ("values = -1, inf\nprobs = 0.5, 0.5\n", "exact"),
        ("values = -1, inf\nprobs = 0.5, 0.5\n", "crude"),
        ("model = rademacher\nscale = nan\n", "exact"),
        ("model = gaussian\nsigma2 = inf\n", "exact"),
    ], ids=["values-without-probs", "one-atom", "not-a-number", "nan-value",
            "inf-value-exact", "inf-value-crude", "nan-scale", "inf-sigma2"])
    def test_ill_formed_law_is_config_error(self, tmp_path, text, method):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(text)
        assert run(["tail", "--spec-file", str(cfg), "--n", "40", "--x", "1",
                    "--method", method, "--samples", "1000", "--seed", "3",
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "tail.csv").exists()

    @pytest.mark.parametrize("text", [
        "model = rademacher\nn = abc\n",
        "model = rademacher\nn = 4.5\n",
        "model = rademacher\nn = true\n",
        "model = varswitch\nn = 8\nrho = abc\n",
        "model = rademacher\nn = 8\nnormalized = no\n",
        "model = rademacher\nn = 8\nnormalized = 1\n",
        "model = rademacher\nn = 8\nscale = abc\n",
        "model = gaussian\nn = 8\nsigma2 = abc\n",
    ], ids=["n-text", "n-fraction", "n-bool", "rho-text", "normalized-no",
            "normalized-one", "scale-text", "sigma2-text"])
    def test_ill_typed_scalar_is_config_error(self, tmp_path, text):
        # each was a traceback (exit 1) or a silently different spec (n = 4,
        # normalized read as true)
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(text)
        assert run(["certify", "--spec-file", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "certify.json").exists()


THREE = "values = -1, 0, 2\nprobs = 0.5, 0.25, 0.25\n"
TWO = "values = -1, 1\nprobs = 0.5, 0.5\n"


class TestEqualLaws:
    """One law gives one spec and the same bytes however its table is written."""

    @pytest.mark.parametrize("text, same", [
        (THREE, "values = 2, -1, 0\nprobs = 0.25, 0.5, 0.25\n"),
        (THREE, "values = -1, 0, 2, 0\nprobs = 0.5, 0.125, 0.25, 0.125\n"),
        (THREE, "values = -1, 0, 5, 2\nprobs = 0.5, 0.25, 0, 0.25\n"),
        (TWO, "values = -1, 0, 1\nprobs = 0.5, 0, 0.5\n"),
        (TWO, "model = rademacher\n"),
    ], ids=["reordered", "split-atom", "zero-mass-atom", "zero-mass-two-point",
            "rademacher"])
    def test_same_spec_and_outputs(self, tmp_path, text, same):
        model_keys = "n = 40\nnormalized = true\n"
        specs = [model.spec_from_dict(model.parse_config_dict(t + model_keys))
                 for t in (text, same)]
        assert specs[0] == specs[1]
        commands = [["tail", "--x", "1", "--method", method, "--samples", "10000",
                     "--seed", "3"] for method in ("crude", "tilted", "exact")]
        commands.append(["conjugate-clt", "--n-list", "12", "--lambda", "0,0.5"])
        for argv in commands:
            outputs = []
            for i, t in enumerate((text, same)):
                cfg = tmp_path / f"spec{i}.cfg"
                cfg.write_text(t)
                out = tmp_path / f"out{i}"
                assert run([*argv, "--spec-file", str(cfg), "--n", "40", "--normalized",
                            "--out", str(out)]) == 0
                outputs.append(read(out / ("tail.csv" if argv[0] == "tail"
                                           else "conjugate_clt.csv")))
            assert outputs[0] == outputs[1], argv


class TestImports:
    def test_library_needs_no_scipy(self, tmp_path):
        # a fresh interpreter runs every subcommand and then finds no scipy
        # module loaded; a second one runs them with scipy made unimportable
        rad = ["--model", "rademacher", "--normalized"]
        three = tmp_path / "three.cfg"
        three.write_text("values = -1, 0, 2\nprobs = 0.5, 0.25, 0.25\n")
        commands = [
            ["certify", *rad, "--n", "100"],
            *[["tail", *rad, "--n", "20", "--x", "1", "--method", method,
               "--samples", "1000", "--seed", "1"] for method in montecarlo.TAIL_METHODS],
            ["tail", "--model", f"finite:{three}", "--normalized", "--n", "12",
             "--x", "1", "--method", "exact"],
            ["ratio-table", *rad, "--n", "100", "--x-grid", "0:2:1", "--method", "exact"],
            ["clt-rate", *rad, "--n", "10", "--n-list", "100,1000"],
            ["conjugate-clt", "--model", f"finite:{three}", "--normalized", "--n", "12",
             "--n-list", "12", "--lambda", "0,0.5"],
            ["mdp", *rad, "--n", "10", "--x", "1", "--n-list", "1000",
             "--samples", "1000", "--seed", "1"],
            ["lemmas", "--model", "gaussian", "--normalized", "--n", "100"],
        ]
        script = (
            "import json, sys\n"
            "if sys.argv[3] == 'blocked':\n"
            "    sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "from mlde.cli import run\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert run([*argv, '--out', sys.argv[2]]) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for mode in ("importable", "blocked"):
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands),
                                   str(tmp_path / "out"), mode],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            loaded = json.loads(proc.stdout.splitlines()[-1])
            assert loaded == ([] if mode == "importable" else ["scipy"]), (mode, loaded)
