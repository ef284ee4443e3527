import json

import pytest

from mlde.cli import argv_from_config, run


def read(path):
    return path.read_bytes()


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


class TestTail:
    def test_exact_enum_row(self, tmp_path):
        code = run(["tail", "--model", "rademacher", "--n", "20", "--normalized",
                    "--x", "2.0", "--method", "exact_enum", "--out", str(tmp_path)])
        assert code == 0
        header, row = (tmp_path / "tail.csv").read_text().strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["method"] == "exact_enum"
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


class TestSidecarRoundTrip:
    def test_rerun_from_sidecar(self, tmp_path):
        first = tmp_path / "first"
        assert run(["tail", "--model", "rademacher", "--n", "16", "--normalized",
                    "--x", "1.0", "--method", "tilted", "--samples", "30000",
                    "--seed", "21", "--out", str(first)]) == 0
        sidecar = json.loads((first / "tail.json").read_text())
        config = dict(sidecar["config"])
        config["out"] = str(tmp_path / "second")
        assert run(argv_from_config(sidecar["command"], config)) == 0
        assert read(first / "tail.csv") == read(tmp_path / "second" / "tail.csv")


class TestGridsAndLists:
    def test_bad_grid_exit(self, tmp_path):
        code = run(["ratio-table", "--model", "gaussian", "--n", "50", "--normalized",
                    "--x-grid", "5:1:0.5", "--out", str(tmp_path)])
        assert code == 2

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

    def test_conjugate_clt_lambda_list(self, tmp_path):
        code = run(["conjugate-clt", "--model", "rademacher", "--normalized",
                    "--n", "10", "--n-list", "100", "--lambda", "0,0.5,1",
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "conjugate_clt.csv").read_text().strip().splitlines()
        assert len(lines) == 4


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
