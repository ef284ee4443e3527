"""Smoke check of the benchmark itself.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

``test_runs`` runs every workload once at reduced length, untraced and
traced, the way BENCHMARK.json's command is run, and asserts that every
listed metric is emitted with its unit and that no operation fails.
``test_reference_values`` re-derives the exact values stored in
reference.json from ``oracles`` and closed forms, without mlde, so the stored
references are known to be right and not merely what one commit printed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs():
    for w in SPEC["workloads"]:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run_bench(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in listed]
            for m in listed:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert math.isfinite(got["value"]), (m, got)
            if not trace:
                assert result["metrics"]["ok_frac"]["value"] == 1.0
                for name in ("setup_s", "wall_s", "peak_rss_mb"):
                    assert result["metrics"][name]["value"] > 0.0


def _on_an_end(value: float, interval) -> bool:
    """True when value equals (to REL_TOL) one end of an exact tail interval."""
    return any(abs(value - end) <= workloads.REL_TOL * end for end in interval)


def _rows(name):
    ref = workloads.REFERENCE[name]
    return [dict(zip(ref["columns"], row)) for row in ref["rows"]]


def _lattice_ks(values, probs, shift, scale) -> float:
    """sup |F - Phi| for X = scale * V - shift, V on the sorted integer values."""
    atoms = scale * np.asarray(values, dtype=float) - shift
    cdf = np.cumsum(probs)
    left = np.concatenate([[0.0], cdf[:-1]])
    phi = np.array([0.5 * math.erfc(-a / math.sqrt(2.0)) for a in atoms])
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= workloads.REL_TOL * abs(want)


def test_reference_values():
    (row,) = _rows("tail-three14-enum")
    assert _on_an_end(row["p_hat"], oracles.iid_tail(oracles.THREE_POINT, 14, 1.0))
    (row,) = _rows("tail-varswitch22-exact")
    assert _on_an_end(row["p_hat"], oracles.varswitch_tail(oracles.RADEMACHER, 22, 0.5, 1.0))

    law = oracles.iid_sum(oracles.RADEMACHER, 6400)
    for i, row in enumerate(_rows("ratio-rademacher6400-exact")):
        if row["p_hat"] > 0.0:
            assert _on_an_end(row["p_hat"], oracles.scaled_tail(law, 1 / 80, i * 0.8)), i

    # normalized Rademacher: odd moments vanish, so the order-4 term binds
    for n, row in zip((100, 1000, 10000, 100000, 1000000), _rows("clt-rate-rademacher")):
        eps = math.sqrt(1 / 12) / math.sqrt(n)
        budget = eps * abs(math.log(eps))
        assert _close(row["epsilon"], eps) and row["delta"] == 0.0
        assert _close(row["bound_value"], budget)
        assert _close(row["fitted_c"], row["ks_distance"] / budget)
        if n <= 10000:  # exact integer weights get slow beyond this
            law = oracles.iid_sum(oracles.RADEMACHER, n)
            probs = [w / law.denom for w in law.weights]
            assert _close(row["ks_distance"], _lattice_ks(law.values, probs, 0.0, n**-0.5))

    values, weights, denom = oracles.THREE_POINT
    scale = 1 / math.sqrt(12 * oracles.variance(oracles.THREE_POINT))
    for lam, row in zip((0.0, 0.5, 1.0), _rows("conjugate-clt-three12")):
        tilt = np.array([w * math.exp(lam * scale * v) for v, w in zip(values, weights)])
        tilt /= tilt.sum()
        step = np.zeros(max(values) - min(values) + 1)
        step[np.asarray(values) - min(values)] = tilt
        probs = np.array([1.0])
        for _ in range(12):
            probs = np.convolve(probs, step)
        support = np.arange(len(probs)) + 12 * min(values)
        drift = 12 * scale * float(np.dot(values, tilt))
        assert _close(row["ks_distance"], _lattice_ks(support, probs, drift, scale)), lam

    (row,) = _rows("certify-rademacher1200")
    assert _close(row["H"], math.sqrt(1 / 12)) and row["binding_k"] == 4
    assert _close(row["epsilon"], math.sqrt(1 / 12) / math.sqrt(1200))
    assert row["delta"] == 0.0 and row["N"] == 0.0 and _close(row["slack"], 1.0)

    # normalized gaussian: Psi_n = lam^2 / 2 and B_n = lam exactly
    for row in _rows("lemmas-gaussian100"):
        if row["lambda"] > 0.0:
            assert _close(row["psi_n"], row["lambda"] ** 2 / 2)
            assert _close(row["b_n"], row["lambda"])


if __name__ == "__main__":
    test_reference_values()
    print("reference values: ok")
    test_runs()
    print("runs: ok")
