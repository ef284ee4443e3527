"""The benchmark's workloads: fixed CLI operations and the checks on their output.

Each operation is one ``mlde`` CLI call.  Monte Carlo operations are checked
against exact references from ``oracles`` (independent of mlde): every row
must satisfy |p_hat - p_exact| / std_err <= Z_MAX.  Exact operations must
match the values stored in ``reference.json`` to a relative REL_TOL on every
row whose stored probability is positive; rows where the program underflows
to 0 are what the ``infeasible_rows`` count tracks, not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import oracles

Z_MAX = 5.0
REL_TOL = 1e-9
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

THREE_POINT_SPEC = "values = -1, 0, 2\nprobs = 0.5, 0.25, 0.25\n"
VARSWITCH_SPEC = "model = varswitch\nn = 200\nrho = 0.5\n" + THREE_POINT_SPEC


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    name: str
    argv: list
    output: str                 # file the subcommand writes
    paths: int = 0              # paths sampled per call
    path_steps: int = 0         # sum over sampled paths of their step counts
    atoms: int = 0              # lattice atoms (support points of X_n) the KS covers
    support_top: float = 0.0    # ratio tables: P(X_n > x) > 0 for every x below this
    intervals: list = field(default_factory=list)  # Monte Carlo: exact (lo, hi) per row

    def read(self, out_dir: Path):
        """(bytes to hash, rows as dicts) of the op's output."""
        path = out_dir / self.output
        if self.output.endswith(".json"):
            # certify writes no CSV; its certificate is the deterministic part
            cert = json.loads(path.read_text())["certificate"]
            return json.dumps(cert, sort_keys=True).encode(), [cert]
        data = path.read_bytes()
        return data, list(csv.DictReader(data.decode().splitlines()))

    def check(self, rows):
        """(ok, largest |z| or None, detail)."""
        if self.intervals:
            return _check_monte_carlo(rows, self.intervals)
        return _check_stored(rows, REFERENCE[self.name])


def _check_monte_carlo(rows, intervals):
    if len(rows) != len(intervals):
        return False, None, f"{len(rows)} rows, expected {len(intervals)}"
    worst = 0.0
    for row, (lo, hi) in zip(rows, intervals):
        p, se = float(row["p_hat"]), float(row["std_err"])
        gap = max(lo - p, p - hi, 0.0)
        if gap == 0.0:
            continue
        z = gap / se if se > 0.0 else math.inf
        worst = max(worst, z)
    ok = worst <= Z_MAX
    return ok, worst, "" if ok else f"|z| = {worst:.3g} > {Z_MAX}"


def _check_stored(rows, ref):
    columns = ref["columns"]
    if len(rows) != len(ref["rows"]):
        return False, None, f"{len(rows)} rows, expected {len(ref['rows'])}"
    for i, (row, want) in enumerate(zip(rows, ref["rows"])):
        if not want[0] > 0.0:
            continue
        for col, w in zip(columns, want):
            got = float(row[col])
            if not abs(got - w) <= REL_TOL * abs(w):
                return False, None, f"row {i} {col} = {got!r}, expected {w!r}"
    return True, None, ""


def _op_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _varswitch_is(spec_dir: Path, seed: int):
    spec = spec_dir / "varswitch3.cfg"
    vs = ["--model", "varswitch", "--n", "200", "--rho", "0.5"]
    cases = [
        ("tail-varswitch-tilted-x2", vs, 2.0, "tilted", oracles.RADEMACHER),
        ("tail-varswitch-crude-x1", vs, 1.0, "crude", oracles.RADEMACHER),
        ("tail-varswitch3-tilted-x2", ["--spec-file", str(spec)], 2.0, "tilted",
         oracles.THREE_POINT),
    ]
    return [
        Op(name, ["tail", *model, "--x", str(x), "--method", method,
                  "--samples", "100000", "--seed", str(_op_seed(seed, name))],
           "tail.csv", paths=100_000, path_steps=100_000 * 200,
           intervals=[oracles.varswitch_tail(law, 200, 0.5, x)])
        for name, model, x, method, law in cases
    ]


def _iid_sweep(spec_dir: Path, seed: int):
    three = f"finite:{spec_dir / 'three_point.cfg'}"
    rad = ["--model", "rademacher", "--normalized"]
    grid = [0.5 * k for k in range(1, 41)]
    rad1600 = oracles.iid_sum(oracles.RADEMACHER, 1600)
    n_list = (100, 1000, 10000)

    def seeded(name):
        return ["--seed", str(_op_seed(seed, name))]

    return [
        Op("tail-rademacher20-tilted",
           ["tail", *rad, "--n", "20", "--x", "2", "--method", "tilted",
            "--samples", "1000000", *seeded("tail-rademacher20-tilted")],
           "tail.csv", paths=1_000_000, path_steps=1_000_000 * 20,
           intervals=[oracles.iid_tail(oracles.RADEMACHER, 20, 2.0)]),
        Op("tail-three400-tilted",
           ["tail", "--model", three, "--normalized", "--n", "400", "--x", "3",
            "--method", "tilted", "--samples", "1000000",
            *seeded("tail-three400-tilted")],
           "tail.csv", paths=1_000_000, path_steps=1_000_000 * 400,
           intervals=[oracles.iid_tail(oracles.THREE_POINT, 400, 3.0)]),
        Op("ratio-rademacher1600-tilted",
           ["ratio-table", *rad, "--n", "1600", "--x-grid", "0.5:20:0.5",
            "--method", "tilted", "--samples", "20000",
            *seeded("ratio-rademacher1600-tilted")],
           "ratio.csv", paths=20_000 * len(grid), path_steps=20_000 * len(grid) * 1600,
           support_top=40.0,
           intervals=[oracles.scaled_tail(rad1600, 1 / 40, x) for x in grid]),
        Op("mdp-rademacher",
           ["mdp", *rad, "--n", "10", "--x", "1.0", "--n-list", "100,1000,10000",
            "--samples", "100000", *seeded("mdp-rademacher")],
           "mdp.csv", paths=100_000 * len(n_list), path_steps=100_000 * sum(n_list),
           intervals=[oracles.iid_tail(oracles.RADEMACHER, n, n**0.25)
                      for n in n_list]),
        Op("certify-rademacher1200",
           ["certify", *rad, "--n", "1200"], "certify.json"),
        Op("lemmas-gaussian100",
           ["lemmas", "--model", "gaussian", "--normalized", "--n", "100"],
           "lemmas.csv"),
    ]


def _exact_oracles(spec_dir: Path, seed: int):
    three = f"finite:{spec_dir / 'three_point.cfg'}"
    clt_n = (100, 1000, 10000, 100000, 1000000)
    return [
        Op("clt-rate-rademacher",
           ["clt-rate", "--model", "rademacher", "--normalized", "--n", "10",
            "--n-list", ",".join(map(str, clt_n))],
           "clt_rate.csv", atoms=sum(n + 1 for n in clt_n)),
        Op("conjugate-clt-three12",
           ["conjugate-clt", "--model", three, "--normalized", "--n", "12",
            "--n-list", "12", "--lambda", "0,0.5,1"],
           "conjugate_clt.csv", atoms=3 * (3 * 12 + 1)),
        Op("tail-three14-enum",
           ["tail", "--model", three, "--normalized", "--n", "14", "--x", "1",
            "--method", "exact_enum"], "tail.csv"),
        Op("tail-varswitch22-exact",
           ["tail", "--model", "varswitch", "--n", "22", "--rho", "0.5", "--x", "1",
            "--method", "exact"], "tail.csv"),
        Op("ratio-rademacher6400-exact",
           ["ratio-table", "--model", "rademacher", "--normalized", "--n", "6400",
            "--x-grid", "0:80:0.8", "--method", "exact"],
           "ratio.csv", support_top=80.0),
    ]


# Why each workload (also in BENCHMARK.json):
# - varswitch-is: nearly all time is the per-step sign-switching loop of the
#   tilted and crude estimators; no enumeration, one tilt solve per call.
# - iid-sweep: many short estimator calls on the sufficient-statistic
#   samplers, so per-call set-up (bisection, certificates, and the thread pool
#   in the 2-worker passes) shows.
# - exact-oracles: no random numbers; all time is in the exact oracles
#   (lattice KS, enumeration, binomial tails), the bypass case for sampler work.
WORKLOADS = {  # name -> (spec_dir, seed) -> [Op]
    "varswitch-is": _varswitch_is,
    "iid-sweep": _iid_sweep,
    "exact-oracles": _exact_oracles,
}


def write_specs(spec_dir: Path) -> None:
    (spec_dir / "three_point.cfg").write_text(THREE_POINT_SPEC)
    (spec_dir / "varswitch3.cfg").write_text(VARSWITCH_SPEC)
