"""mlde benchmark: run one workload in-process through ``mlde.cli.run``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; mlde is imported from its ``src/``
(never from an installed copy), and outputs go to a scratch directory inside
the checkout that is removed at exit.

``--trace 0`` measures the end-to-end metrics with nothing patched:
``setup_s`` is the median time of SETUP_REPEATS fresh interpreters running
``import mlde.cli``; after one warm-up pass at CHECK_THREADS workers, the
workload's operations run pass after pass at TIMED_THREADS for up to
``--seconds`` seconds and ``wall_s`` is the median pass time.  Timing one
worker leaves the host's second core to everything else, which keeps the
scheduler out of the figure on a small shared machine.  ``--trace 1`` alternates untraced and
traced passes (see ``tracer``) and reports per-layer metrics, including the
tracing overhead and ``-X importtime`` figures.

Every operation's output is checked (see ``workloads``) and hashed; an
operation fails when it exits non-zero, raises, fails its check, or writes
bytes that differ from its warm-up pass.  The last stdout line is the result
object; the line before it is a report with provenance and per-operation
detail.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TIMED_THREADS = 1   # MLDE_THREADS of the timed passes
CHECK_THREADS = 2   # warm-up (its bytes must match) and the speed-up passes
IMPORT_REPEATS = 3
LAYERS = ("cli", "model", "conditions", "tilting", "bounds", "montecarlo")
ESTIMATORS = ("montecarlo.tilted_tail_estimate", "montecarlo.crude_tail_estimate")
IMPORTS = ("mlde", "mlde.cli", "mlde.model", "mlde.conditions", "mlde.tilting",
           "mlde.bounds", "mlde.montecarlo", "numpy", "scipy.integrate",
           "scipy.optimize", "scipy.stats")


def _die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_mlde() -> dict:
    """The mlde modules of this checkout, by layer name."""
    if not (SRC / "mlde" / "cli.py").is_file():
        _die(f"no mlde sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mlde.cli
    if Path(mlde.cli.__file__).resolve().parent != (SRC / "mlde").resolve():
        _die(f"imported mlde from {mlde.cli.__file__}, not from {SRC}")
    return {name: sys.modules[f"mlde.{name}"] for name in LAYERS}


# -- measurements --------------------------------------------------------------

def fresh_import(*flags):
    """(seconds, stderr) of a fresh interpreter running ``import mlde.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import mlde.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        _die(f"fresh import failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def import_times() -> dict:
    """Median cumulative ``-X importtime`` seconds of the IMPORTS modules."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_REPEATS):
        seen = {}
        for line in fresh_import("-X", "importtime")[1].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in IMPORTS:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def measuring(seconds: float):
    """Yield once per measured round, at least once, and stop when another
    round as long as the last would end more than ``seconds`` after the start."""
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return
        start = now
        yield


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Book:
    """Outcome of every operation run: failures, hashes, check results."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.first = {}      # op name -> (sha256, rows, (ok, z, detail))
        self.seconds = {}    # op name -> durations

    def record(self, op, out_dir, elapsed, error):
        self.attempted += 1
        self.seconds.setdefault(op.name, []).append(elapsed)
        if error is None:
            try:
                data, rows = op.read(out_dir)
                digest = hashlib.sha256(data).hexdigest()
                if op.name not in self.first:
                    self.first[op.name] = (digest, rows, op.check(rows))
            except (OSError, KeyError, ValueError) as exc:  # missing file or column
                self.failures.append(f"{op.name}: unreadable output: {exc!r}")
                return
            first_digest, _, (ok, _, detail) = self.first[op.name]
            if digest != first_digest:
                error = f"output sha256 {digest[:12]} differs from first pass {first_digest[:12]}"
            elif not ok:
                error = detail
        if error is not None:
            self.failures.append(f"{op.name}: {error}")

    def max_abs_z(self) -> float:
        zs = [z for _, _, (_, z, _) in self.first.values() if z is not None]
        return max(zs, default=0.0)

    def infeasible_rows(self, ops) -> int:
        """Ratio rows flagged infeasible although x is below the top of the support."""
        count = 0
        for op in ops:
            if op.support_top and op.name in self.first:
                rows = self.first[op.name][1]
                count += sum(row["feasible"] == "false" and float(row["x"]) < op.support_top
                             for row in rows)
        return count


def run_op(cli, op, out_dir: Path, threads: int):
    """(seconds, error or None) of one CLI call."""
    os.environ["MLDE_THREADS"] = str(threads)
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run([*op.argv, "--out", str(out_dir)])
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit {code}: {sink.getvalue().strip()[-300:]}"
    return elapsed, error


def run_pass(cli, ops, work: Path, threads: int, book: Book) -> float:
    """Run every op once; the pass time is the sum of the CLI calls' times."""
    total = 0.0
    for op in ops:
        out_dir = work / op.name
        elapsed, error = run_op(cli, op, out_dir, threads)
        total += elapsed
        book.record(op, out_dir, elapsed, error)
    return total


# -- provenance ------------------------------------------------------------------

def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mlde").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_cache": _cache_sizes(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mlde_threads": {"timed": TIMED_THREADS, "warm_up": CHECK_THREADS},
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


# -- the two kinds of run -----------------------------------------------------------

def timed_run(mods, ops, work, seconds):
    cli = mods["cli"]
    setup = [fresh_import()[0] for _ in range(SETUP_REPEATS)]
    book = Book()
    # warm-up at the other worker count: fills caches, and every later pass
    # must reproduce its bytes, which checks worker-count invariance
    run_pass(cli, ops, work, CHECK_THREADS, book)
    passes = []
    for _ in measuring(seconds):
        passes.append(run_pass(cli, ops, work, TIMED_THREADS, book))
    wall = statistics.median(passes)
    paths = sum(op.paths for op in ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - len(book.failures) / book.attempted, "frac"),
    }
    detail = {
        "setup_s_samples": setup,
        "wall_s_passes": passes,
        "wall_s_quartiles": quartiles(passes),
        "paths_per_s": paths / wall if paths else None,
        "infeasible_rows": book.infeasible_rows(ops),
        "fail_frac": len(book.failures) / book.attempted,
    }
    return book, metrics, detail


def traced_run(mods, ops, work, seconds):
    from tracer import Tracer

    cli = mods["cli"]
    imports = import_times()
    book = Book()
    run_pass(cli, ops, work, CHECK_THREADS, book)
    tracer = Tracer(mods)
    sampled = any(op.paths for op in ops)
    plain, traced, snaps, other = [], [], [], []
    for _ in measuring(seconds):
        plain.append(run_pass(cli, ops, work, TIMED_THREADS, book))
        names = tracer.install()
        try:
            tracer.reset()
            traced.append(run_pass(cli, ops, work, TIMED_THREADS, book))
            snaps.append(tracer.snapshot())
            if sampled:
                tracer.reset()
                run_pass(cli, ops, work, CHECK_THREADS, book)
                other.append(tracer.snapshot())
        finally:
            tracer.uninstall()

    def per_pass(name, field, snapshots=snaps):
        return statistics.median(s.get(name, (0, 0.0, 0.0))[field] for s in snapshots)

    wall = statistics.median(plain)
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (per_pass(name, 0), "count")
        metrics[f"{name}.total_s"] = (per_pass(name, 1), "s")
        metrics[f"{name}.self_s"] = (per_pass(name, 2), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(
            per_pass(name, 2) for name in names if name.startswith(layer + ".")), "s")

    estimator = sum(per_pass(name, 1) for name in ESTIMATORS)
    paths = sum(op.paths for op in ops)
    path_steps = sum(op.path_steps for op in ops)
    atoms = sum(op.atoms for op in ops)
    solves = per_pass("montecarlo.saddlepoint_lambda", 0)
    estimator_2w = sum(per_pass(n, 1, other) for n in ESTIMATORS) if other else 0.0
    metrics.update({
        "montecarlo.ns_per_path": (1e9 * estimator / paths if paths else 0.0, "ns"),
        "montecarlo.ns_per_path_step": (1e9 * estimator / path_steps if path_steps else 0.0, "ns"),
        "montecarlo.ns_per_atom": (
            1e9 * per_pass("montecarlo.conjugate_clt_check", 1) / atoms if atoms else 0.0, "ns"),
        "montecarlo.speedup_2w": (estimator / estimator_2w if estimator_2w else 0.0, "x"),
        "montecarlo.paths_per_s": (paths / wall if paths else 0.0, "1/s"),
        "montecarlo.infeasible_rows": (book.infeasible_rows(ops), "count"),
        "montecarlo.max_abs_z": (book.max_abs_z(), "z"),
        "tilting.drift_calls_per_solve": (
            per_pass(("montecarlo.saddlepoint_lambda", "tilting.drift_process"), 0) / solves
            if solves else 0.0, "count"),
        "trace.overhead_frac": (statistics.median(traced) / wall - 1.0, "frac"),
    })
    for name, value in imports.items():
        metrics[f"import.{name.removeprefix('mlde.')}_s"] = (value, "s")
    detail = {
        "untraced_passes": plain,
        "traced_passes": traced,
        "calls_by_caller": {f"{a} -> {b}": per_pass((a, b), 0)
                            for a, b in sorted({k for s in snaps for k in s if isinstance(k, tuple)})},
    }
    return book, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")
    mods = load_mlde()
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    prov = provenance(args.seed)
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        workloads.write_specs(work)
        ops = build(work, args.seed)
        run = traced_run if args.trace else timed_run
        book, metrics, detail = run(mods, ops, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_end"] = os.getloadavg()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        if m["name"] not in metrics:
            _die(f"metric {m['name']} was not computed")
        if metrics[m["name"]][1] != m["unit"]:
            _die(f"metric {m['name']} has unit {metrics[m['name']][1]}, not {m['unit']}")

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "detail": detail,
        "operations": {
            op.name: {
                "argv": op.argv,
                "median_s": statistics.median(book.seconds[op.name]),
                "runs": len(book.seconds[op.name]),
                "sha256": book.first.get(op.name, (None,))[0],
                "max_abs_z": book.first[op.name][2][1] if op.name in book.first else None,
            }
            for op in ops
        },
        "failures": book.failures,
        "unlisted_metrics": {name: value for name, (value, _) in metrics.items()
                             if name not in {m["name"] for m in wanted}},
    }
    result = {
        "correct": not book.failures,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
