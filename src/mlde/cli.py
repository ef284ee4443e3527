"""Batch front end.

Subcommands: certify, tail, ratio-table, clt-rate (conjugate-clt at the
one tilt 0), conjugate-clt, mdp, lemmas.  Every command writes a JSON
sidecar holding the fully resolved configuration (enough to reproduce the
run byte for byte), the model certificate where one was computed, fitted
constants, and the wall time.  Every command but certify also writes a CSV
of its result rows, one column per field of the row type.  Timestamps never
enter the CSV body.  A finite:<path> target is read and validated as a
--spec-file whose model is finite.

Exit codes: 0 success, 2 configuration error, 3 domain/range error,
4 infeasible estimate.  MLDE_THREADS caps the worker count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds, conditions, model, montecarlo, tilting
from .errors import ConfigError, DomainError, InfeasibleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_INFEASIBLE = 4
MAX_GRID_ROWS = 10_000  # longest a:b:step grid a sweep accepts


# -- argument handling ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", default=None,
                       help="rademacher | gaussian | finite:<path> | varswitch "
                            "(default rademacher)")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--normalized", action="store_true")
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--spec-file", default=None,
                       help="load the model from a key=value config file; "
                            "explicit flags override file values")
        p.add_argument("--out", default="mlde-out")

    p = sub.add_parser("certify", help="emit the model's condition certificate")
    add_model_flags(p)

    p = sub.add_parser("tail", help="estimate P(X_n > x)")
    add_model_flags(p)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--method", default="tilted", choices=montecarlo.TAIL_METHODS)
    p.add_argument("--lambda", dest="lam", default="saddlepoint",
                   help="saddlepoint | paper | <value>")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("ratio-table", help="tail/normal-tail ratio sweep")
    add_model_flags(p)
    p.add_argument("--x-grid", required=True, help="a:b:step")
    p.add_argument("--method", default="exact", choices=montecarlo.TAIL_METHODS)
    p.add_argument("--lambda", dest="lam", default="saddlepoint")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("clt-rate", help="exact normal-approximation rate across n")
    add_model_flags(p)
    p.add_argument("--n-list", required=True, help="comma-separated step counts")

    p = sub.add_parser("conjugate-clt", help="rate check under tilted laws")
    add_model_flags(p)
    p.add_argument("--n-list", required=True)
    p.add_argument("--lambda", dest="lam", default="0",
                   help="tilt value or comma-separated list")

    p = sub.add_parser("mdp", help="moderate-deviation limit diagnostic")
    add_model_flags(p)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--a-exponent", type=_finite, default=0.25,
                   help="speed a_n = n**gamma")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda", dest="lam", default="saddlepoint")

    p = sub.add_parser("lemmas", help="exact drift/cumulant inequality checks")
    add_model_flags(p)
    p.add_argument("--lambda-grid", default=None,
                   help="a:b:step (default 21 points on 0..0.5/eps)")

    return parser


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_grid(text: str) -> list:
    try:
        a, b, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid {text!r}; expected a:b:step")
    if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
        raise ConfigError(f"bad grid {text!r}; need finite a <= b and step > 0")
    if (b - a) / step >= MAX_GRID_ROWS:  # floor((b - a)/step) + 1 rows
        raise ConfigError(f"bad grid {text!r}; more than {MAX_GRID_ROWS} rows")
    return [float(v) for v in np.arange(a, b + step / 2.0, step)]


def _parse_n_list(text: str) -> list:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"bad n list {text!r}")
    if not values or sorted(values) != values:
        raise ConfigError("n list must be nonempty and sorted")
    return values


def _parse_lambda(text: str):
    if text in ("saddlepoint", "paper"):
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"bad lambda {text!r}; need saddlepoint, paper or a finite number")
    return value


def _read_config(path: str) -> dict:
    try:
        return model.parse_config_dict(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}")


def _spec_dict(args) -> dict:
    """The model as a config dict: config-file values first, explicit flags on top."""
    d = {}
    if args.spec_file:
        d = _read_config(args.spec_file)
    if args.model is not None:
        if args.model.startswith("finite:"):
            # the target is a spec file whose model is finite
            d.update(_read_config(args.model.split(":", 1)[1]), model="finite")
        else:
            d["model"] = args.model
    if args.n is not None:
        d["n"] = args.n
    if args.normalized:
        d["normalized"] = True
    if args.rho is not None:
        d["rho"] = args.rho
    if not d.get("model") and "values" not in d:
        d["model"] = "rademacher"
    return d


def build_spec(args) -> model.MartingaleSpec:
    d = _spec_dict(args)
    if "n" not in d:
        raise ConfigError("--n is required unless --spec-file provides it")
    return model.spec_from_dict(d)


def _family(args):
    """n -> the spec at n steps, the config files read once."""
    d = _spec_dict(args)
    return lambda n: model.spec_from_dict({**d, "n": n})


def _require_seed(args):
    if args.seed is None:
        raise ConfigError("--seed is mandatory for stochastic commands")


# -- output helpers --------------------------------------------------------------

def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_rows(path: Path, rows) -> None:
    """CSV of dataclass rows: one column per field, lam spelled lambda."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda" if name == "lam" else name for name in names])
        for row in rows:
            writer.writerow([_cell(getattr(row, name)) for name in names])


def _config_dict(args) -> dict:
    skip = {"command"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value
    return out


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


def _emit(out_dir: Path, stem, args, spec, cert, rows, results, started):
    """Write <stem>.csv from rows (none when rows is None) and the <stem>.json
    sidecar; returns the CSV path."""
    csv_path = out_dir / f"{stem}.csv"
    files = []
    if rows is not None:
        _write_rows(csv_path, rows)
        files.append(str(csv_path))
    payload = {
        "command": args.command,
        "config": _config_dict(args),
        "spec": model.spec_to_dict(spec),
        "certificate": cert.to_json_dict() if cert else None,
        "results": results or {},
        "files": files,
        "wall_time_s": time.monotonic() - started,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path


# -- command bodies ----------------------------------------------------------------

def _cmd_certify(args, out_dir, started):
    spec = build_spec(args)
    cert = conditions.certify(spec)
    print(json.dumps(cert.to_json_dict(), sort_keys=True))
    _emit(out_dir, "certify", args, spec, cert, None, None, started)
    return EXIT_OK


def _cmd_tail(args, out_dir, started):
    spec = build_spec(args)
    lam_policy = _parse_lambda(args.lam)
    if args.method in ("crude", "tilted"):
        _require_seed(args)
    cert = None
    if args.method == "tilted" and lam_policy == "paper":
        cert = conditions.certify(spec)
    est = montecarlo.estimate_tail(spec, args.x, args.method, lam_policy,
                                   args.samples, args.seed, cert)
    csv_path = _emit(out_dir, "tail", args, spec, cert, [est],
                     {"p_hat": est.p_hat, "std_err": est.std_err,
                      "lambda_used": est.lambda_used}, started)
    print(f"p_hat = {est.p_hat!r} (std_err {est.std_err!r}) -> {csv_path}")
    return EXIT_OK


def _cmd_ratio_table(args, out_dir, started):
    spec = build_spec(args)
    xs = _parse_grid(args.x_grid)
    if args.method in ("crude", "tilted"):
        _require_seed(args)
    result = montecarlo.ratio_experiment(
        spec, xs, method=args.method, samples=args.samples,
        seed=args.seed if args.seed is not None else 0,
        lam_policy=_parse_lambda(args.lam))
    csv_path = _emit(out_dir, "ratio", args, spec, result.certificate, result.rows,
                     {"fitted_c_star": result.fitted_c_star}, started)
    print(f"fitted c* = {result.fitted_c_star!r} over {len(result.rows)} rows -> {csv_path}")
    return EXIT_OK


def _cmd_conjugate_clt(args, out_dir, started):
    n_list = _parse_n_list(args.n_list)
    text = getattr(args, "lam", "0")  # clt-rate has no --lambda: the tilt 0
    try:
        lams = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        lams = []
    if not lams or not all(map(math.isfinite, lams)):
        raise ConfigError(f"bad lambda list {text!r}; need finite numbers")
    family = _family(args)
    if hasattr(args, "lam"):
        rows = [r for lam in lams
                for r in montecarlo.conjugate_clt_check(family, lam, n_list)]
    else:
        rows = montecarlo.clt_rate_curve(family, n_list)
    spec = family(n_list[-1])
    csv_path = _emit(out_dir, args.command.replace("-", "_"), args, spec,
                     conditions.certify(spec), rows,
                     {"lambdas": lams, "fitted_c": [r.fitted_c for r in rows]}, started)
    print(f"{len(rows)} rows -> {csv_path}")
    return EXIT_OK


def _cmd_mdp(args, out_dir, started):
    _require_seed(args)
    n_list = _parse_n_list(args.n_list)
    gamma = args.a_exponent
    family = _family(args)
    rows = montecarlo.mdp_diagnostic(
        family, lambda n: n**gamma, args.x, n_list,
        samples=args.samples, seed=args.seed,
        lam_policy=_parse_lambda(args.lam))
    spec = family(n_list[-1])
    csv_path = _emit(out_dir, "mdp", args, spec, conditions.certify(spec), rows,
                     {"values": [r.value for r in rows],
                      "target": bounds.mdp_rate(args.x)}, started)
    print(f"{len(rows)} rows -> {csv_path}")
    if any(not r.feasible for r in rows):
        raise InfeasibleError("p_hat = 0 in at least one row; see mdp.csv")
    return EXIT_OK


def _cmd_lemmas(args, out_dir, started):
    spec = build_spec(args)
    cert = conditions.certify(spec)
    if args.lambda_grid:
        grid = _parse_grid(args.lambda_grid)
    else:
        grid = [float(v) for v in np.linspace(0.0, tilting.LEMMA_ALPHA / cert.epsilon, 21)]
    reports = tilting.check_lemma2_lemma3(spec, grid, certificate=cert)
    c2, c3 = tilting.fitted_drift_cumulant_constants(reports)
    lemma1 = [tilting.check_lemma1(d, cert.epsilon) for d, _ in spec.iid_parts()]
    holds = all(r.holds for r in lemma1)
    csv_path = _emit(out_dir, "lemmas", args, spec, cert, reports,
                     {"fitted_c2": c2, "fitted_c3": c3,
                      "moment_bounds_hold": holds,
                      "moment_bounds_detail": [r.detail for r in lemma1]}, started)
    print(f"fitted c2 = {c2!r}, c3 = {c3!r}, moment bounds hold = {holds} -> {csv_path}")
    return EXIT_OK


_COMMANDS = {
    "certify": _cmd_certify,
    "tail": _cmd_tail,
    "ratio-table": _cmd_ratio_table,
    "clt-rate": _cmd_conjugate_clt,
    "conjugate-clt": _cmd_conjugate_clt,
    "mdp": _cmd_mdp,
    "lemmas": _cmd_lemmas,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, out_dir, started)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
