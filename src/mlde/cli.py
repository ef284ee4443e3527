"""Batch front end.

Subcommands: certify, tail, ratio-table, clt-rate, conjugate-clt, mdp,
lemmas.  Every experiment writes a CSV with the result rows plus a JSON
sidecar holding the fully resolved configuration (enough to reproduce the
run byte for byte), the model certificate where one was computed, fitted
constants, and the wall time.  Timestamps never enter the CSV body.

Exit codes: 0 success, 2 configuration error, 3 domain/range error,
4 infeasible estimate.  MLDE_THREADS caps the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
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
        p.add_argument("--k-max", type=int, default=conditions.DEFAULT_K_MAX)
        p.add_argument("--out", default="mlde-out")

    p = sub.add_parser("certify", help="emit the model's condition certificate")
    add_model_flags(p)

    p = sub.add_parser("tail", help="estimate P(X_n > x)")
    add_model_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--method", default="tilted", choices=montecarlo.TAIL_METHODS)
    p.add_argument("--lambda", dest="lam", default="saddlepoint",
                   help="saddlepoint | paper | <value>")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--c-alpha", type=float, default=1.0)

    p = sub.add_parser("ratio-table", help="tail/normal-tail ratio sweep")
    add_model_flags(p)
    p.add_argument("--x-grid", required=True, help="a:b:step")
    p.add_argument("--method", default="exact", choices=montecarlo.TAIL_METHODS)
    p.add_argument("--lambda", dest="lam", default="saddlepoint")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--c-alpha", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=bounds.DEFAULT_ALPHA)

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
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--a-exponent", type=float, default=0.25,
                   help="speed a_n = n**gamma")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda", dest="lam", default="saddlepoint")

    p = sub.add_parser("lemmas", help="exact drift/cumulant inequality checks")
    add_model_flags(p)
    p.add_argument("--lambda-grid", default=None, help="a:b:step (default 0..alpha/eps)")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--c-alpha", type=float, default=1.0)

    return parser


def _parse_grid(text: str) -> list:
    try:
        a, b, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid {text!r}; expected a:b:step")
    if step <= 0 or b < a:
        raise ConfigError(f"bad grid {text!r}; need a <= b and step > 0")
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
        return float(text)
    except ValueError:
        raise ConfigError(f"bad lambda {text!r}")


def build_spec(args) -> model.MartingaleSpec:
    """Resolve the model: config-file values first, explicit flags on top."""
    d = {}
    if args.spec_file:
        d = model.parse_config_dict(Path(args.spec_file).read_text())
    if args.model is not None:
        if args.model.startswith("finite:"):
            path = args.model.split(":", 1)[1]
            table = model.parse_config_dict(Path(path).read_text())
            if "values" not in table or "probs" not in table:
                raise ConfigError(f"{path} must define values and probs")
            d.update(model="finite", values=table["values"], probs=table["probs"])
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
    if "n" not in d:
        raise ConfigError("--n is required unless --spec-file provides it")
    return model.spec_from_dict(d)


def _family(args):
    def make(n):
        ns = argparse.Namespace(**vars(args))
        ns.n = n
        return build_spec(ns)
    return make


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


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


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


def _write_sidecar(path: Path, command, args, spec, certificate=None,
                   results=None, files=(), started=None) -> None:
    payload = {
        "command": command,
        "config": _config_dict(args),
        "spec": model.spec_to_dict(spec) if spec is not None else None,
        "certificate": certificate.to_json_dict() if certificate else None,
        "results": results or {},
        "files": [str(f) for f in files],
        "wall_time_s": time.monotonic() - started if started else None,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- command bodies ----------------------------------------------------------------

def _cmd_certify(args, out_dir, started):
    spec = build_spec(args)
    cert = conditions.certify(spec, args.k_max)
    print(json.dumps(cert.to_json_dict(), sort_keys=True))
    _write_sidecar(out_dir / "certify.json", "certify", args, spec, cert,
                   started=started)
    return EXIT_OK


def _cmd_tail(args, out_dir, started):
    spec = build_spec(args)
    lam_policy = _parse_lambda(args.lam)
    if args.method in ("crude", "tilted"):
        _require_seed(args)
    cert = None
    if args.method == "tilted" and lam_policy == "paper":
        cert = conditions.certify(spec, args.k_max)
    est = montecarlo.estimate_tail(spec, args.x, args.method, lam_policy,
                                   args.samples, args.seed, cert=cert,
                                   c_alpha=args.c_alpha)
    csv_path = out_dir / "tail.csv"
    _write_csv(csv_path,
               ["x", "p_hat", "std_err", "n_samples", "method", "seed", "lambda_used"],
               [[est.x, est.p_hat, est.std_err, est.n_samples, est.method,
                 est.seed, est.lambda_used]])
    _write_sidecar(out_dir / "tail.json", "tail", args, spec, cert,
                   results={"p_hat": est.p_hat, "std_err": est.std_err,
                            "lambda_used": est.lambda_used},
                   files=[csv_path], started=started)
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
        lam_policy=_parse_lambda(args.lam), c_alpha=args.c_alpha,
        alpha=args.alpha, k_max=args.k_max)
    csv_path = out_dir / "ratio.csv"
    _write_csv(csv_path,
               ["x", "p_hat", "std_err", "gaussian_tail", "ratio", "log_ratio",
                "theorem1_upper", "theorem2_lower", "valid", "feasible",
                "regime", "within_envelope_at_fitted_c"],
               [[r.x, r.p_hat, r.std_err, r.gaussian_tail, r.ratio, r.log_ratio,
                 r.theorem1_upper, r.theorem2_lower, r.valid, r.feasible,
                 r.regime, r.within_envelope_at_fitted_c] for r in result.rows])
    _write_sidecar(out_dir / "ratio.json", "ratio-table", args, spec,
                   result.certificate,
                   results={"fitted_c_star": result.fitted_c_star},
                   files=[csv_path], started=started)
    print(f"fitted c* = {result.fitted_c_star!r} over {len(result.rows)} rows -> {csv_path}")
    return EXIT_OK


def _rate_csv(path, curves):
    rows = []
    for curve in curves:
        for r in curve.rows:
            rows.append([curve.lam, r.n, r.epsilon, r.delta, r.ks_distance,
                         r.bound_value, r.fitted_c])
    _write_csv(path, ["lambda", "n", "epsilon", "delta", "ks_distance",
                      "bound_value", "fitted_c"], rows)


def _cmd_clt_rate(args, out_dir, started):
    n_list = _parse_n_list(args.n_list)
    curve = montecarlo.clt_rate_curve(_family(args), n_list, args.k_max)
    csv_path = out_dir / "clt_rate.csv"
    _rate_csv(csv_path, [curve])
    spec = _family(args)(n_list[-1])
    _write_sidecar(out_dir / "clt_rate.json", "clt-rate", args, spec,
                   certificate=conditions.certify(spec, args.k_max),
                   results={"fitted_c": [r.fitted_c for r in curve.rows]},
                   files=[csv_path], started=started)
    print(f"{len(curve.rows)} rows -> {csv_path}")
    return EXIT_OK


def _cmd_conjugate_clt(args, out_dir, started):
    n_list = _parse_n_list(args.n_list)
    lams = [float(t) for t in str(args.lam).split(",") if t.strip() != ""]
    if not lams:
        raise ConfigError("conjugate-clt needs at least one lambda")
    curves = [montecarlo.conjugate_clt_check(_family(args), lam, n_list, args.k_max)
              for lam in lams]
    csv_path = out_dir / "conjugate_clt.csv"
    _rate_csv(csv_path, curves)
    spec = _family(args)(n_list[-1])
    _write_sidecar(out_dir / "conjugate_clt.json", "conjugate-clt", args, spec,
                   certificate=conditions.certify(spec, args.k_max),
                   results={"lambdas": lams},
                   files=[csv_path], started=started)
    print(f"{sum(len(c.rows) for c in curves)} rows -> {csv_path}")
    return EXIT_OK


def _cmd_mdp(args, out_dir, started):
    _require_seed(args)
    n_list = _parse_n_list(args.n_list)
    gamma = args.a_exponent
    rows = montecarlo.mdp_diagnostic(
        _family(args), lambda n: n**gamma, args.x, n_list,
        samples=args.samples, seed=args.seed,
        lam_policy=_parse_lambda(args.lam))
    csv_path = out_dir / "mdp.csv"
    _write_csv(csv_path,
               ["n", "a_n", "lambda", "p_hat", "std_err", "p_exact", "value",
                "err_band", "target", "feasible", "a_eps"],
               [[r.n, r.a_n, r.lam, r.p_hat, r.std_err, r.p_exact, r.value,
                 r.err_band, r.target, r.feasible, r.a_eps] for r in rows])
    spec = _family(args)(n_list[-1])
    _write_sidecar(out_dir / "mdp.json", "mdp", args, spec,
                   certificate=conditions.certify(spec, args.k_max),
                   results={"values": [r.value for r in rows],
                            "target": bounds.mdp_rate(args.x)},
                   files=[csv_path], started=started)
    print(f"{len(rows)} rows -> {csv_path}")
    if any(not r.feasible for r in rows):
        raise InfeasibleError("p_hat = 0 in at least one row; see mdp.csv")
    return EXIT_OK


def _cmd_lemmas(args, out_dir, started):
    spec = build_spec(args)
    cert = conditions.certify(spec, args.k_max)
    if args.lambda_grid:
        grid = _parse_grid(args.lambda_grid)
    else:
        grid = [float(v) for v in np.linspace(0.0, args.alpha / cert.epsilon, 21)]
    reports = tilting.check_lemma2_lemma3(spec, grid, alpha=args.alpha,
                                          c_alpha=args.c_alpha, certificate=cert)
    csv_path = out_dir / "lemmas.csv"
    _write_csv(csv_path,
               ["lambda", "psi_n", "b_n", "lemma2_residual", "lemma3_residual",
                "fitted_c2", "fitted_c3"],
               [[r.lam, r.psi_n, r.b_n, r.lemma2_residual, r.lemma3_residual,
                 r.fitted_c2, r.fitted_c3] for r in reports])
    c2, c3 = tilting.fitted_drift_cumulant_constants(reports)
    lemma1 = [tilting.check_lemma1(d, cert.epsilon, args.k_max)
              for d, _ in spec.iid_parts()]
    holds = all(r.holds for r in lemma1)
    _write_sidecar(out_dir / "lemmas.json", "lemmas", args, spec, cert,
                   results={"fitted_c2": c2, "fitted_c3": c3,
                            "moment_bounds_hold": holds,
                            "moment_bounds_detail": [r.detail for r in lemma1]},
                   files=[csv_path], started=started)
    print(f"fitted c2 = {c2!r}, c3 = {c3!r}, moment bounds hold = {holds} -> {csv_path}")
    return EXIT_OK


_COMMANDS = {
    "certify": _cmd_certify,
    "tail": _cmd_tail,
    "ratio-table": _cmd_ratio_table,
    "clt-rate": _cmd_clt_rate,
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
