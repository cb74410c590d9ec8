"""Command-line front end and experiment harness.

Verdicts live in the JSON payload, never in exit codes: 0 means the
command ran to completion, 2 flags bad input, 3 a domain refusal
(target out of certified range, no constructible instance, point not
open), 4 a numerical failure.  Every error also renders as a JSON object
on stderr.

Reports echo their configuration and derive every per-trial seed from
the master seed by counter, so identical configurations reproduce every
per-trial record bit-identically regardless of scheduling (wall-clock
timing is reported but excluded from that guarantee).
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DomainRefusal, InputError, NumericalFailure, OpenMapError
from .landscape import (
    NetworkPoint,
    NetworkSpec,
    classify,
    counterexample_factory,
    global_value,
    gradient,
    gradient_norm,
    local_min_probe,
    objective,
    rank_deficient_y_fixture,
    run_gradient_descent,
)
from .matrixio import (
    dump_json,
    load_matrices,
    load_matrix,
    to_jsonable,
)
from .numcore import Tolerances
from .openness import FactorPair, check_openness, construct_witnesses, probe_openness
from .realization import measure_delta_ratio, realize
from .symmetric import certify_bm_transfer, solve_p, sym_realize

_FIXTURES = {
    "spurious-rank2-target": rank_deficient_y_fixture,
    "appendix-d": rank_deficient_y_fixture,
    "corner-target": lambda: counterexample_factory((2, 1, 1, 2)),
    "intro": lambda: counterexample_factory((2, 1, 1, 2)),
}


@dataclass
class RunConfig:
    command: str
    tolerances: Tolerances
    seed: int
    trials: int
    jobs: int
    out: str | None
    report_format: str
    extra: dict = field(default_factory=dict)

    def to_payload(self):
        return {
            "command": self.command,
            "seed": self.seed,
            "trials": self.trials,
            "jobs": self.jobs,
            "format": self.report_format,
            "tolerances": {
                "rank_rel": self.tolerances.rank_rel,
                "grad_abs": self.tolerances.grad_abs,
                "residual_abs": self.tolerances.residual_abs,
                "probe_radii": list(self.tolerances.probe_radius_schedule),
                "probe_samples": self.tolerances.probe_samples,
            },
            **self.extra,
        }


@dataclass
class ExperimentReport:
    records: list
    aggregates: dict
    wall_clock_seconds: float
    version: str = __version__


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc


def _add_common(parser):
    parser.add_argument("--tol-rank", type=float, default=None)
    parser.add_argument("--tol-grad", type=float, default=None)
    parser.add_argument("--tol-residual", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument(
        "--format", choices=("json", "text-summary"), default="json"
    )


def _config_from(args, command, default_trials=20):
    kwargs = {}
    if args.tol_rank is not None:
        if args.tol_rank <= 0:
            raise InputError("--tol-rank must be positive")
        kwargs["rank_rel"] = args.tol_rank
    if args.tol_grad is not None:
        if args.tol_grad <= 0:
            raise InputError("--tol-grad must be positive")
        kwargs["grad_abs"] = args.tol_grad
    if args.tol_residual is not None:
        if args.tol_residual <= 0:
            raise InputError("--tol-residual must be positive")
        kwargs["residual_abs"] = args.tol_residual
    seed = args.seed if args.seed is not None else _env_int("OPENMAP_SEED", 0)
    kwargs["rng_seed"] = seed
    jobs = args.jobs if args.jobs is not None else _env_int(
        "OPENMAP_JOBS", os.cpu_count() or 1
    )
    if jobs < 1:
        raise InputError("--jobs must be at least 1")
    trials = args.trials if args.trials is not None else default_trials
    if trials < 0:
        raise InputError("--trials must be non-negative")
    return RunConfig(
        command=command,
        tolerances=Tolerances(**kwargs),
        seed=seed,
        trials=trials,
        jobs=jobs,
        out=args.out,
        report_format=args.format,
    )


def _emit(config, payload):
    if config.report_format == "text-summary":
        text = _summarize(payload)
    else:
        text = dump_json({"config": to_jsonable(config.to_payload()),
                          "result": to_jsonable(payload)})
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _summarize(payload, prefix=""):
    lines = []

    def walk(obj, path):
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(val, f"{path}.{key}" if path else str(key))
        elif isinstance(obj, list) and len(obj) > 6:
            lines.append(f"{path}: [{len(obj)} entries]")
        else:
            lines.append(f"{path}: {obj}")

    walk(to_jsonable(payload), prefix)
    return "\n".join(lines)


# -- gradient-descent sweep ----------------------------------------------------


def _sample_matrix(rng, rows, cols, rank_deficient_fraction):
    if rank_deficient_fraction > 0 and rng.random() < rank_deficient_fraction:
        r = int(rng.integers(0, min(rows, cols) + 1))
        return rng.uniform(-1, 1, size=(rows, r)) @ rng.uniform(-1, 1, size=(r, cols))
    return rng.uniform(-1, 1, size=(rows, cols))


def _gd_trial(payload):
    (trial, seed, dims, depth, dim_cap, n_samples, x, y,
     tol, max_iter, rank_deficient_fraction) = payload
    rng = np.random.default_rng([seed, trial])
    if dims is None:
        dims = tuple(int(d) for d in rng.integers(1, dim_cap + 1, size=depth + 1))
    n = n_samples if n_samples else int(rng.integers(1, dim_cap + 1))
    if x is not None:
        n = x.shape[1]
    else:
        x = _sample_matrix(rng, dims[-1], n, rank_deficient_fraction)
    if y is None:
        y = _sample_matrix(rng, dims[0], n, rank_deficient_fraction)
    weights = [
        rng.uniform(-1.0, 1.0, size=(dims[i], dims[i + 1]))
        for i in range(len(dims) - 1)
    ]
    point = NetworkPoint(weights, x, y)
    spec = NetworkSpec(dims=dims, n_samples=n)
    result = run_gradient_descent(point, spec, tol, max_iter=max_iter)
    record = {
        "trial": trial,
        "dims": list(dims),
        "n_samples": n,
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": result.objective,
        "gradient_norm": result.gradient_norm,
        "status": None,
        "global_value": None,
        "objective_gap": None,
        "has_descent_direction": None,
    }
    gv = global_value(spec, x, y, tol)
    record["global_value"] = gv
    record["objective_gap"] = result.objective - gv
    if result.converged:
        rep = classify(result.point, spec, tol)
        record["status"] = rep.status
        record["has_descent_direction"] = rep.descent_direction is not None
    return record


def gd_sweep(trials, seed, tol, dims=None, depth=2, dim_cap=4, n_samples=None,
             x=None, y=None, jobs=1, max_iter=100000,
             rank_deficient_fraction=0.3):
    """Random-restart gradient-descent endpoint classification sweep."""
    start = time.perf_counter()
    x = None if x is None else np.asarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    payloads = [
        (t, seed, tuple(dims) if dims else None, depth, dim_cap, n_samples,
         x, y, tol, max_iter, rank_deficient_fraction)
        for t in range(trials)
    ]
    if jobs > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_gd_trial, payloads, chunksize=8))
    else:
        records = [_gd_trial(p) for p in payloads]
    histogram = {}
    non_converged = 0
    max_gap = 0.0
    for rec in records:
        if not rec["converged"]:
            non_converged += 1
            continue
        histogram[rec["status"]] = histogram.get(rec["status"], 0) + 1
        max_gap = max(max_gap, abs(rec["objective_gap"]))
    aggregates = {
        "status_counts": histogram,
        "non_converged": non_converged,
        "max_converged_objective_gap": max_gap,
    }
    return ExperimentReport(
        records=records,
        aggregates=aggregates,
        wall_clock_seconds=time.perf_counter() - start,
    )


# -- command handlers ----------------------------------------------------------


def _cmd_openness_check(args):
    config = _config_from(args, "openness check")
    pair = FactorPair(load_matrix(args.w1), load_matrix(args.w2))
    payload = to_jsonable(check_openness(pair, config.tolerances))
    if args.witnesses:
        wt1, wt2 = construct_witnesses(pair, config.tolerances, seed=config.seed)
        payload.update(witness_w1_tilde=wt1, witness_w2_tilde=wt2)
    _emit(config, payload)
    return 0


def _cmd_openness_probe(args):
    config = _config_from(args, "openness probe", default_trials=50)
    config.extra["delta"] = args.delta
    pair = FactorPair(load_matrix(args.w1), load_matrix(args.w2))
    start = time.perf_counter()
    result = probe_openness(
        pair, args.delta, config.trials, config.tolerances, seed=config.seed
    )
    report = ExperimentReport(
        records=result.pop("per_trial"),
        aggregates=result,
        wall_clock_seconds=time.perf_counter() - start,
    )
    _emit(config, report)
    return 0


def _cmd_openness_witnesses(args):
    config = _config_from(args, "openness witnesses")
    pair = FactorPair(load_matrix(args.w1), load_matrix(args.w2))
    wt1, wt2 = construct_witnesses(pair, config.tolerances, seed=config.seed)
    _emit(config, {"witness_w1_tilde": wt1, "witness_w2_tilde": wt2})
    return 0


def _cmd_realize(args):
    config = _config_from(args, "realize")
    pair = FactorPair(load_matrix(args.w1), load_matrix(args.w2))
    witness = realize(pair, load_matrix(args.target), config.tolerances)
    _emit(config, witness)
    return 0


def _cmd_ratio_sweep(args):
    config = _config_from(args, "realize ratio-sweep", default_trials=5)
    deltas = _parse_floats(args.deltas, "--deltas")
    pair = FactorPair(load_matrix(args.w1), load_matrix(args.w2))
    start = time.perf_counter()
    table = measure_delta_ratio(
        pair, deltas, config.trials, config.tolerances, seed=config.seed
    )
    report = ExperimentReport(
        records=table,
        aggregates={
            "max_ratio": max(
                (row["max_ratio"] for row in table if row["max_ratio"]), default=None
            )
        },
        wall_clock_seconds=time.perf_counter() - start,
    )
    _emit(config, report)
    return 0


def _load_sigma_diag(path):
    mat = load_matrix(path)
    if 1 in mat.shape:
        return mat.ravel()
    if mat.shape[0] == mat.shape[1]:
        off = mat - np.diag(np.diag(mat))
        if np.abs(off).max() > 0:
            raise InputError(f"{path}: sigma must be diagonal or a vector")
        return np.diag(mat)
    raise InputError(f"{path}: sigma must be diagonal or a vector")


def _cmd_sym_solve(args):
    config = _config_from(args, "sym solve")
    sigma = _load_sigma_diag(args.sigma)
    result = solve_p(sigma, load_matrix(args.r), config.tolerances)
    _emit(config, result)
    return 0


def _cmd_sym_realize(args):
    config = _config_from(args, "sym realize")
    witness = sym_realize(
        load_matrix(args.w), load_matrix(args.target), config.tolerances
    )
    _emit(config, witness)
    return 0


def _cmd_sym_certify(args):
    config = _config_from(args, "sym certify")
    cert = certify_bm_transfer(load_matrix(args.w), config.tolerances)
    _emit(config, cert)
    return 0


def _load_point(args):
    weights = load_matrices(args.weights)
    return NetworkPoint(weights, load_matrix(args.x), load_matrix(args.y))


def _cmd_net_classify(args):
    config = _config_from(args, "net classify")
    point = _load_point(args)
    report = classify(point, tol=config.tolerances, seed=config.seed)
    _emit(config, report)
    return 0


def _cmd_net_counterexample(args):
    config = _config_from(args, "net counterexample")
    dims = _parse_dims(args.dims)
    x, y, point = counterexample_factory(dims, config.tolerances)
    _emit(config, {
        "dims": list(dims),
        "x": x,
        "y": y,
        "weights": point.weights,
        "objective": objective(point),
        "gradient_norm": gradient_norm(gradient(point)),
        "global_value": global_value(point.spec(), x, y, config.tolerances),
    })
    return 0


def _cmd_net_fixture(args):
    config = _config_from(args, "net fixture")
    maker = _FIXTURES.get(args.name)
    if maker is None:
        raise InputError(
            f"unknown fixture {args.name!r}; choose from {sorted(_FIXTURES)}"
        )
    x, y, point = maker()
    report = classify(point, tol=config.tolerances, seed=config.seed)
    _emit(config, {
        "name": args.name,
        "x": x,
        "y": y,
        "weights": point.weights,
        "objective": objective(point),
        "gradient_norm": gradient_norm(gradient(point)),
        "classification": report,
    })
    return 0


def _cmd_net_probe(args):
    config = _config_from(args, "net probe")
    point = _load_point(args)
    report = local_min_probe(
        point, point.spec(), config.tolerances, seed=config.seed
    )
    _emit(config, report)
    return 0


def _cmd_net_gd_sweep(args):
    config = _config_from(args, "net gd-sweep", default_trials=20)
    dims = _parse_dims(args.dims) if args.dims else None
    config.extra.update(dims=list(dims) if dims else None, depth=args.depth,
                        dim_cap=args.dim_cap, max_iter=args.max_iter)
    x = load_matrix(args.x) if args.x else None
    y = load_matrix(args.y) if args.y else None
    report = gd_sweep(
        trials=config.trials,
        seed=config.seed,
        tol=config.tolerances,
        dims=dims,
        depth=args.depth,
        dim_cap=args.dim_cap,
        x=x,
        y=y,
        jobs=config.jobs,
        max_iter=args.max_iter,
    )
    _emit(config, report)
    return 0


def _cmd_selftest(args):
    from . import selftest

    config = _config_from(args, "selftest")
    only = None
    if args.only:
        try:
            only = {int(tok) for tok in args.only.split(",")}
        except ValueError as exc:
            raise InputError(f"--only must be comma-separated integers: {exc}") from exc
        unknown = sorted(only - set(selftest.CRITERIA))
        if unknown:
            raise InputError(
                f"--only: no criteria {unknown}; choose from {sorted(selftest.CRITERIA)}"
            )
    results = selftest.run_all(only=only, jobs=config.jobs)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] criterion {res.number}: "
              f"{res.name} ({res.seconds:.1f}s)")
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(dump_json(to_jsonable(results)))
            fh.write("\n")
    return 0


def _parse_dims(text):
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"--dims must be comma-separated integers: {exc}") from exc
    if len(dims) < 2:
        raise InputError("--dims needs at least two widths")
    return dims


def _parse_floats(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"{flag} must be comma-separated reals: {exc}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="openmap",
        description="Local-openness certificates, perturbation realization, "
        "and linear-network landscape classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    openness = sub.add_parser("openness").add_subparsers(
        dest="subcommand", required=True
    )
    check_p = openness.add_parser("check")
    check_p.add_argument("--w1", required=True)
    check_p.add_argument("--w2", required=True)
    check_p.add_argument("--witnesses", action="store_true")
    _add_common(check_p)
    check_p.set_defaults(handler=_cmd_openness_check)

    probe_p = openness.add_parser("probe")
    probe_p.add_argument("--w1", required=True)
    probe_p.add_argument("--w2", required=True)
    probe_p.add_argument("--delta", type=float, default=1e-5)
    _add_common(probe_p)
    probe_p.set_defaults(handler=_cmd_openness_probe)

    wit_p = openness.add_parser("witnesses")
    wit_p.add_argument("--w1", required=True)
    wit_p.add_argument("--w2", required=True)
    _add_common(wit_p)
    wit_p.set_defaults(handler=_cmd_openness_witnesses)

    sym = sub.add_parser("sym").add_subparsers(dest="subcommand", required=True)
    solve_p_cmd = sym.add_parser("solve")
    solve_p_cmd.add_argument("--sigma", required=True)
    solve_p_cmd.add_argument("--r", required=True)
    _add_common(solve_p_cmd)
    solve_p_cmd.set_defaults(handler=_cmd_sym_solve)

    sym_realize_p = sym.add_parser("realize")
    sym_realize_p.add_argument("--w", required=True)
    sym_realize_p.add_argument("--target", required=True)
    _add_common(sym_realize_p)
    sym_realize_p.set_defaults(handler=_cmd_sym_realize)

    certify_p = sym.add_parser("certify")
    certify_p.add_argument("--w", required=True)
    _add_common(certify_p)
    certify_p.set_defaults(handler=_cmd_sym_certify)

    net = sub.add_parser("net").add_subparsers(dest="subcommand", required=True)
    classify_p = net.add_parser("classify")
    classify_p.add_argument("--weights", required=True)
    classify_p.add_argument("--x", required=True)
    classify_p.add_argument("--y", required=True)
    _add_common(classify_p)
    classify_p.set_defaults(handler=_cmd_net_classify)

    counter_p = net.add_parser("counterexample")
    counter_p.add_argument("--dims", required=True)
    _add_common(counter_p)
    counter_p.set_defaults(handler=_cmd_net_counterexample)

    fixture_p = net.add_parser("fixture")
    fixture_p.add_argument("--name", required=True)
    _add_common(fixture_p)
    fixture_p.set_defaults(handler=_cmd_net_fixture)

    net_probe_p = net.add_parser("probe")
    net_probe_p.add_argument("--weights", required=True)
    net_probe_p.add_argument("--x", required=True)
    net_probe_p.add_argument("--y", required=True)
    _add_common(net_probe_p)
    net_probe_p.set_defaults(handler=_cmd_net_probe)

    sweep_p = net.add_parser("gd-sweep")
    sweep_p.add_argument("--dims", default=None)
    sweep_p.add_argument("--depth", type=int, default=2)
    sweep_p.add_argument("--dim-cap", type=int, default=4)
    sweep_p.add_argument("--x", default=None)
    sweep_p.add_argument("--y", default=None)
    sweep_p.add_argument("--max-iter", type=int, default=100000)
    _add_common(sweep_p)
    sweep_p.set_defaults(handler=_cmd_net_gd_sweep)

    selftest_p = sub.add_parser("selftest")
    selftest_p.add_argument("--only", default=None)
    _add_common(selftest_p)
    selftest_p.set_defaults(handler=_cmd_selftest)

    return parser


def _emit_error(exc, code):
    obj = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    delta0 = getattr(exc, "delta0", None)
    if delta0 is not None:
        obj["delta0"] = delta0
    print(dump_json(obj), file=sys.stderr)


def run(argv):
    """Dispatch, mapping the error families onto the exit-code contract."""
    # `realize` doubles as a command and a group: route its subcommand by
    # hand so `openmap realize --w1 ...` keeps working
    argv = list(argv)
    if argv and argv[0] == "realize":
        if len(argv) > 1 and argv[1] == "ratio-sweep":
            leaf = argparse.ArgumentParser(prog="openmap realize ratio-sweep")
            leaf.add_argument("--w1", required=True)
            leaf.add_argument("--w2", required=True)
            leaf.add_argument("--deltas", required=True)
            _add_common(leaf)
            args = leaf.parse_args(argv[2:])
            return _cmd_ratio_sweep(args)
        leaf = argparse.ArgumentParser(prog="openmap realize")
        leaf.add_argument("--w1", required=True)
        leaf.add_argument("--w2", required=True)
        leaf.add_argument("--target", required=True)
        _add_common(leaf)
        args = leaf.parse_args(argv[1:])
        return _cmd_realize(args)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except InputError as exc:
        _emit_error(exc, 2)
        return 2
    except FileNotFoundError as exc:
        _emit_error(exc, 2)
        return 2
    except DomainRefusal as exc:
        _emit_error(exc, 3)
        return 3
    except NumericalFailure as exc:
        _emit_error(exc, 4)
        return 4
    except OpenMapError as exc:
        _emit_error(exc, 4)
        return 4
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code else 0


if __name__ == "__main__":
    sys.exit(main())
