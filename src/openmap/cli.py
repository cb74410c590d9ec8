"""Command-line front end and experiment harness.

One table, ``COMMANDS``, declares every command.  It maps a command path
such as ``("net", "gd-sweep")`` or ``("realize",)`` to the command's own
flags, its handler ``(args, config) -> payload`` and its default
``--trials``; every command also takes the common flags of ``_COMMON``.
``run`` picks the longest path in the table that is a prefix of argv and
parses the rest with that command's leaf parser, which is built on first
use and kept for the life of the process, so no parser is built twice.
It then builds the run config, calls the handler and prints
``{"config": ..., "result": ...}``.  ``selftest`` writes its own output:
one line per criterion, and the ``--out`` file.

Verdicts live in the JSON payload, never in exit codes: 0 means the
command ran to completion.  ``_EXIT_CODES`` maps each error family to
its code, the first family that matches deciding: 2 flags bad input
(usage errors and missing or unreadable files included), 3 a domain
refusal (target out of certified range, no constructible instance, point
not open), 4 a numerical failure.  Every error also renders as a JSON
object on stderr.

Only what a command runs is imported: ``gd-sweep`` imports its process
pool (``concurrent.futures.process`` and ``multiprocessing``) only for
``--jobs > 1`` with more than one trial, since each command is a fresh
process whose import dominates its wall time.  Beyond the standard
library, every command imports numpy alone.

Reports echo their configuration and derive every per-trial draw from
the master seed, by counter or as row ``t`` of one seeded block, so
identical configurations reproduce every per-trial record bit-identically
regardless of scheduling (wall-clock timing is reported but excluded from
that guarantee).  ``openness check --witnesses`` and ``realize`` read no
seed: their witnesses are closed-form (``realize ratio-sweep`` draws).
"""

import argparse
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache
from itertools import takewhile

import numpy as np

from . import __version__
from .errors import DomainRefusal, InputError, NumericalFailure, OpenMapError
from .landscape import (
    EXIT_REASONS,
    NetworkPoint,
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


def _config_from(args, command, default_trials):
    kwargs = {}
    for flag, name in (("--tol-rank", "rank_rel"), ("--tol-grad", "grad_abs"),
                       ("--tol-residual", "residual_abs")):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            if not 0 < value < np.inf:
                raise InputError(f"{flag} must be positive and finite, got {value}")
            kwargs[name] = value
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    trials = args.trials if args.trials is not None else default_trials
    if trials < 0:
        raise InputError("--trials must be non-negative")
    return RunConfig(
        command=command,
        tolerances=Tolerances(**kwargs),
        seed=args.seed,
        trials=trials,
        jobs=args.jobs,
        out=args.out,
        report_format=args.format,
    )


def _emit(config, payload):
    try:
        text = dump_json({"config": to_jsonable(config.to_payload()),
                          "result": to_jsonable(payload)})
    except ValueError as exc:  # NaN or Inf somewhere in the result
        raise NumericalFailure(f"the result is not finite: {exc}") from exc
    if config.report_format == "text-summary":
        text = _summarize(payload)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _summarize(payload):
    lines = []

    def walk(obj, path):
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(val, f"{path}.{key}" if path else str(key))
        elif isinstance(obj, list) and len(obj) > 6:
            lines.append(f"{path}: [{len(obj)} entries]")
        else:
            lines.append(f"{path}: {obj}")

    walk(to_jsonable(payload), "")
    return "\n".join(lines)


# -- gradient-descent sweep ----------------------------------------------------


def _sample_matrix(rng, rows, cols):
    if rng.random() < 0.3:  # this share of the data is drawn rank-deficient
        r = int(rng.integers(0, min(rows, cols) + 1))
        return rng.uniform(-1, 1, size=(rows, r)) @ rng.uniform(-1, 1, size=(r, cols))
    return rng.uniform(-1, 1, size=(rows, cols))


def _gd_trial(payload):
    trial, seed, dims, depth, dim_cap, x, y, tol, max_iter = payload
    rng = np.random.default_rng([seed, trial])
    if dims is None:
        dims = tuple(int(d) for d in rng.integers(1, dim_cap + 1, size=depth + 1))
    # drawn even when a data matrix fixes it, so the draws stay in order
    n = int(rng.integers(1, dim_cap + 1))
    if x is not None or y is not None:
        n = (y if x is None else x).shape[1]
    if x is None:
        x = _sample_matrix(rng, dims[-1], n)
    if y is None:
        y = _sample_matrix(rng, dims[0], n)
    weights = [
        rng.uniform(-1.0, 1.0, size=(dims[i], dims[i + 1]))
        for i in range(len(dims) - 1)
    ]
    point = NetworkPoint(weights, x, y)
    try:
        result = run_gradient_descent(point, tol=tol, max_iter=max_iter)
    except NumericalFailure as exc:
        raise NumericalFailure(f"trial {trial}: {exc}") from exc
    rep = classify(result.point, tol=tol) if result.converged else None
    gv = rep.global_value if rep else global_value(min(dims), x, y, tol)
    return {
        "trial": trial,
        "dims": list(dims),
        "n_samples": n,
        "converged": result.converged,
        "exit_reason": result.exit_reason,
        "iterations": result.iterations,
        "objective": result.objective,
        "gradient_norm": result.gradient_norm,
        "status": rep.status if rep else None,
        "global_value": gv,
        "objective_gap": result.objective - gv,
        "has_descent_direction": rep.descent_direction is not None if rep else None,
    }


def gd_sweep(trials, seed, tol, dims=None, depth=2, dim_cap=4, x=None, y=None,
             jobs=1, max_iter=100000):
    """Random-restart gradient-descent endpoint classification sweep."""
    if dims is None and (x is not None or y is not None):
        raise InputError("a data matrix (--x or --y) needs fixed --dims")
    for flag, value, least in (("--depth", depth, 1), ("--dim-cap", dim_cap, 1),
                               ("--max-iter", max_iter, 0)):
        if value < least:
            raise InputError(f"{flag} must be at least {least}")
    start = time.perf_counter()
    x = None if x is None else np.asarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    payloads = [
        (t, seed, tuple(dims) if dims else None, depth, dim_cap, x, y, tol, max_iter)
        for t in range(trials)
    ]
    if jobs > 1 and trials > 1:
        # imported here: the pool loads multiprocessing, which a one-job
        # sweep and every other command never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_gd_trial, payloads, chunksize=8))
    else:
        records = [_gd_trial(p) for p in payloads]
    histogram = {}
    exits = dict.fromkeys(EXIT_REASONS, 0)
    non_converged = 0
    max_gap = 0.0
    for rec in records:
        exits[rec["exit_reason"]] += 1
        if not rec["converged"]:
            non_converged += 1
            continue
        histogram[rec["status"]] = histogram.get(rec["status"], 0) + 1
        max_gap = max(max_gap, abs(rec["objective_gap"]))
    aggregates = {
        "status_counts": histogram,
        "non_converged": non_converged,
        "exit_reasons": exits,
        "max_converged_objective_gap": max_gap,
    }
    return ExperimentReport(
        records=records,
        aggregates=aggregates,
        wall_clock_seconds=time.perf_counter() - start,
    )


# -- command handlers: (args, config) -> payload -------------------------------


def _pair(args):
    return FactorPair(load_matrix(args.w1), load_matrix(args.w2))


def _openness_check(args, config):
    pair = _pair(args)
    payload = to_jsonable(check_openness(pair, config.tolerances))
    if args.witnesses:
        wt1, wt2 = construct_witnesses(pair, config.tolerances)
        payload.update(witness_w1_tilde=wt1, witness_w2_tilde=wt2)
    return payload


def _openness_probe(args, config):
    config.extra["delta"] = args.delta
    pair = _pair(args)
    start = time.perf_counter()
    result = probe_openness(
        pair, args.delta, config.trials, config.tolerances, seed=config.seed
    )
    return ExperimentReport(
        records=result.pop("per_trial"),
        aggregates=result,
        wall_clock_seconds=time.perf_counter() - start,
    )


def _realize(args, config):
    return realize(_pair(args), load_matrix(args.target), config.tolerances)


def _ratio_sweep(args, config):
    try:
        deltas = [float(tok) for tok in args.deltas.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"--deltas must be comma-separated reals: {exc}") from exc
    pair = _pair(args)
    start = time.perf_counter()
    table = measure_delta_ratio(
        pair, deltas, config.trials, config.tolerances, seed=config.seed
    )
    return ExperimentReport(
        records=table,
        aggregates={
            "max_ratio": max(
                (row["max_ratio"] for row in table if row["max_ratio"]), default=None
            )
        },
        wall_clock_seconds=time.perf_counter() - start,
    )


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


def _sym_solve(args, config):
    sigma = _load_sigma_diag(args.sigma)
    return solve_p(sigma, load_matrix(args.r), config.tolerances)


def _sym_realize(args, config):
    return sym_realize(load_matrix(args.w), load_matrix(args.target), config.tolerances)


def _sym_certify(args, config):
    return certify_bm_transfer(load_matrix(args.w), config.tolerances)


def _load_point(args):
    weights = load_matrices(args.weights)
    return NetworkPoint(weights, load_matrix(args.x), load_matrix(args.y))


def _net_classify(args, config):
    return classify(_load_point(args), tol=config.tolerances, seed=config.seed)


def _instance(x, y, point):
    return {"x": x, "y": y, "weights": point.weights,
            "objective": objective(point.weights, x, y),
            "gradient_norm": gradient_norm(gradient(point.weights, x, y))}


def _net_counterexample(args, config):
    dims = _parse_dims(args.dims)
    x, y, point = counterexample_factory(dims)
    return {"dims": list(dims), **_instance(x, y, point),
            "global_value": global_value(min(dims), x, y, config.tolerances)}


def _net_fixture(args, config):
    maker = _FIXTURES.get(args.name)
    if maker is None:
        raise InputError(
            f"unknown fixture {args.name!r}; choose from {sorted(_FIXTURES)}"
        )
    x, y, point = maker()
    report = classify(point, tol=config.tolerances, seed=config.seed)
    return {"name": args.name, **_instance(x, y, point), "classification": report}


def _net_probe(args, config):
    return local_min_probe(_load_point(args), tol=config.tolerances, seed=config.seed)


def _net_gd_sweep(args, config):
    dims = _parse_dims(args.dims) if args.dims else None
    config.extra.update(dims=list(dims) if dims else None, depth=args.depth,
                        dim_cap=args.dim_cap, max_iter=args.max_iter)
    x = load_matrix(args.x) if args.x else None
    y = load_matrix(args.y) if args.y else None
    return gd_sweep(
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


def _selftest(args, config):
    from . import selftest

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


def _parse_dims(text):
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"--dims must be comma-separated integers: {exc}") from exc
    if len(dims) < 2:
        raise InputError("--dims needs at least two widths")
    if min(dims) < 1:
        raise InputError("--dims widths must be at least 1")
    return dims


# -- the command table ---------------------------------------------------------


# a command's own flags as (flag, add_argument keywords) pairs, its
# handler, which returns None once it has written its own output, and
# its default --trials
Command = namedtuple("Command", "flags handler trials", defaults=(20,))


def _required(*flags):
    return tuple((flag, {"required": True}) for flag in flags)


_PAIR = _required("--w1", "--w2")
_POINT = _required("--weights", "--x", "--y")

COMMANDS = {
    ("openness", "check"): Command(
        _PAIR + (("--witnesses", {"action": "store_true"}),), _openness_check),
    ("openness", "probe"): Command(
        _PAIR + (("--delta", {"type": float, "default": 1e-5}),), _openness_probe,
        trials=50),
    ("realize",): Command(_PAIR + _required("--target"), _realize),
    ("realize", "ratio-sweep"): Command(
        _PAIR + _required("--deltas"), _ratio_sweep, trials=5),
    ("sym", "solve"): Command(_required("--sigma", "--r"), _sym_solve),
    ("sym", "realize"): Command(_required("--w", "--target"), _sym_realize),
    ("sym", "certify"): Command(_required("--w"), _sym_certify),
    ("net", "classify"): Command(_POINT, _net_classify),
    ("net", "counterexample"): Command(_required("--dims"), _net_counterexample),
    ("net", "fixture"): Command(_required("--name"), _net_fixture),
    ("net", "probe"): Command(_POINT, _net_probe),
    ("net", "gd-sweep"): Command((
        ("--dims", {}),
        ("--depth", {"type": int, "default": 2}),
        ("--dim-cap", {"type": int, "default": 4}),
        ("--x", {}),
        ("--y", {}),
        ("--max-iter", {"type": int, "default": 100000}),
    ), _net_gd_sweep),
    ("selftest",): Command((("--only", {}),), _selftest),
}

# flags every command takes after its own
_COMMON = (
    ("--tol-rank", {"type": float}),
    ("--tol-grad", {"type": float}),
    ("--tol-residual", {"type": float}),
    ("--seed", {"type": int, "default": 0}),
    ("--trials", {"type": int}),
    ("--jobs", {"type": int, "default": os.cpu_count() or 1}),
    ("--out", {}),
    ("--format", {"choices": ("json", "text-summary"), "default": "json"}),
)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``InputError``, so they exit 2 with JSON."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@cache
def _leaf_parser(path):
    parser = _Parser(prog=" ".join(("openmap",) + path))
    for flag, kwargs in COMMANDS[path].flags + _COMMON:
        parser.add_argument(flag, **kwargs)
    return parser


_NAMES = ", ".join(" ".join(path) for path in COMMANDS)


def run(argv):
    """Run the command whose table path is the longest prefix of argv."""
    argv = list(argv)
    path = max((p for p in COMMANDS if tuple(argv[:len(p)]) == p),
               key=len, default=None)
    if path is None:
        if "-h" in argv or "--help" in argv:
            print(f"usage: openmap <command> [flags]\ncommands: {_NAMES}\n"
                  "'openmap <command> --help' lists a command's flags")
            return 0
        words = " ".join(takewhile(lambda tok: not tok.startswith("-"), argv))
        raise InputError(f"unknown command {words!r}; choose from {_NAMES}")
    command = COMMANDS[path]
    args = _leaf_parser(path).parse_args(argv[len(path):])
    config = _config_from(args, " ".join(path), command.trials)
    payload = command.handler(args, config)
    if payload is not None:
        _emit(config, payload)
    return 0


# the first family an error belongs to gives its exit code
_EXIT_CODES = {InputError: 2, OSError: 2, DomainRefusal: 3, OpenMapError: 4}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        # non-finite results are caught by the finiteness checks and
        # reported as JSON, so numpy's warnings would only add stderr noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run(argv)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for family, code in _EXIT_CODES.items()
                    if isinstance(exc, family))
        obj = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        if getattr(exc, "delta0", None) is not None:
            obj["delta0"] = exc.delta0
        print(dump_json(obj), file=sys.stderr)
        return code
    except SystemExit:  # a leaf parser printed --help
        return 0


if __name__ == "__main__":
    sys.exit(main())
