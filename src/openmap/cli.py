"""Command-line front end and experiment harness.

One table, ``COMMANDS``, declares every command.  It maps a command path
such as ``("net", "gd-sweep")`` or ``("realize",)`` to the flags the
command reads and its handler ``(args, tol) -> payload``.  A command takes
the ``--tol-*`` flags of the tolerances its handler reads (``_TOL_FIELDS``
maps each to its ``Tolerances`` field):

* ``--tol-rank``, ``--tol-grad`` and ``--tol-residual``: ``net classify``,
  ``net fixture``, ``net gd-sweep``;
* ``--tol-rank`` and ``--tol-residual``: ``openness check`` (the residual
  only with ``--witnesses``), ``realize``, ``realize ratio-sweep``,
  ``sym realize``;
* ``--tol-rank``: ``sym certify``, ``net counterexample``;
* ``--tol-residual``: ``openness probe``, ``sym solve``, ``net probe``;
* none: ``selftest``.

``--seed`` goes only where the command draws at random, and ``--trials``,
with its default, only on ``openness probe``, ``realize ratio-sweep`` and
``net gd-sweep``.  Every command also takes ``_COMMON``'s ``--jobs`` and
``--out``; ``--jobs`` stays on one-process commands because the benchmark
passes ``--jobs 1`` to each one.  Flags must be spelled in full: a prefix
such as ``--d`` or ``--tol`` is an unrecognized argument, which exits 2.

``run`` picks the longest path in the table that is a prefix of argv and
parses the rest with that command's leaf parser, which is built on first
use and kept for the life of the process, so no parser is built twice.
It then checks the flags every command shares, calls the handler with
the parsed flags and the run's ``Tolerances``, and prints
``{"config": ..., "result": ...}``.  ``config`` is derived from the
parsed flags: the command, ``seed`` and ``trials`` where the command
takes them, ``jobs``, all three tolerances (defaults included, whichever
flags the command takes), then every other flag in table order but those
naming files (``_FILE_FLAGS``: the inputs and ``--out``).
``selftest`` writes its own output: one line per criterion, and the
``--out`` file.

Verdicts live in the JSON payload, never in exit codes: 0 means the
command ran to completion.  ``_EXIT_CODES`` maps each error family to
its code, the first family that matches deciding: 2 flags bad input
(usage errors and missing or unreadable files included), 3 a domain
refusal (target out of certified range, no constructible instance, point
not open), 4 a numerical failure.  Every error also renders as a JSON
object on stderr.

Only what a command runs is imported: ``gd-sweep`` imports its process
pool (``concurrent.futures.process`` and ``multiprocessing``) only when
it runs more than one worker, ``min(--jobs, chunks of 8 trials)``, since
each command is a fresh process whose import dominates its wall time.
Beyond the standard library, every command imports numpy alone.

Every per-trial draw derives from the master seed, by counter or as row
``t`` of one seeded block, so identical configurations reproduce every
per-trial record bit-identically regardless of scheduling (wall-clock
timing is reported but excluded from that guarantee).
"""

import argparse
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
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
class ExperimentReport:
    records: list
    aggregates: dict
    wall_clock_seconds: float
    version: str = __version__


# flags whose values name files: the handlers read them, the echo leaves them out
_FILE_FLAGS = {"w1", "w2", "target", "sigma", "r", "w", "weights", "x", "y", "out"}
# --tol-<name> sets the Tolerances field it maps to
_TOL_FIELDS = {"rank": "rank_rel", "grad": "grad_abs", "residual": "residual_abs"}


def _tolerances(args):
    """Checks the flags every command shares; returns the run's tolerances."""
    kwargs = {}
    for name, field in _TOL_FIELDS.items():
        value = getattr(args, f"tol_{name}", None)
        if value is not None:
            if not 0 < value < np.inf:
                raise InputError(f"--tol-{name} must be positive and finite, got {value}")
            kwargs[field] = value
    if getattr(args, "seed", 0) < 0:
        raise InputError("--seed must be non-negative")
    if getattr(args, "trials", 1) < 1:
        raise InputError("trials must be a positive count")
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    return Tolerances(**kwargs)


def _config(path, args, tol):
    flags = vars(args)
    config = {"command": " ".join(path)}
    config.update((key, flags[key]) for key in ("seed", "trials", "jobs") if key in flags)
    config["tolerances"] = tol
    config.update((key, value) for key, value in flags.items() if key not in config
                  and key not in _FILE_FLAGS and not key.startswith("tol_"))
    return config


def _emit(config, out, payload):
    try:
        text = dump_json({"config": to_jsonable(config), "result": to_jsonable(payload)})
    except ValueError as exc:  # NaN or Inf somewhere in the result
        raise NumericalFailure(f"the result is not finite: {exc}") from exc
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


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
    # a pool starts all its workers at once, so no more than the sweep's
    # chunks of 8 trials
    workers = min(jobs, -(-trials // 8))
    if workers > 1:
        # imported here: the pool loads multiprocessing, which a one-worker
        # sweep and every other command never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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


# -- command handlers: (args, tol) -> payload ----------------------------------


def _pair(args):
    return FactorPair(load_matrix(args.w1), load_matrix(args.w2))


def _openness_check(args, tol):
    pair = _pair(args)
    payload = to_jsonable(check_openness(pair, tol))
    if args.witnesses:
        wt1, wt2 = construct_witnesses(pair, tol)
        payload.update(witness_w1_tilde=wt1, witness_w2_tilde=wt2)
    return payload


def _openness_probe(args, tol):
    pair = _pair(args)
    start = time.perf_counter()
    result = probe_openness(pair, args.delta, args.trials, tol, seed=args.seed)
    return ExperimentReport(
        records=result.pop("per_trial"),
        aggregates=result,
        wall_clock_seconds=time.perf_counter() - start,
    )


def _realize(args, tol):
    return realize(_pair(args), load_matrix(args.target), tol)


def _ratio_sweep(args, tol):
    pair = _pair(args)
    start = time.perf_counter()
    table = measure_delta_ratio(pair, args.deltas, args.trials, tol, seed=args.seed)
    return ExperimentReport(
        records=table,
        aggregates={
            "max_ratio": max(
                (row["max_ratio"] for row in table if row["max_ratio"]), default=None
            )
        },
        wall_clock_seconds=time.perf_counter() - start,
    )


def _sym_solve(args, tol):
    sigma = load_matrix(args.sigma)
    if 1 not in sigma.shape:
        raise InputError(f"{args.sigma}: sigma must be a 1 x n or n x 1 vector")
    return solve_p(sigma.ravel(), load_matrix(args.r), tol)


def _sym_realize(args, tol):
    return sym_realize(load_matrix(args.w), load_matrix(args.target), tol)


def _sym_certify(args, tol):
    return certify_bm_transfer(load_matrix(args.w), tol)


def _load_point(args):
    weights = load_matrices(args.weights)
    return NetworkPoint(weights, load_matrix(args.x), load_matrix(args.y))


def _net_classify(args, tol):
    return classify(_load_point(args), tol=tol, seed=args.seed)


def _instance(x, y, point):
    return {"x": x, "y": y, "weights": point.weights,
            "objective": objective(point.weights, x, y),
            "gradient_norm": gradient_norm(gradient(point.weights, x, y))}


def _net_counterexample(args, tol):
    x, y, point = counterexample_factory(args.dims)
    return {"dims": list(args.dims), **_instance(x, y, point),
            "global_value": global_value(min(args.dims), x, y, tol)}


def _net_fixture(args, tol):
    maker = _FIXTURES.get(args.name)
    if maker is None:
        raise InputError(
            f"unknown fixture {args.name!r}; choose from {sorted(_FIXTURES)}"
        )
    x, y, point = maker()
    report = classify(point, tol=tol, seed=args.seed)
    return {"name": args.name, "x": x, "y": y, "weights": point.weights,
            "objective": report.objective, "gradient_norm": report.gradient_norm,
            "classification": report}


def _net_probe(args, tol):
    return local_min_probe(_load_point(args), tol=tol, seed=args.seed)


def _net_gd_sweep(args, tol):
    return gd_sweep(
        trials=args.trials,
        seed=args.seed,
        tol=tol,
        dims=args.dims,
        depth=args.depth,
        dim_cap=args.dim_cap,
        x=load_matrix(args.x) if args.x else None,
        y=load_matrix(args.y) if args.y else None,
        jobs=args.jobs,
        max_iter=args.max_iter,
    )


def _selftest(args, tol):
    from . import selftest

    only = None
    if args.only is not None:
        try:
            only = {int(tok) for tok in args.only.split(",")}
        except ValueError as exc:
            raise InputError(f"--only must be comma-separated integers: {exc}") from exc
        unknown = sorted(only - set(selftest.CRITERIA))
        if unknown:
            raise InputError(
                f"--only: no criteria {unknown}; choose from {sorted(selftest.CRITERIA)}"
            )
    results = selftest.run_all(only=only, jobs=args.jobs)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] criterion {res.number}: "
              f"{res.name} ({res.seconds:.1f}s)")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dump_json(to_jsonable(results)))
            fh.write("\n")


# flag types: argparse passes the InputError of a bad value on unchanged
def _dims(text):
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"--dims must be comma-separated integers: {exc}") from exc
    if len(dims) < 2:
        raise InputError("--dims needs at least two widths")
    if min(dims) < 1:
        raise InputError("--dims widths must be at least 1")
    return dims


def _deltas(text):
    try:
        deltas = [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"--deltas must be comma-separated reals: {exc}") from exc
    if not deltas:
        raise InputError("--deltas needs at least one distance")
    return deltas


# -- the command table ---------------------------------------------------------


# a command's flags as (flag, add_argument keywords) pairs and its
# handler, which returns None once it has written its own output
Command = namedtuple("Command", "flags handler")


def _required(*flags):
    return tuple((flag, {"required": True}) for flag in flags)


def _trials(default):
    return (("--trials", {"type": int, "default": default}),)


def _tol(*names):
    return tuple((f"--tol-{name}", {"type": float}) for name in names)


_SEED = (("--seed", {"type": int, "default": 0}),)
_PAIR = _required("--w1", "--w2")
_POINT = _required("--weights", "--x", "--y")

COMMANDS = {
    ("openness", "check"): Command(
        _PAIR + (("--witnesses", {"action": "store_true"}),) + _tol("rank", "residual"),
        _openness_check),
    ("openness", "probe"): Command(
        _PAIR + (("--delta", {"type": float, "default": 1e-5}),) + _tol("residual")
        + _SEED + _trials(50), _openness_probe),
    ("realize",): Command(
        _PAIR + _required("--target") + _tol("rank", "residual"), _realize),
    ("realize", "ratio-sweep"): Command(
        _PAIR + (("--deltas", {"type": _deltas, "required": True}),)
        + _tol("rank", "residual") + _SEED + _trials(5), _ratio_sweep),
    ("sym", "solve"): Command(_required("--sigma", "--r") + _tol("residual"), _sym_solve),
    ("sym", "realize"): Command(
        _required("--w", "--target") + _tol("rank", "residual"), _sym_realize),
    ("sym", "certify"): Command(_required("--w") + _tol("rank"), _sym_certify),
    ("net", "classify"): Command(_POINT + _tol(*_TOL_FIELDS) + _SEED, _net_classify),
    ("net", "counterexample"): Command(
        (("--dims", {"type": _dims, "required": True}),) + _tol("rank"),
        _net_counterexample),
    ("net", "fixture"): Command(
        _required("--name") + _tol(*_TOL_FIELDS) + _SEED, _net_fixture),
    ("net", "probe"): Command(_POINT + _tol("residual") + _SEED, _net_probe),
    ("net", "gd-sweep"): Command((
        ("--dims", {"type": _dims}),
        ("--depth", {"type": int, "default": 2}),
        ("--dim-cap", {"type": int, "default": 4}),
        ("--x", {}),
        ("--y", {}),
        ("--max-iter", {"type": int, "default": 100000}),
    ) + _tol(*_TOL_FIELDS) + _SEED + _trials(20), _net_gd_sweep),
    ("selftest",): Command((("--only", {}),), _selftest),
}

# flags every command takes after its own
_COMMON = (
    ("--jobs", {"type": int, "default": os.cpu_count() or 1}),
    ("--out", {}),
)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``InputError``, so they exit 2 with JSON."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@cache
def _leaf_parser(path):
    # allow_abbrev=False: a prefix such as --tol would otherwise stand for
    # whichever one flag it begins
    parser = _Parser(prog=" ".join(("openmap",) + path), allow_abbrev=False)
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
    args = _leaf_parser(path).parse_args(argv[len(path):])
    tol = _tolerances(args)
    payload = COMMANDS[path].handler(args, tol)
    if payload is not None:
        _emit(_config(path, args, tol), args.out, payload)
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
