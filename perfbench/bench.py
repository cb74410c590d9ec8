"""Runs one workload in-process through ``openmap.cli.main`` and reports it.

A run sets up (imports openmap in a fresh interpreter and writes the
workload's input files, five times, reporting the median CPU time),
warms up on the first job, then runs jobs in order, cycling through the
pool, until the CLI commands have taken ``--seconds`` of CPU time and a
round of the pool's mix is complete.  Only the time inside
``openmap.cli.main`` counts, scaled to a reference speed (see
``Measurement``); output checks and oracles run between commands,
outside the timings.

With ``--trace 0`` the last output line carries the end-to-end metrics;
with ``--trace 1`` the run is traced layer by layer (see ``tracer.py``),
the same jobs are then replayed untraced to measure the tracer's
overhead, the spans are written to ``.perfbench_out/`` and the last line
carries the per-layer metrics.  Lines before it give every metric in
words, the payload digest and the run's metadata.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import workloads as wl
from tracer import Tracer

# Seeds 1-10 were used while the benchmark was tuned; this one was not,
# and is kept for confirming a claimed gain on unseen inputs.
HELD_OUT_SEED = 4099

# CPU time of one ``reference()`` call at the speed the reported times are
# scaled to (a round number near its median on the 2-core VM the benchmark
# was tuned on)
REF_NOMINAL_S = 2.0e-3
REF_EVERY_S = 0.02  # command CPU time between two reference calls
REF_WINDOW = 5  # reference calls whose median scales the commands before the last one

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
SETUP_REPS = 5
TAIL_LADDER = (99, 95, 90, 75, 50)


def _sym_oracle(w, targets, delta, seed):
    # looked up per call so that a traced run reaches the wrapped oracle
    return sys.modules["openmap.symmetric"].gauss_newton_sym_recover(
        w, targets, delta, seed=seed)


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    build: object  # callable(rng, Files) -> list of Job
    round_jobs: int  # jobs in one round of the pool's mix; runs end on a whole round
    digest_jobs: int  # leading jobs whose payloads form the digest


WORKLOADS = {
    "probe": Workload(lambda rng, files: wl.build_probe(rng, files, rounds=17),
                      len(wl.PROBE_SHAPES), 6),
    "realize": Workload(
        lambda rng, files: wl.build_realize(rng, files, pool=600, oracle=_sym_oracle), 10, 40),
    "descent": Workload(lambda rng, files: wl.build_descent(rng, pool=600),
                        wl.COST_STRATA * (1 + wl.RANDOM_PER_FIXED), 5),
    "classify": Workload(lambda rng, files: wl.build_classify(rng, files, rounds=16),
                         len(wl.FIXTURES) + 2 + 2 * wl.FAST_PER_ROUND, 34),
}

END_TO_END = {  # name -> unit; every metric is printed, these go in the result line
    "setup_s": "s",
    "items_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "solved_fraction": "fraction",
}


class SetupError(Exception):
    """The checkout does not hold the program's sources."""


def load_openmap(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "openmap", "__init__.py")):
        raise SetupError(f"no openmap sources under {src}")
    sys.path.insert(0, src)
    import openmap.cli

    if not os.path.abspath(openmap.cli.__file__).startswith(src + os.sep):
        raise SetupError(f"openmap was imported from {openmap.cli.__file__}, not {src}")
    return openmap.cli


def import_seconds(root):
    """CPU time to import the CLI module in a fresh interpreter."""
    code = ("import sys, time; t = time.process_time(); sys.path.insert(0, 'src'); "
            "import openmap.cli; print(time.process_time() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def build_jobs(name, seed, directory):
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return WORKLOADS[name].build(rng, wl.Files(directory))


def timed_setup(name, seed, root, workdir):
    """Import plus input generation, ``SETUP_REPS`` times; each repetition's
    CPU time is scaled to the reference speed like the command times."""
    times = []
    jobs = None
    for rep in range(SETUP_REPS):
        before = reference()
        seconds = import_seconds(root)
        start = time.process_time()
        jobs = build_jobs(name, seed, os.path.join(workdir, f"rep{rep}"))
        seconds += time.process_time() - start
        times.append(seconds * 2.0 * REF_NOMINAL_S / (before + reference()))
    return statistics.median(times), times, jobs


# -- running commands ------------------------------------------------------------


def run_command(argv):
    """One CLI command in-process; returns its output, CPU time and wall
    time."""
    main = sys.modules["openmap.cli"].main
    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # noqa: BLE001 - an uncaught exception fails the item
        code = None
        err.write(traceback.format_exc())
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return wl.Output(code, out.getvalue(), err.getvalue()), cpu, wall


def _strip_wall_clock(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_clock(v) for k, v in obj.items() if k != "wall_clock_seconds"}
    if isinstance(obj, list):
        return [_strip_wall_clock(v) for v in obj]
    return obj


def _parsed(text):
    try:
        return _strip_wall_clock(json.loads(text))
    except json.JSONDecodeError:
        return text


def canonical(outputs):
    """Bytes of a job's outputs with wall-clock fields removed; uncaught
    exceptions enter by type only, since tracebacks hold file paths."""
    rows = []
    for out in outputs:
        stderr = out.stderr.strip().splitlines()[-1] if out.code is None else _parsed(out.stderr)
        rows.append({"code": out.code, "stdout": _parsed(out.stdout), "stderr": stderr})
    return json.dumps(rows, sort_keys=True).encode()


def _reference_parser():
    parser = argparse.ArgumentParser(prog="reference")
    for flag in ("--alpha", "--beta", "--gamma", "--delta"):
        parser.add_argument(flag, type=float, default=None)
    parser.add_argument("--name", required=True)
    return parser


def reference():
    """CPU time of a fixed piece of work like the program's own, from the
    standard library and numpy only: argument parsing, JSON round trips,
    small LAPACK SVDs and small matrix products."""
    a = np.arange(16.0).reshape(4, 4) % 7.0 + np.eye(4)
    b = np.arange(9.0).reshape(3, 3) / 9.0
    doc = {"rows": 3, "cols": 3, "data": [0.1 * i for i in range(9)], "flag": True}
    start = time.process_time()
    for _ in range(4):
        _reference_parser().parse_args(["--alpha", "1e-3", "--name", "x"])
        for _ in range(6):
            json.loads(json.dumps(doc))
        for _ in range(12):
            np.linalg.svd(a)
            b @ b @ b
    return time.process_time() - start


@dataclass
class Measurement:
    """Command times are CPU seconds scaled to the reference speed: each
    command's CPU time times ``REF_NOMINAL_S`` over the median of the last
    ``REF_WINDOW`` reference timings, the last one taken just after it.
    The machine is shared, and its speed drifts by a quarter within a
    minute; the drift slows the reference as much as the program, so the
    scaled times keep the program's own cost."""

    jobs: int = 0
    items: int = 0
    program_s: float = 0.0  # scaled CPU time inside the commands
    program_cpu_s: float = 0.0
    program_wall_s: float = 0.0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)  # scaled, per command
    references: list = field(default_factory=list)
    truncated: bool = False  # stopped by the wall-clock cap
    outcomes: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)
    digest: str = ""
    kinds: Counter = field(default_factory=Counter)


def measure(jobs, seconds=None, count=None, round_jobs=1, digest_jobs=0, tracer=None):
    """Run jobs in order, cycling, until the commands have taken
    ``seconds`` of CPU time and a round of ``round_jobs`` is complete (or
    until ``count`` jobs ran), and at least ``digest_jobs`` jobs ran."""
    res = Measurement()
    digest = hashlib.sha256()
    wall0 = time.perf_counter()
    # keeps a traced run (traced pass plus replay) inside the time limit
    # of one benchmark run even on a much slower machine
    wall_cap = 2.5 * (seconds or 0.0) + 10.0 if count is None else 90.0
    res.references.append(reference())
    pending = []  # CPU times of the commands since the last reference call

    def scale():
        res.references.append(reference())
        factor = REF_NOMINAL_S / statistics.median(res.references[-REF_WINDOW:])
        res.latencies.extend(t * factor for t in pending)
        res.program_s += factor * sum(pending)
        pending.clear()

    while True:
        job = jobs[res.jobs % len(jobs)]
        if tracer is not None:
            tracer.item = res.jobs
        outputs = []
        for argv in job.commands:
            out, cpu, wall = run_command(argv)
            outputs.append(out)
            pending.append(cpu)
            res.program_cpu_s += cpu
            res.program_wall_s += wall
        if tracer is not None:
            tracer.set_phase("check")
        outcomes = job.check(job, outputs)
        if tracer is not None:
            tracer.set_phase("program")
        res.outcomes.update(outcomes)
        res.items += len(outcomes)
        res.kinds[job.info.get("kind", "")] += 1
        if wl.FAILED in outcomes and len(res.failures) < 5:
            res.failures.append({"job": res.jobs, "argv": job.commands,
                                 "codes": [o.code for o in outputs],
                                 "stderr": [o.stderr[-300:] for o in outputs]})
        if res.jobs < digest_jobs:
            digest.update(canonical(outputs))
        res.jobs += 1
        if sum(pending) >= REF_EVERY_S:
            scale()
        if res.jobs >= digest_jobs:
            if count is not None and res.jobs >= count:
                break
            if (count is None and res.program_cpu_s >= seconds
                    and res.jobs % round_jobs == 0):
                break
        if time.perf_counter() - wall0 > wall_cap:
            res.truncated = True
            break
    if pending:
        scale()
    res.wall_s = time.perf_counter() - wall0
    res.digest = digest.hexdigest()
    return res


# -- metrics ----------------------------------------------------------------------


def tail_latency(latencies):
    """Highest ladder percentile with at least ten commands beyond it
    (nearest rank); returns (percentile, value, commands beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def end_to_end(res, setup_s):
    p, tail, beyond = tail_latency(res.latencies)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": res.items / res.program_s,
        "cmd_p50_ms": 1e3 * statistics.median(res.latencies),
        "cmd_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_fraction": res.outcomes[wl.SOLVED] / res.items,
    }
    notes = {
        "cmd_tail_ms": f"p{p} of {len(res.latencies)} commands, {beyond} beyond it",
        "fail_fraction": res.outcomes[wl.FAILED] / res.items,
    }
    return metrics, notes


def per_layer(tracer, traced, replay):
    prog, check = tracer.phases["program"], tracer.phases["check"]

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(name):
        return prog.calls[name]

    def ms_per_call(name, stats=prog):
        return ratio(1e3 * stats.incl[name], stats.calls[name])

    def nested_per_call(outer, inners):
        return ratio(sum(prog.nested[(outer, n)] for n in inners), calls(outer))

    svd = ("numcore.svd", "numcore.singular_values")
    sft = "openness.sample_feasible_target"
    gn = "openness.gauss_newton_recover"
    chk = "openness.check_openness"
    rlz = "realization.realize"
    gd = "landscape.run_gradient_descent"
    lmp = "landscape.local_min_probe"
    cls = "landscape.classify"
    iters = prog.extra["gd.iterations"]
    layers = tracer.layer_self_times("program")
    selfs = prog.self_time
    m = {
        "numcore.svd.calls": (sum(calls(n) for n in svd), "count"),
        "numcore.truncated_svd.calls": (calls("numcore.truncated_svd"), "count"),
        "numcore.rank.calls": (calls("numcore.rank"), "count"),
        "numcore.rank.us_per_call": (1e3 * ms_per_call("numcore.rank"), "us"),
        "numcore.self_s": (layers["numcore"], "s"),
        f"{sft}.calls": (calls(sft), "count"),
        f"{sft}.ms_per_call": (ms_per_call(sft), "ms"),
        f"{sft}.truncated_svd_per_call": (nested_per_call(sft, ["numcore.truncated_svd"]), "count"),
        f"{gn}.calls": (calls(gn), "count"),
        f"{gn}.ms_per_call": (ms_per_call(gn), "ms"),
        f"{gn}.success_fraction": (ratio(prog.extra["gn.successes"], prog.extra["gn.trials"]),
                                   "fraction"),
        f"{chk}.calls": (calls(chk), "count"),
        f"{chk}.ms_per_call": (ms_per_call(chk), "ms"),
        f"{chk}.svd_per_call": (nested_per_call(chk, svd), "count"),
        "openness.self_s": (layers["openness"], "s"),
        f"{rlz}.calls": (calls(rlz), "count"),
        f"{rlz}.ms_per_call": (ms_per_call(rlz), "ms"),
        f"{rlz}.svd_per_call": (nested_per_call(rlz, svd), "count"),
        f"{rlz}.refusal_fraction": (ratio(prog.refusals[rlz], calls(rlz)), "fraction"),
        "realization.self_s": (layers["realization"], "s"),
        "symmetric.sym_realize.calls": (calls("symmetric.sym_realize"), "count"),
        "symmetric.sym_realize.ms_per_call": (ms_per_call("symmetric.sym_realize"), "ms"),
        "symmetric.solve_p.calls": (calls("symmetric.solve_p"), "count"),
        "symmetric.self_s": (layers["symmetric"], "s"),
        "symmetric.gauss_newton_sym_recover.ms_per_call": (
            ms_per_call("symmetric.gauss_newton_sym_recover", check), "ms"),
        f"{gd}.calls": (calls(gd), "count"),
        f"{gd}.self_s": (selfs[gd], "s"),
        "landscape.gd.iterations": (int(iters), "count"),
        "landscape.gd.us_per_iteration": (ratio(1e6 * prog.incl[gd], iters), "us"),
        "landscape.objective.per_iteration": (
            ratio(prog.nested[(gd, "landscape.objective")], iters), "count"),
        "landscape.network_point.per_iteration": (
            ratio(prog.nested[(gd, "landscape.network_point")], iters), "count"),
        "landscape.gradient.calls": (calls("landscape.gradient"), "count"),
        "landscape.gd.converged_fraction": (ratio(prog.extra["gd.converged"], calls(gd)),
                                            "fraction"),
        f"{lmp}.calls": (calls(lmp), "count"),
        f"{lmp}.ms_per_call": (ms_per_call(lmp), "ms"),
        f"{lmp}.self_s": (selfs[lmp], "s"),
        f"{cls}.calls": (calls(cls), "count"),
        f"{cls}.ms_per_call": (ms_per_call(cls), "ms"),
        **{f"{cls}.status.{s}": (int(prog.extra[f"classify.status.{s}"]), "count")
           for s in wl.STATUSES},
        "landscape.self_s": (layers["landscape"], "s"),
        "cli.self_s": (layers["cli"], "s"),
        "matrixio.load.self_s": (selfs["matrixio.load"], "s"),
        "matrixio.serialize.self_s": (selfs["matrixio.serialize"], "s"),
        "matrixio.payload_bytes": (ratio(prog.extra["payload_bytes"], len(traced.latencies)),
                                   "B/cmd"),
        "trace.overhead_fraction": (traced.program_s / replay.program_s - 1.0, "fraction"),
        "bench.traced_wall_s": (traced.wall_s, "s"),
        "bench.unattributed_s": (traced.wall_s - sum(layers.values()), "s"),
    }
    return m


# -- metadata ---------------------------------------------------------------------


def git_commit(root):
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "openmap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def metadata(root, args):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- entry ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed; {HELD_OUT_SEED} is held out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(res, metrics):
    failed = res.outcomes[wl.FAILED]
    return json.dumps({
        "correct": failed == 0,
        "attempted": res.items,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run(args, root):
    load_openmap(root)
    spec = WORKLOADS[args.workload]
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, setup_reps, jobs = timed_setup(args.workload, args.seed, root, workdir)
        measure(jobs, count=1)  # warm-up: lazy imports and first LAPACK calls
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}")
        print(f"setup reps (s): {', '.join(f'{t:.4f}' for t in setup_reps)}")
        if args.trace:
            tracer = Tracer()
            with tracer:
                res = measure(jobs, args.seconds, round_jobs=spec.round_jobs,
                              digest_jobs=spec.digest_jobs, tracer=tracer)
            replay = measure(jobs, count=res.jobs)
            metrics = per_layer(tracer, res, replay)
            report_trace(args, root, tracer, metrics)
        else:
            res = measure(jobs, args.seconds, round_jobs=spec.round_jobs,
                          digest_jobs=spec.digest_jobs)
            values, notes = end_to_end(res, setup_s)
            metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
            for key, (value, unit) in metrics.items():
                note = f"  ({notes[key]})" if key in notes else ""
                print(f"{key:<16} {value:.6g} {unit}{note}")
            print(f"{'fail_fraction':<16} {notes['fail_fraction']:.6g} fraction  "
                  f"({res.outcomes[wl.FAILED]} of {res.items} items)")
        print(f"items {res.items}  jobs {res.jobs}  commands {len(res.latencies)}  "
              f"outcomes {dict(res.outcomes)}  job kinds {dict(res.kinds)}")
        print(f"command time: scaled {res.program_s:.4f} s, cpu {res.program_cpu_s:.4f} s, "
              f"wall {res.program_wall_s:.4f} s; reference median "
              f"{1e3 * statistics.median(res.references):.4f} ms "
              f"(nominal {1e3 * REF_NOMINAL_S} ms, {len(res.references)} calls)")
        print(f"payload_sha256 {res.digest}  (first {spec.digest_jobs} jobs)")
        if res.truncated:
            print("note: stopped by the wall-clock cap before the CPU-time target")
        for failure in res.failures:
            print(f"failed item: {json.dumps(failure)}")
        print("meta " + json.dumps(metadata(root, args)))
        print(_result_line(res, metrics))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def report_trace(args, root, tracer, metrics):
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(path)
    for key, (value, unit) in metrics.items():
        print(f"{key:<56} {value:.6g} {unit}")
    layers = tracer.layer_self_times("program")
    groups = tracer.phases["program"].self_time
    total = sum(layers.values()) + metrics["bench.unattributed_s"][0]
    print(f"self times: layers {sum(layers.values()):.4f} s + unattributed "
          f"{metrics['bench.unattributed_s'][0]:.4f} s = {total:.4f} s "
          f"(traced wall {metrics['bench.traced_wall_s'][0]:.4f} s)")
    top = sorted(groups.items(), key=lambda kv: -kv[1])[:3]
    incl = tracer.phases["program"].incl
    top_incl = sorted(((k, v) for k, v in incl.items() if k != "cli.main"),
                      key=lambda kv: -kv[1])[:3]
    print(f"largest layer self time: {max(layers, key=layers.get)}; largest self times "
          + ", ".join(f"{k} {v:.3f} s" for k, v in top)
          + "; largest inclusive times below cli.main "
          + ", ".join(f"{k} {v:.3f} s" for k, v in top_incl))
    print(f"spans: {len(tracer.spans)} kept, {tracer.spans_dropped} beyond the cap, "
          f"written to {os.path.relpath(path, root)}")


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        return run(args, root)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

