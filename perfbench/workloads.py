"""Seeded inputs, CLI commands and output checks of the four workloads.

A workload is a list of jobs.  A job is a short list of ``openmap`` CLI
commands whose input matrices were written to JSON files during set-up,
plus a check that turns the commands' outputs into one outcome per item:
``"solved"`` (an independent check confirms the verdict), ``"unsolved"``
(the output is consistent but the verdict is not confirmed) or
``"failed"`` (exit code 4, an uncaught exception, or a failed output
check).  Checks recompute what they need with plain numpy; the only
openmap call they make is the symmetric recovery oracle, which the
benchmark runs outside its timings.

Every random choice comes from the workload seed, so the same seed gives
the same files and the same commands.
"""

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

SOLVED, UNSOLVED, FAILED = "solved", "unsolved", "failed"
STATUSES = ("GlobalMin", "SecondOrderSaddle", "SaddleHigherOrder",
            "SpuriousLocalMin", "NotCritical", "Inconclusive")
GRAD_ABS = 1e-9  # the CLI default tolerance, which every classify command uses
RESIDUAL_ABS = 1e-10


@dataclass
class Output:
    code: int | None  # None: the command raised instead of returning
    stdout: str
    stderr: str

    def payload(self):
        return json.loads(self.stdout)["result"]

    def error(self):
        return json.loads(self.stderr)


@dataclass
class Job:
    commands: list
    check: object  # callable(outputs) -> list of outcomes, one per item
    items: int = 1
    info: dict = field(default_factory=dict)


class Files:
    """Writes matrices in the CLI's interchange format under one
    directory and returns their paths."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def matrix(self, arr):
        return self._write({"rows": arr.shape[0], "cols": arr.shape[1],
                            "data": [float(v) for v in arr.ravel()]})

    def matrices(self, arrs):
        return self._write([{"rows": a.shape[0], "cols": a.shape[1],
                             "data": [float(v) for v in a.ravel()]} for a in arrs])

    def _write(self, obj):
        path = os.path.join(self.root, f"m{self.count:05d}.json")
        self.count += 1
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path


def _matrix(obj):
    return np.array(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])


def _guarded(check):
    """Turn a malformed payload (missing key, bad JSON) into failed items
    instead of an exception in the benchmark."""

    def run(job, outputs):
        if any(out.code is None for out in outputs):
            return [FAILED] * job.items
        try:
            return check(job, outputs)
        except (KeyError, TypeError, ValueError, IndexError):
            return [FAILED] * job.items

    return run


# -- probe: openness check + probe on {-1,0,1} factor pairs ---------------------


@_guarded
def _check_probe(job, outputs):
    check, *probes = outputs
    if any(out.code != 0 for out in outputs):
        return [FAILED]
    rep = check.payload()
    if rep["rank_product"] > min(rep["rank_w1"], rep["rank_w2"]):
        return [FAILED]
    agree = True
    for out in probes:
        agg = out.payload()["aggregates"]
        records = out.payload()["records"]
        trials = job.info["trials"]
        if len(records) != trials or agg["trials"] != trials:
            return [FAILED]
        if agg["successes"] != sum(bool(r["success"]) for r in records):
            return [FAILED]
        agree &= bool(rep["open"]) == (agg["successes"] == trials)
    return [SOLVED if agree else UNSOLVED]


PROBE_SHAPES = [(m, k, n) for m in (1, 2, 3) for k in (1, 2) for n in (1, 2, 3)]


def build_probe(rng, files, rounds):
    """Each round probes one pair of every shape of criterion 3
    (``m, n <= 3``, ``k <= 2``), in seeded order, entries in {-1, 0, 1}."""
    jobs = []
    trials = 50
    for _ in range(rounds):
        for shape in rng.permutation(len(PROBE_SHAPES)):
            m, k, n = PROBE_SHAPES[shape]
            f1 = files.matrix(rng.integers(-1, 2, size=(m, k)).astype(float))
            f2 = files.matrix(rng.integers(-1, 2, size=(k, n)).astype(float))
            seed = int(rng.integers(0, 2**31))
            pair = ["--w1", f1, "--w2", f2]
            # two independently seeded probes per pair keep the command
            # median inside the probe latencies instead of on the gap
            # between the fast check and the slow probe
            commands = [["openness", "check", *pair, "--jobs", "1"]] + [
                ["openness", "probe", *pair, "--delta", "1e-5", "--trials", str(trials),
                 "--seed", str(seed + j), "--jobs", "1"]
                for j in range(2)
            ]
            jobs.append(Job(commands, _check_probe, info={"trials": trials, "kind": "pair"}))
    return jobs


# -- realize: exact low-rank targets near open pairs, plus symmetric cases ----


@_guarded
def _check_realize(job, outputs):
    (out,) = outputs
    w1, w2, target = job.info["w1"], job.info["w2"], job.info["target"]
    if out.code == 0:
        res = out.payload()
        got = (w1 + _matrix(res["delta_w1"])) @ (w2 + _matrix(res["delta_w2"]))
        residual = float(np.linalg.norm(got - target))
        ok = residual <= RESIDUAL_ABS * max(1.0, float(np.linalg.norm(target)))
        return [SOLVED if ok else FAILED]
    if out.code == 3:
        delta0 = out.error().get("delta0")
        return [SOLVED if delta0 is not None and delta0 < job.info["distance"] else UNSOLVED]
    return [FAILED]


def _check_sym(oracle):
    @_guarded
    def check(job, outputs):
        (out,) = outputs
        w, target = job.info["w"], job.info["target"]
        if out.code == 0:
            a = _matrix(out.payload()["a_eps"])
            residual = float(np.linalg.norm((w + a) @ (w + a).T - target))
            if residual > RESIDUAL_ABS * max(1.0, float(np.linalg.norm(target))):
                return [FAILED]
            realized = True
        elif out.code == 3:
            realized = False
        else:
            return [FAILED]
        fit = oracle(w, target[None], job.info["distance"], seed=job.info["case"])
        return [SOLVED if realized == bool(fit["success"][0]) else UNSOLVED]

    return check


def _sym_case(rng, case):
    """Criterion-6 style symmetric case: full, partly zero, rank-one or
    zero ``w``; every tenth case is an infeasible full-rank target."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    w = rng.standard_normal((n, k))
    style = case % 4
    if style == 1 and k > 1:
        w[:, : int(rng.integers(1, k))] = 0.0
    elif style == 2:
        w = w @ np.ones((k, 1)) @ np.ones((1, k)) / k
    elif style == 3:
        w[:] = 0.0
    if case % 10 == 9 and n > k:
        target = w @ w.T + 1e-4 * np.eye(n)
    else:
        svals = np.linalg.svd(w, compute_uv=False)
        pos = svals[svals > 1e-12]
        margin = (pos.min() ** 2) / (8.0 * n * (1 + np.linalg.norm(w))) if pos.size else 5e-2
        g = rng.standard_normal((n, k))
        e = margin * rng.uniform(0.3, 1.0) * g / np.linalg.norm(g)
        target = (w + e) @ (w + e).T
    return w, target, float(np.linalg.norm(target - w @ w.T))


def build_realize(rng, files, pool, oracle):
    deltas = [10.0**-e for e in range(3, 10)]
    jobs = []
    case = 0
    while len(jobs) < pool:
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        k = int(rng.integers(1, min(m, n)))
        w1, w2 = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        f1, f2 = files.matrix(w1), files.matrix(w2)
        for delta in deltas:
            e1, e2 = rng.standard_normal((m, k)), rng.standard_normal((k, n))
            s = delta / np.linalg.norm(e1 @ w2 + w1 @ e2)
            target = (w1 + s * e1) @ (w2 + s * e2)  # rank <= k by construction
            jobs.append(Job(
                [["realize", "--w1", f1, "--w2", f2, "--target", files.matrix(target),
                  "--jobs", "1"]],
                _check_realize,
                info={"w1": w1, "w2": w2, "target": target, "kind": "realize",
                      "distance": float(np.linalg.norm(target - w1 @ w2))},
            ))
        for _ in range(3):
            w, target, distance = _sym_case(rng, case)
            jobs.append(Job(
                [["sym", "realize", "--w", files.matrix(w), "--target",
                  files.matrix(target), "--jobs", "1"]],
                _check_sym(oracle),
                info={"w": w, "target": target, "distance": distance, "case": case,
                      "kind": "sym"},
            ))
            case += 1
    return jobs


# -- descent: gradient-descent sweeps --------------------------------------------


def has_admissible_pair(dims):
    """True when widths ``p1 < p2`` inside the chain satisfy
    ``d_0 > d_p1`` and ``d_h > d_p2`` (dims ordered output first), the
    condition under which a non-global basin can be built."""
    h = len(dims) - 1

    def d(i):
        return dims[h - i]

    return any(d(0) > d(p1) and d(h) > d(p2)
               for p1 in range(1, h - 1) for p2 in range(p1 + 1, h))


LACKING = [dims for h in (2, 3, 4) for dims in itertools.product((1, 2, 3), repeat=h + 1)
           if not has_admissible_pair(dims)]
ADMISSIBLE = [dims for h in (3, 4) for dims in itertools.product((1, 2, 3), repeat=h + 1)
              if has_admissible_pair(dims)]

FIXED_TRIALS = 8  # widths fixed within a sweep: what batching by widths can group
RANDOM_TRIALS = 2  # widths change per trial: little to group
RANDOM_PER_FIXED = 4  # random-width sweeps after each fixed one: equal trial counts
COST_STRATA = 8
# iterations per trial (the CLI default is 100000): bounds each trial's
# cost so that one run averages over enough trials; a capped trial reports
# converged=false, like one stopped by the plateau rule, and both count as
# unsolved, so non-convergence stays visible
SWEEP_MAX_ITER = 300


@_guarded
def _check_sweep(job, outputs):
    (out,) = outputs
    if out.code != 0:
        return [FAILED] * job.items
    result = out.payload()
    records = result["records"]
    if len(records) != job.items:
        return [FAILED] * job.items
    outcomes = []
    tol_grad = job.info["tol_grad"]
    for rec in records:
        if rec["objective_gap"] != rec["objective"] - rec["global_value"]:
            outcomes.append(FAILED)
        elif not rec["converged"]:
            outcomes.append(FAILED if rec["status"] is not None else UNSOLVED)
        elif rec["status"] not in STATUSES or rec["gradient_norm"] > tol_grad:
            outcomes.append(FAILED)
        else:
            outcomes.append(SOLVED if rec["objective_gap"] >= -1e-9 else UNSOLVED)
    non_converged = sum(not rec["converged"] for rec in records)
    if result["aggregates"]["non_converged"] != non_converged:
        return [FAILED] * job.items
    return outcomes


def build_descent(rng, pool):
    """Fixed-width sweeps, each followed by ``RANDOM_PER_FIXED``
    random-width depth-2 sweeps (criterion-7 traffic).

    The fixed widths are tuples without an admissible width pair,
    ``(3,2,3,3,3)`` first.  The tuples are split by the cost of one
    gradient step (the sum of products of adjacent widths) into
    ``COST_STRATA`` equal groups, and each block of fixed sweeps takes one
    tuple of every group, in seeded order within the group: every seed
    then runs the same mix of cheap and dear tuples, which keeps the tail
    latency comparable between seeds.

    As in criterion 8, the sweeps draw their data and starting weights
    per trial from the seed the benchmark passes, so the trials of one
    sweep are independent; ``gd-sweep`` reads no weight files."""
    ranked = sorted((d for d in LACKING if d != (3, 2, 3, 3, 3)),
                    key=lambda d: (sum(a * b for a, b in zip(d, d[1:])), d))
    size = -(-len(ranked) // COST_STRATA)
    strata = [ranked[i:i + size] for i in range(0, len(ranked), size)]
    strata = [[group[i] for i in rng.permutation(len(group))] for group in strata]
    order = [(3, 2, 3, 3, 3)]
    while len(order) * (1 + RANDOM_PER_FIXED) < pool:
        block = len(order) // COST_STRATA
        order += [group[block % len(group)] for group in strata]
    jobs = []
    for dims in order:
        argv = ["net", "gd-sweep", "--dims", ",".join(map(str, dims)),
                "--tol-grad", "1e-7", "--trials", str(FIXED_TRIALS)]
        jobs.append(_sweep(rng, argv, FIXED_TRIALS, 1e-7, "fixed"))
        for _ in range(RANDOM_PER_FIXED):
            argv = ["net", "gd-sweep", "--depth", "2", "--dim-cap", "4",
                    "--trials", str(RANDOM_TRIALS)]
            jobs.append(_sweep(rng, argv, RANDOM_TRIALS, GRAD_ABS, "random"))
    return jobs


def _sweep(rng, argv, trials, tol_grad, kind):
    argv = [*argv, "--seed", str(int(rng.integers(0, 2**31))),
            "--max-iter", str(SWEEP_MAX_ITER), "--jobs", "1"]
    return Job([argv], _check_sweep, items=trials, info={"tol_grad": tol_grad, "kind": kind})


# -- classify: fixtures, factory points, degenerate and non-critical points ----


def _objective(weights, x, y):
    return 0.5 * float(np.linalg.norm(np.linalg.multi_dot([*weights, x]) - y) ** 2)


def _gradient_norm(weights, x, y):
    g_out = np.linalg.multi_dot([*weights, x]) - y
    total = 0.0
    for i in range(len(weights)):
        left = reduce(np.matmul, weights[:i], np.eye(y.shape[0]))
        right = reduce(np.matmul, [*weights[i + 1:], x])
        total += float(np.linalg.norm(left.T @ g_out @ right.T) ** 2)
    return float(np.sqrt(total))


def _global_value(min_width, x, y):
    """Best squared error over products of rank <= min_width."""
    _, s, vt = np.linalg.svd(x)
    r = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    y_rot = y @ vt.T
    reach = np.linalg.svd(y_rot[:, :r], compute_uv=False) if r else np.zeros(0)
    tail = float(np.sum(reach[min(min_width, r):] ** 2))
    return 0.5 * (tail + float(np.linalg.norm(y_rot[:, r:]) ** 2))


def _confirmed(rep, weights, x, y):
    """Independent check of a classification's evidence."""
    status = rep["status"]
    obj = _objective(weights, x, y)
    direction = rep.get("descent_direction")
    if status in ("SecondOrderSaddle", "SaddleHigherOrder"):
        if not direction:
            return False
        t = direction["step"]
        moved = [w + t * _matrix(d) for w, d in zip(weights, direction["directions"])]
        return _objective(moved, x, y) < obj
    if status == "GlobalMin":
        dims = [weights[0].shape[0]] + [w.shape[1] for w in weights]
        return obj <= _global_value(min(dims), x, y) + RESIDUAL_ABS
    if status == "NotCritical":
        return _gradient_norm(weights, x, y) > GRAD_ABS
    return False  # SpuriousLocalMin and Inconclusive are not certified


@_guarded
def _check_classify(job, outputs):
    (out,) = outputs
    if out.code != 0:
        return [FAILED]
    res = out.payload()
    if job.info.get("fixture"):
        weights = [_matrix(w) for w in res["weights"]]
        x, y = _matrix(res["x"]), _matrix(res["y"])
        rep = res["classification"]
    else:
        weights, x, y = job.info["weights"], job.info["x"], job.info["y"]
        rep = res
    obj = _objective(weights, x, y)
    if rep["status"] not in STATUSES or abs(rep["objective"] - obj) > 1e-9 * max(1.0, obj):
        return [FAILED]
    return [SOLVED if _confirmed(rep, weights, x, y) else UNSOLVED]


def factory_point(dims):
    """The paper's non-global-basin construction: identity input, one far
    corner target, identity-padded outer layers and zero layers between
    the first admissible width pair.  Weights are ordered output first."""
    h = len(dims) - 1

    def d(i):
        return dims[h - i]

    p1, p2 = next((p1, p2) for p1 in range(1, h - 1) for p2 in range(p1 + 1, h)
                  if d(0) > d(p1) and d(h) > d(p2))
    x = np.eye(d(0))
    y = np.zeros((d(h), d(0)))
    y[-1, -1] = 1.0
    weights = []
    for i in range(h, 0, -1):
        w = np.zeros((d(i), d(i - 1)))
        if not p1 + 1 <= i <= p2:
            m = min(w.shape)
            w[:m, :m] = np.eye(m)
        weights.append(w)
    return weights, x, y


FIXTURES = ("spurious-rank2-target", "appendix-d", "corner-target", "intro")
FAST_PER_ROUND = 14  # each of degenerate and non-critical points per round


def build_classify(rng, files, rounds):
    """Each round: the four fixtures, one factory point of depth 3 and one
    of depth 4, and ``FAST_PER_ROUND`` each of all-zero degenerate
    critical points and random non-critical points, in seeded order."""
    by_depth = {h: [d for d in ADMISSIBLE if len(d) == h + 1] for h in (3, 4)}
    jobs = []
    for _ in range(rounds):
        batch = [Job([["net", "fixture", "--name", name, "--jobs", "1"]], _check_classify,
                     info={"fixture": True, "kind": "fixture"})
                 for name in FIXTURES]
        points = [(factory_point(by_depth[h][int(rng.integers(len(by_depth[h])))]),
                   "factory") for h in (3, 4)]
        for kind in ("zero", "noncritical"):
            for _ in range(FAST_PER_ROUND):
                h = int(rng.integers(2, 5))
                dims = [int(v) for v in rng.integers(1, 5, size=h + 1)]
                n = int(rng.integers(1, 5))
                shapes = [(dims[i], dims[i + 1]) for i in range(h)]
                if kind == "zero":
                    weights = [np.zeros(s) for s in shapes]
                else:
                    weights = [rng.uniform(-1, 1, size=s) for s in shapes]
                x = rng.standard_normal((dims[-1], n))
                y = rng.standard_normal((dims[0], n))
                points.append(((weights, x, y), kind))
        for (weights, x, y), kind in points:
            argv = ["net", "classify", "--weights", files.matrices(weights),
                    "--x", files.matrix(x), "--y", files.matrix(y),
                    "--seed", str(int(rng.integers(0, 2**31))), "--jobs", "1"]
            batch.append(Job([argv], _check_classify,
                             info={"weights": weights, "x": x, "y": y, "kind": kind}))
        jobs.extend(batch[i] for i in rng.permutation(len(batch)))
    return jobs
