"""Acceptance suite: every criterion at its stated tolerance.

A criterion is a plain body returning ``(checks, details)``: named
booleans and the measured quantities.  ``_criterion(number, name,
budget_s)`` registers it in ``CRITERIA``: the registered function keeps
the body's name and docstring, times the body, adds the check
``runtime_under_<budget>`` last, and returns a ``CriterionResult`` whose
``details`` end with ``checks``.  ``run_all`` executes the requested
subset and prints nothing (the CLI and the test module render results).
"""

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainRefusal, IllConditioned
from .landscape import (
    SADDLE_HIGHER_ORDER,
    SECOND_ORDER_SADDLE,
    SPURIOUS_LOCAL_MIN,
    _expansion,
    admissible_width_pair,
    classify,
    counterexample_factory,
    gradient,
    gradient_norm,
    objective,
    product_matrix,
    rank_deficient_y_fixture,
)
from .numcore import DEFAULT_TOL, Tolerances, bounded_basis, rank, singular_values
from .openness import FactorPair, check_openness, probe_openness
from .realization import measure_delta_ratio
from .symmetric import gauss_newton_sym_recover, solve_p, solve_p_delta0, sym_realize


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: dict


CRITERIA = {}


def _criterion(number, name, budget_s):
    """Register a ``(checks, details)`` body in ``CRITERIA`` as criterion
    ``number``, its runtime check labelled ``1s`` ... ``10min``."""
    label = f"{budget_s // 60:g}min" if budget_s >= 60 else f"{budget_s:g}s"

    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            start = time.perf_counter()
            checks, details = body(*args, **kwargs)
            seconds = time.perf_counter() - start
            checks[f"runtime_under_{label}"] = seconds < budget_s
            details["checks"] = checks
            return CriterionResult(number, name, all(checks.values()), seconds, details)

        CRITERIA[number] = run
        return run

    return register


def _saddle_checks(point, curve, want):
    """Classify ``point`` and expand ``f(w(s)) - f(w)`` exactly on the
    rational curve ``W_i + s^k D_i``, ``(k, D_i)`` per layer of ``curve``
    (``W_h`` first), by ``landscape._expansion`` on ``Fraction`` arrays.
    Returns the report, the checks that the verdict is ``SaddleHigherOrder``
    with ``W + step * d`` below the objective and that the coefficients
    are ``want``, and the details."""
    exact = np.vectorize(Fraction, otypes=[object])
    escape = _expansion([exact(w) for w in point.weights], [(k, exact(d)) for k, d in curve],
                        exact(point.x), exact(point.y))
    report = classify(point)
    d = report.descent_direction
    saddle = report.status == SADDLE_HIGHER_ORDER and objective(
        [w + d.step * m for w, m in zip(point.weights, d.directions)], point.x, point.y,
    ) < report.objective
    return report, {"classified_saddle": saddle, "exact_escape": escape == want}, dict(
        status=report.status, escape_coefficients=[str(c) for c in escape])


def _factory_check(dims):
    """Checks and details of a depth-3 ``counterexample_factory`` point: its
    exact values, its ``SaddleHigherOrder`` verdict, and the exact
    expansion ``-s^4 / 2 + s^6 + s^8 / 2`` on the escape that grows
    ``W_3[-1, 0]``, ``W_2[0, 0]`` and ``W_1[0, -1]`` as ``s``, ``s^2`` and
    ``s``."""
    _, _, point = counterexample_factory(dims)
    units = [np.zeros_like(w) for w in point.weights]
    for d, idx in zip(units, ((-1, 0), (0, 0), (0, -1))):
        d[idx] = 1.0
    half = Fraction(1, 2)
    report, saddle, details = _saddle_checks(
        point, list(zip((1, 2, 1), units)), [0, 0, 0, 0, -half, 0, 1, 0, half])
    checks = {
        "objective_half": abs(report.objective - 0.5) <= 1e-12,
        "gradient_zero": report.gradient_norm <= 1e-12,
        "global_value_zero": abs(report.global_value) <= 1e-12,
        **saddle,
    }
    return checks, dict(objective=report.objective, gradient_norm=report.gradient_norm,
                        global_value=report.global_value, **details)


@_criterion(1, "corner-target fixture", budget_s=1.0)
def criterion_1():
    """Corner-target fixture: exact values, exact escape, classification."""
    return _factory_check((2, 1, 1, 2))


@_criterion(2, "rank-two-target fixture", budget_s=1.0)
def criterion_2():
    """Rank-two-target fixture: exact identities, exact escape, classification."""
    x, y, point = rank_deficient_y_fixture()
    w3, _, w1 = point.weights
    delta = product_matrix(point.weights) @ x - y
    obj = objective(point.weights, x, y)
    _, saddle, details = _saddle_checks(point, [(1, [[-1, 1], [0, 0], [1, -1]]),
                                                (2, [[-0.25, 0.25], [0.25, -0.25]]),
                                                (1, [[1, 0, -1], [-1, 0, 1]])],
                                        [0, 0, 0, 0, -2, 0, 4, 0, 2])
    checks = {
        "objective_two": abs(obj - 2.0) <= 1e-12,
        "left_identity": float(np.abs(w3.T @ delta).max()) <= 1e-12,
        "right_identity": float(np.abs(delta @ w1.T).max()) <= 1e-12,
        **saddle,
    }
    return checks, dict(objective=obj, **details)


def _grid_matrices(rows, cols):
    """Stack of every rows-by-cols matrix with entries in {-1, 0, 1}."""
    entries = (-1.0, 0.0, 1.0)
    grid = np.array(list(itertools.product(entries, repeat=rows * cols)))
    return grid.reshape(-1, rows, cols)


def _exact_rank(mats):
    """Exact ranks of a ``(..., m, n)`` stack of integer-valued matrices
    by fraction-free (Bareiss) elimination with row pivoting: each entry
    stays an integer minor of the input, so no rounding decides a rank.
    The minors and their pairwise products must fit in ``int64``, as they
    do for the small grids of criterion 3."""
    a = np.array(mats, dtype=np.int64)
    lead, (m, n) = a.shape[:-2], a.shape[-2:]
    a = a.reshape(-1, m, n)
    every = np.arange(len(a))
    row = np.arange(m)
    ranks = np.zeros(len(a), dtype=int)
    prev = np.ones(len(a), dtype=np.int64)
    for c in range(n):
        # pivot: the first row at or below the rank with a nonzero in column c
        cand = (a[:, :, c] != 0) & (row >= ranks[:, None])
        has = cand.any(axis=1)
        r = np.minimum(ranks, m - 1)
        p = np.where(has, cand.argmax(axis=1), r)
        a[every, r], a[every, p] = a[every, p], a[every, r]
        piv = a[every, r, c]
        prow = a[every, r]
        elim = (piv[:, None, None] * a - a[:, :, c:c + 1] * prow[:, None, :]) // prev[:, None, None]
        below = has[:, None] & (row > r[:, None])
        a[below] = elim[below]
        prev[has] = piv[has]
        ranks += has
    return ranks.reshape(lead)


@_criterion(3, "openness oracle agreement", budget_s=300.0)
def criterion_3():
    """Exhaustive-grid verdicts cross-checked against the recovery oracle.

    Every factor pair with entries in {-1,0,1} and shapes m,n <= 3,
    k <= 2 receives a verdict through the decision arithmetic (vectorized
    for the enumeration); the Gauss-Newton probe validates the verdicts
    exhaustively on the small shapes and on seeded samples of the large
    ones (full probing of all 7e5 pairs would dwarf the runtime budget).
    Verdicts rest on exact ranks from integer elimination; the float ranks
    of every grid matrix and product, and those ``check_openness`` reads
    off its spectra, must equal them.
    """
    tol = DEFAULT_TOL
    delta, trials = 1e-5, 50
    shapes = [(m, k, n) for m in (1, 2, 3) for n in (1, 2, 3) for k in (1, 2)]
    probed = agreed = flagged = verdict_mismatch = rank_mismatch = 0
    enumerated = 0
    per_shape = []
    rng_master = np.random.default_rng(0)
    for m, k, n in shapes:
        w1s, w2s = _grid_matrices(m, k), _grid_matrices(k, n)
        n1, n2 = len(w1s), len(w2s)
        total = n1 * n2
        enumerated += total
        prods = np.einsum("aik,bkj->abij", w1s, w2s)
        r1, r2 = _exact_rank(w1s), _exact_rank(w2s)
        rp = np.array([_exact_rank(row) for row in prods])  # row by row: small temporaries
        rank_mismatch += sum(
            int((rank(mats, tol) != exact).sum())
            for mats, exact in ((w1s, r1), (w2s, r2), (prods, rp))
        )
        # verdicts for every pair via the rank identity
        if k >= min(m, n):
            d_nc = r2[None, :] - rp
            open_all = (d_nc <= k - m) | (
                n - (r2[None, :] - d_nc) <= k - r1[:, None]
            )
        else:
            open_all = (r1[:, None] == r2[None, :]) & (r2[None, :] == rp)
        shape_open = int(open_all.sum())

        if total <= 2200:
            pick = np.arange(total)
        else:
            pick = rng_master.choice(total, size=600, replace=False)
        for flat in pick:
            i, j = divmod(int(flat), n2)
            pair = FactorPair(w1s[i], w2s[j])
            probed += 1
            try:
                rep = check_openness(pair, tol)
            except IllConditioned:
                flagged += 1
                continue
            ranks = (rep.rank_w1, rep.rank_w2, rep.rank_product)
            if rep.open != bool(open_all[i, j]) or ranks != (r1[i], r2[j], rp[i, j]):
                verdict_mismatch += 1
                continue
            probe = probe_openness(pair, delta, trials, tol, seed=0)
            if rep.open == (probe["successes"] == trials):
                agreed += 1
        per_shape.append({"shape": (m, k, n), "pairs": total, "open": shape_open})
    agreement = agreed / probed if probed else 0.0
    checks = {
        "agreement_at_least_99pct": agreement >= 0.99,
        "all_disagreements_flagged": (probed - agreed - flagged) == 0,
        "decision_procedure_consistent": verdict_mismatch == 0 and rank_mismatch == 0,
    }
    return checks, dict(
        enumerated_pairs=enumerated, probed_pairs=probed,
        agreement=agreement, flagged=flagged, verdict_mismatches=verdict_mismatch,
        float_rank_mismatches=rank_mismatch, per_shape=per_shape,
    )


@_criterion(4, "realization bound", budget_s=60.0)
def criterion_4():
    """Realization succeeds at seven distances, 1e-3 to 1e-9, with stable
    ratios: ``measure_delta_ratio`` with one trial on each of 20 seeded open
    pairs, pair ``i`` at seed ``i``; every error but ``DeltaTooLarge`` fails."""
    rng = np.random.default_rng(0)
    deltas = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
    worst_residual = worst_spread = 0.0
    failures = []
    pairs_done = 0
    while pairs_done < 20:
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        k = int(rng.integers(1, min(m, n)))
        pair = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
        if not check_openness(pair).open:
            continue
        rows = measure_delta_ratio(pair, deltas, trials=1, seed=pairs_done)
        for row in rows:
            delta, residual = row["delta"], row["max_residual"]
            failures += [f"{err} at delta={delta}" for err in row["errors"]
                         if err != "DeltaTooLarge"]
            worst_residual = max(worst_residual, residual)
            if residual > 1e-10:
                failures.append(f"residual {residual:.2e} at delta={delta}")
        ratios = [row["max_ratio"] for row in rows if row["max_ratio"] is not None]
        if len(ratios) >= 2:
            worst_spread = max(worst_spread, max(ratios) / min(ratios))
        pairs_done += 1
    checks = {
        "no_failures": not failures,
        "residual_within_1e-10": worst_residual <= 1e-10,
        "ratio_spread_under_10x": worst_spread < 10.0,
    }
    return checks, dict(worst_residual=worst_residual, worst_ratio_spread=worst_spread,
                        failures=failures[:10])


@_criterion(5, "triangular quadratic solver", budget_s=10.0)
def criterion_5():
    """Triangular quadratic solver: exactness and coefficient bounds."""
    rng = np.random.default_rng(0)
    worst_eq = 0.0
    bound_ok = True
    sharp_ratio = 0.0
    for i in range(500):
        n = int(rng.integers(1, 9))
        sigma = rng.uniform(0.5, 2.0, size=n)
        g = rng.standard_normal((n, n))
        r_sym = 0.5 * (g + g.T)
        if i % 2 == 0:
            scale = solve_p_delta0(sigma) * rng.uniform(0.05, 1.0)
        else:
            scale = 1e-8 * rng.uniform(0.1, 1.0)
        r_sym *= scale / np.abs(r_sym).max()
        res_p = solve_p(sigma, r_sym)
        recon = res_p.p + res_p.p.T + (res_p.p * (1.0 / sigma)) @ res_p.p.T
        worst_eq = max(worst_eq, float(np.abs(recon - r_sym).max()))
        r_inf = float(np.abs(r_sym).max())
        if res_p.p_inf_norm > 3.0 * r_inf:
            bound_ok = False
        if r_inf <= 1e-8:
            sharp_ratio = max(sharp_ratio, res_p.p_inf_norm / r_inf)
    checks = {
        "per_equation_residual_1e-12": worst_eq <= 1e-12,
        "inf_norm_within_3x": bound_ok,
        "sharp_ratio_within_2.2": sharp_ratio <= 2.2,
    }
    return checks, dict(worst_equation_residual=worst_eq, sharp_ratio=sharp_ratio)


@_criterion(6, "symmetric realization", budget_s=60.0)
def criterion_6():
    """Symmetric realization vs the independent recovery oracle."""
    rng = np.random.default_rng(0)
    worst_residual = 0.0
    disagreements = 0
    gate_refusals = 0
    for i in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        w = rng.standard_normal((n, k))
        style = i % 4
        if style == 1 and k > 1:
            w[:, : int(rng.integers(1, k))] = 0.0
        elif style == 2:
            w = w @ np.ones((k, 1)) @ np.ones((1, k)) / k  # rank one
        elif style == 3:
            w[:] = 0.0
        infeasible = (i % 10 == 9) and n > k
        if infeasible:
            target = w @ w.T + 1e-4 * np.eye(n)  # full-rank mass: rank n > k
            delta = float(np.linalg.norm(target - w @ w.T))
        else:
            svals = singular_values(w)
            pos = svals[svals > 1e-12]
            # rank-raising mass admits only square-root-sized witnesses,
            # so keep the distance above the oracle's cap crossover 1e-6
            margin = (pos.min() ** 2) / (8.0 * max(n, 1) * (1 + np.linalg.norm(w))) \
                if pos.size else 5e-2
            g = rng.standard_normal((n, k))
            e = margin * rng.uniform(0.3, 1.0) * g / np.linalg.norm(g)
            target = (w + e) @ (w + e).T
            delta = float(np.linalg.norm(target - w @ w.T))
        try:
            wit = sym_realize(w, target)
            realized = True
            worst_residual = max(worst_residual, wit.residual / max(1.0, np.linalg.norm(target)))
        except DomainRefusal:
            realized = False
            gate_refusals += 1
        oracle = gauss_newton_sym_recover(w, target[None], delta, seed=i)
        if realized != bool(oracle["success"][0]):
            disagreements += 1
    checks = {
        "residual_within_1e-10": worst_residual <= 1e-10,
        "oracle_agreement_all": disagreements == 0,
    }
    return checks, dict(
        worst_relative_residual=worst_residual,
        disagreements=disagreements, refusals=gate_refusals,
    )


def _unexplained(report):
    """Trials of a ``gd_sweep`` report that converged to an endpoint
    neither within 1e-6 of the global value nor a saddle with a descent
    direction."""
    return [rec["trial"] for rec in report.records if rec["converged"] and not (
        abs(rec["objective_gap"]) <= 1e-6
        or (rec["status"] in (SECOND_ORDER_SADDLE, SADDLE_HIGHER_ORDER)
            and rec["has_descent_direction"]))]


@_criterion(7, "two-layer endpoint sweep", budget_s=120.0)
def criterion_7(jobs=1):
    """Two-layer sweep: converged endpoints reach the constrained optimum
    or carry a verified descent direction; no spurious verdicts."""
    from .cli import gd_sweep

    report = gd_sweep(
        trials=200, seed=0, tol=Tolerances(grad_abs=1e-9), depth=2, dim_cap=4, jobs=jobs,
        max_iter=100000,
    )
    bad = _unexplained(report)
    counts = report.aggregates["status_counts"]
    checks = {
        "all_converged_accounted": not bad,
        "zero_spurious": counts.get(SPURIOUS_LOCAL_MIN, 0) == 0,
    }
    total = len(report.records)
    return checks, dict(converged=total - report.aggregates["non_converged"], total=total,
                        unexplained_trials=bad[:10], status_counts=counts)


@_criterion(8, "width dichotomy sweep", budget_s=600.0)
def criterion_8(jobs=1):
    """Width dichotomy: constructible instances check their exact values,
    escape and verdict; architectures without an admissible width pair
    never produce a spurious verdict across seeded sweeps.  The converged
    endpoints that criterion 7's accounting would not explain are
    recorded as ``(dims, sweep seed, trial)``, not checked."""
    from .cli import gd_sweep

    factory_checks = {}
    for dims in ((2, 1, 1, 2), (3, 2, 2, 3)):
        checks, details = _factory_check(dims)
        factory_checks[str(dims)] = {**checks, **details}

    tol = Tolerances(grad_abs=1e-7)
    spurious_total = 0
    unexplained = []
    lacking = [dims for h in (2, 3, 4) for dims in itertools.product((1, 2, 3), repeat=h + 1)
               if admissible_width_pair(dims) is None]
    for t_idx, dims in enumerate(lacking):
        report = gd_sweep(trials=100, seed=t_idx, tol=tol, dims=dims, jobs=jobs, max_iter=100000)
        spurious_total += report.aggregates["status_counts"].get(SPURIOUS_LOCAL_MIN, 0)
        unexplained += [(dims, t_idx, trial) for trial in _unexplained(report)]
    checks = {
        "factories_exact": all(
            c["gradient_zero"] and c["objective_half"]
            for c in factory_checks.values()
        ),
        "factories_saddle_with_exact_escape": all(
            c["classified_saddle"] and c["exact_escape"]
            for c in factory_checks.values()
        ),
        "zero_spurious_on_lacking_tuples": spurious_total == 0,
    }
    return checks, dict(lacking_tuples=len(lacking), sweeps=len(lacking),
                        factory=factory_checks, spurious=spurious_total,
                        unexplained_endpoints=unexplained)


@_criterion(9, "gradient correctness", budget_s=10.0)
def criterion_9():
    """Analytic gradients against central differences."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 5))
        dims = [int(d) for d in rng.integers(1, 5, size=h + 1)]
        n = int(rng.integers(1, 5))
        weights = [
            rng.uniform(-1, 1, size=(dims[i], dims[i + 1])) for i in range(h)
        ]
        x = rng.uniform(-1, 1, size=(dims[-1], n))
        y = rng.uniform(-1, 1, size=(dims[0], n))
        exact = gradient(weights, x, y)
        eps_fd = 1e-6
        err2 = 0.0
        for idx, w in enumerate(weights):
            for pos in np.ndindex(*w.shape):
                bump = np.zeros_like(w)
                bump[pos] = eps_fd
                plus = list(weights)
                plus[idx] = w + bump
                minus = list(weights)
                minus[idx] = w - bump
                fd = (objective(plus, x, y) - objective(minus, x, y)) / (2 * eps_fd)
                err2 += (fd - exact[idx][pos]) ** 2
        rel = np.sqrt(err2) / max(1e-9, gradient_norm(exact))
        worst = max(worst, rel)
    return {"relative_error_1e-6": worst <= 1e-6}, dict(worst_relative=worst)


@_criterion(10, "bounded basis selection", budget_s=5.0)
def criterion_10():
    """Bounded row-basis selection on seeded rank-deficient matrices."""
    rng = np.random.default_rng(0)
    worst_res = 0.0
    bound_ok = True
    done = 0
    while done < 500:
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(m - 1, n) + 1))
        v = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        v *= 10.0 ** rng.integers(-2, 3)
        if rank(v) >= m:
            continue
        res_b = bounded_basis(v)
        r_eff = len(res_b.basis_rows)
        if res_b.coeff_inf_norm > 2.0 ** (m - r_eff - 1) * (1 + 1e-12):
            bound_ok = False
        if res_b.coeffs.size:
            vb = v[list(res_b.basis_rows)]
            vn = v[list(res_b.nonbasis_rows)]
            fit = float(np.linalg.norm(vn - res_b.coeffs @ vb))
            worst_res = max(worst_res, fit / max(1.0, float(np.abs(v).max())))
        done += 1
    checks = {
        "reconstruction_1e-10": worst_res <= 1e-10,
        "coefficient_bound": bound_ok,
    }
    return checks, dict(worst_residual=worst_res)


def run_all(only=None, jobs=1):
    return [fn(jobs=jobs) if number in (7, 8) else fn()
            for number, fn in sorted(CRITERIA.items()) if only is None or number in only]
