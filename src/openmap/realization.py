"""Constructive realization of feasible targets near a factor product.

Given an open pair ``(w1, w2)`` and a target ``z_tilde`` of admissible
rank near ``z = w1 @ w2``, produce perturbations ``(dw1, dw2)`` with
``(w1 + dw1) @ (w2 + dw2) == z_tilde`` exactly (to rounding), together
with the certified input radius ``delta0`` below which the factor
perturbations stay proportional to the target distance.

The rank-deficient-regime pipeline:

1. rotate into the frame where the product is diagonal;
2. classify target columns into an independent block and a dependent
   block via the bounded-coefficient row-basis selection (applied to
   columns), checking that the diagonal pivot columns stay independent;
3. complete the leading square block of the right factor to an
   invertible matrix using a scaled null-space basis of the left factor;
4. read off both perturbations from closed forms, un-permute, rotate
   back, and verify the product equation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DeltaTooLarge,
    GenericScaleFailed,
    IllConditioned,
    NotOpen,
    NumericalFailure,
    RankInfeasible,
)
from .matrixio import as_matrix
from .numcore import DEFAULT_TOL, bounded_basis, null_space, rank
from .openness import (
    REGIME_DEFICIENT,
    FactorPair,
    _openness_and_product_spectrum,
    null_completion,
    sample_feasible_target,
)


@dataclass
class RealizationWitness:
    delta_w1: np.ndarray
    delta_w2: np.ndarray
    target_residual: float
    delta_norm: float
    input_delta: float
    delta0: float | None = None
    guarantee_eps: float | None = None


def _witness(pair, dw1, dw2, z_tilde, input_delta, tol, delta0, eps=None):
    residual = float(
        np.linalg.norm((pair.w1 + dw1) @ (pair.w2 + dw2) - z_tilde)
    )
    scale = max(1.0, float(np.linalg.norm(z_tilde)))
    if residual > tol.residual_abs * scale:
        raise NumericalFailure(
            f"realized product misses the target: residual {residual:.3e}"
        )
    return RealizationWitness(
        delta_w1=dw1,
        delta_w2=dw2,
        target_residual=residual,
        delta_norm=float(max(np.linalg.norm(dw1), np.linalg.norm(dw2))),
        input_delta=float(input_delta),
        delta0=delta0,
        guarantee_eps=eps,
    )


def _realize_full_rank(pair, z_tilde, input_delta, rep, tol):
    """Direct completion in the regime where the image is everything."""
    w1, w2 = pair.w1, pair.w2
    r_delta = z_tilde - pair.product
    if rep.rank_w1 == pair.m:
        dw2 = np.linalg.pinv(w1) @ r_delta
        return _witness(pair, np.zeros_like(w1), dw2, z_tilde, input_delta, tol, None)
    if rep.rank_w2 == pair.n:
        dw1 = r_delta @ np.linalg.pinv(w2)
        return _witness(pair, dw1, np.zeros_like(w2), z_tilde, input_delta, tol, None)

    # a one-sided completion exists by openness; scale it against the
    # target distance (rank-raising targets force sqrt-sized witnesses)
    nr = np.linalg.norm(r_delta)
    scales = sorted({np.sqrt(max(nr, 1e-300)) * 2.0**j for j in range(-2, 3)})
    best = None

    def consider(dw1, dw2):
        nonlocal best
        try:
            cand = _witness(pair, dw1, dw2, z_tilde, input_delta, tol, None)
        except NumericalFailure:
            return
        if best is None or cand.delta_norm < best.delta_norm:
            best = cand

    for s in scales:
        if rep.condition_flags.get("w1_completion_exists"):
            try:
                wt1 = null_completion(w2.T, w1.T, tol, seed=17, scale=s).T
            except GenericScaleFailed:
                wt1 = None
            if wt1 is not None and rank(w1 + wt1, tol) == pair.m:
                consider(wt1, np.linalg.pinv(w1 + wt1) @ r_delta)
        if rep.condition_flags.get("w2_completion_exists"):
            try:
                wt2 = null_completion(w1, w2, tol, seed=19, scale=s)
            except GenericScaleFailed:
                wt2 = None
            if wt2 is not None and rank(w2 + wt2, tol) == pair.n:
                consider(r_delta @ np.linalg.pinv(w2 + wt2), wt2)
    if best is None:
        raise NumericalFailure("no full-rank completion produced a valid witness")
    return best


def _column_classification(st, r, k, tol):
    """Permutation putting the pivot columns first, then the remaining
    independent columns, then fills up to k; returns (perm, coeff matrix
    for the far block over the first k columns, rank of the target)."""
    bb = bounded_basis(st.T, tol)
    basis = list(bb.basis_rows)
    r_t = len(basis)
    if not set(range(r)).issubset(basis):
        raise IllConditioned(
            "a diagonal pivot column classified as dependent; the target "
            "perturbation is too large for a trustworthy classification"
        )
    n = st.shape[1]
    rest_basis = [c for c in basis if c >= r]
    nonbasis = list(bb.nonbasis_rows)
    front = list(range(r)) + rest_basis + nonbasis[: k - r_t]
    far = nonbasis[k - r_t :]
    perm = front + far

    # coefficients of far columns over the basis columns, re-indexed to
    # positions inside the front block (zeros for the dependent fillers)
    coeff_rows = {row: bb.coeffs[i] for i, row in enumerate(nonbasis)}
    basis_pos = {col: front.index(col) for col in basis}
    a_bar = np.zeros((k, len(far)))
    for j, col in enumerate(far):
        coeff = coeff_rows[col]
        for b_idx, col_b in enumerate(basis):
            a_bar[basis_pos[col_b], j] = coeff[b_idx]
    return perm, a_bar, r_t


def _realize_rank_deficient(pair, z_tilde, input_delta, sp, tol):
    """``sp`` is the ``Spectrum`` of ``pair.product``."""
    w1, w2 = pair.w1, pair.w2
    m, k, n = pair.m, pair.k, pair.n
    u, s, v, r = sp.u, sp.s, sp.v, sp.rank

    sigma_min = float(s[r - 1]) if r > 0 else None
    delta0 = sigma_min / 2.0 if sigma_min is not None else None
    if delta0 is not None and input_delta > delta0:
        raise DeltaTooLarge(
            f"target distance {input_delta:.3e} exceeds the certified "
            f"radius {delta0:.3e}",
            delta0=delta0,
        )

    w1b = u.T @ w1
    w2b = w2 @ v
    st = u.T @ z_tilde @ v
    sigma = np.zeros((m, n))
    np.fill_diagonal(sigma, s)
    sigma[:, r:] = 0.0
    sigma[r:, :] = 0.0

    perm, a_bar, r_t = _column_classification(st, r, k, tol)
    if r_t < r:
        raise IllConditioned("target rank dropped below the product rank")
    st_p = st[:, perm]
    c1 = st_p[:, :k]
    r1_block = c1[:, :r] - sigma[:, :r]
    r2_block = c1[:, r:k]

    if r < k:
        nb = null_space(w1b, tol)
        if nb.dim != k - r:
            raise IllConditioned(
                "null-space dimension of the rotated left factor does not "
                "match the product rank"
            )
        # scale balancing the two perturbation blocks: the inverse of the
        # completed square factor acts as 1/scale on the new-rank block
        r2_norm = np.linalg.norm(r2_block)
        candidates = sorted(
            {np.sqrt(max(r2_norm, 1e-300)) * 2.0**j for j in range(-3, 4)}
            | {max(input_delta, 1e-300)}
        )
    else:
        nb = None
        candidates = [None]

    w2b1 = w2b[:, :k]
    best = None
    for scale in candidates:
        wt21 = np.zeros((k, k))
        if nb is not None:
            wt21[:, r:] = scale * nb.columns
        m_block = w2b1 + wt21
        try:
            w1b0 = np.linalg.solve(m_block.T, np.hstack([r1_block, r2_block]).T).T
        except np.linalg.LinAlgError:
            continue
        w2b0_p = np.zeros((k, n))
        w2b0_p[:, :k] = wt21
        w2b0_p[:, k:] = m_block @ a_bar

        dw2b = np.zeros((k, n))
        dw2b[:, perm] = w2b0_p
        dw1 = u @ w1b0
        dw2 = dw2b @ v.T
        eps_bound = None
        if nb is not None:
            n_cap = n * 2.0**n
            minv = 1.0 / max(np.linalg.svd(m_block, compute_uv=False)[-1], 1e-300)
            term = minv
            if sigma_min is not None:
                term = max(
                    minv,
                    np.sqrt(2.0)
                    * np.linalg.norm(w2b1)
                    * (2.0 + 2.0 * n_cap)
                    / sigma_min,
                )
            eps_bound = float(input_delta * (1.0 + term))
        try:
            cand = _witness(
                pair, dw1, dw2, z_tilde, input_delta, tol, delta0, eps=eps_bound
            )
        except NumericalFailure:
            continue
        if best is None or cand.delta_norm < best.delta_norm:
            best = cand
    if best is None:
        raise NumericalFailure("rank-deficient realization failed on all scales")
    return best


def realize(pair, z_tilde, tol=DEFAULT_TOL):
    """Realize ``z_tilde`` as a product of perturbed factors.

    Refuses with ``NotOpen`` when the point is not locally open,
    ``RankInfeasible`` when the target leaves the image of the map, and
    ``DeltaTooLarge`` when the target distance exceeds the certified
    radius ``delta0`` (reported on the error).
    """
    z_tilde = as_matrix(z_tilde, "z_tilde")
    if z_tilde.shape != (pair.m, pair.n):
        raise RankInfeasible(
            f"target shape {z_tilde.shape} does not match the product "
            f"shape {(pair.m, pair.n)}"
        )
    rank_cap = min(pair.m, pair.n, pair.k)
    r_target = rank(z_tilde, tol)
    if r_target > rank_cap:
        raise RankInfeasible(f"target rank {r_target} exceeds the image bound {rank_cap}")
    report, product_spectrum = _openness_and_product_spectrum(pair, tol)
    if not report.open:
        raise NotOpen("the product map is not locally open at this pair")
    input_delta = float(np.linalg.norm(z_tilde - pair.product))
    if input_delta == 0.0:
        return RealizationWitness(
            delta_w1=np.zeros_like(pair.w1),
            delta_w2=np.zeros_like(pair.w2),
            target_residual=0.0,
            delta_norm=0.0,
            input_delta=0.0,
            delta0=None,
        )
    if report.regime == REGIME_DEFICIENT:
        return _realize_rank_deficient(pair, z_tilde, input_delta, product_spectrum, tol)
    return _realize_full_rank(pair, z_tilde, input_delta, report, tol)


def measure_delta_ratio(pair, deltas, trials, tol=DEFAULT_TOL, seed=None):
    """Empirical proportionality constant between target distance and
    factor-perturbation size; one row per requested distance."""
    seed = tol.rng_seed if seed is None else seed
    z = pair.product
    rank_cap = min(pair.m, pair.n, pair.k)
    table = []
    for d_idx, delta in enumerate(deltas):
        row = {
            "delta": float(delta),
            "trials": int(trials),
            "successes": 0,
            "max_ratio": None,
            "max_residual": 0.0,
            "errors": [],
        }
        for t in range(trials):
            rng = np.random.default_rng([seed, d_idx, t])
            target = sample_feasible_target(z, rank_cap, delta, rng)
            try:
                wit = realize(pair, target, tol)
            except Exception as exc:  # noqa: BLE001 - per-trial record
                row["errors"].append(type(exc).__name__)
                continue
            row["successes"] += 1
            if wit.input_delta > 0:
                ratio = wit.delta_norm / wit.input_delta
                if row["max_ratio"] is None or ratio > row["max_ratio"]:
                    row["max_ratio"] = float(ratio)
            row["max_residual"] = max(row["max_residual"], wit.target_residual)
        table.append(row)
    return table
