"""Openness machinery for the symmetric product map ``W -> W @ W.T``.

The map is open in its range (PSD matrices of rank at most ``k``)
unconditionally, so a constructive realization exists at every point:

* ``solve_p`` generates the upper-triangular solution of the quadratic
  equation ``P + P.T + P @ inv(Sigma) @ P.T = R`` by a backward
  column-by-column sweep; each scalar equation is satisfied exactly on
  assignment and never revisited, and the solution obeys
  ``max|P| <= 3 * max|R|`` whenever the radicand/pivot floors hold.
* ``sym_realize`` realizes a nearby PSD target of admissible rank as
  ``(W + A)(W + A).T`` through the block decomposition of the rotated
  target: the top block via ``solve_p``, the off-diagonal block by a
  pseudo-inverse transport, and the trailing block by factoring the
  Schur complement inside the null space of the completed top factor.
* ``certify_bm_transfer`` packages the resulting guarantee: any local
  minimum of a loss in the factor variable maps to a local minimum of
  the same loss on the rank-constrained PSD cone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DeltaTooLarge,
    InputError,
    NotPSD,
    NumericalFailure,
    PivotTooSmall,
    RadicandNegative,
    RankInfeasible,
)
from .matrixio import as_matrix
from .numcore import DEFAULT_TOL, _sv_rank, lm_fit, null_space, rank

# safety floors from the diagonal recursion: radicands must stay above
# 1/4 and pivots above 1/2 for the sweep to be well defined
_RADICAND_FLOOR = 0.25
_PIVOT_FLOOR = 0.5


@dataclass
class SymSolveResult:
    p: np.ndarray
    residual: float
    p_inf_norm: float


@dataclass
class SymRealizationWitness:
    a_eps: np.ndarray
    residual: float
    a_norm: float
    input_delta: float
    bound_coefficient: float | None = None


def solve_p_delta0(sigma_diag):
    """Conservative radius on ``max|R|`` below which the sweep provably
    keeps every radicand above 1/4 and every pivot above 1/2."""
    sigma = np.asarray(sigma_diag, dtype=float).ravel()
    return float(sigma.min()) / (8.0 * len(sigma))


def solve_p(sigma_diag, r_mat, tol=DEFAULT_TOL):
    """Upper-triangular solution of ``P + P.T + P @ inv(Sigma) @ P.T = R``.

    ``sigma_diag`` holds the positive diagonal of Sigma.  The sweep runs
    columns last to first, setting the diagonal entry from the scalar
    quadratic (absolute-value branch, so diagonal entries are
    non-negative) and then the rows above it by forward substitution.
    """
    sigma = np.asarray(sigma_diag, dtype=float).ravel()
    if sigma.size == 0:
        raise InputError("sigma must be non-empty")
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise InputError("sigma entries must be positive and finite")
    r_mat = as_matrix(r_mat, "r")
    n = sigma.size
    if r_mat.shape != (n, n):
        raise InputError(f"r must be {n}x{n} to match sigma")
    sym_gap = float(np.abs(r_mat - r_mat.T).max()) if n else 0.0
    if sym_gap > tol.residual_abs:
        raise InputError(f"r is not symmetric: max asymmetry {sym_gap:.3e}")

    s = 1.0 / sigma
    p = np.zeros((n, n))
    for j in range(n - 1, -1, -1):
        tail = np.arange(j + 1, n)
        radicand = s[j] * r_mat[j, j] + 1.0 - s[j] * np.dot(
            s[tail], p[j, tail] ** 2
        )
        if radicand < _RADICAND_FLOOR:
            raise RadicandNegative(
                f"diagonal radicand {radicand:.3e} at index {j} fell below "
                f"{_RADICAND_FLOOR}; the perturbation is too large for this "
                "spectrum",
                index=j,
                delta0=solve_p_delta0(sigma),
            )
        # positive square-root branch: the scalar quadratic demands the
        # signed value, and the pivot below equals sqrt(radicand) > 0
        p[j, j] = (np.sqrt(radicand) - 1.0) / s[j]
        pivot = s[j] * p[j, j] + 1.0
        if pivot < _PIVOT_FLOOR:
            raise PivotTooSmall(
                f"pivot {pivot:.3e} at index {j} fell below {_PIVOT_FLOOR}",
                index=j,
            )
        if j > 0:
            correction = p[:j, j + 1 :] @ (s[j + 1 :] * p[j, j + 1 :])
            p[:j, j] = (r_mat[:j, j] - correction) / pivot

    residual_mat = p + p.T + (p * s) @ p.T
    residual = float(np.abs(residual_mat - r_mat).max())
    return SymSolveResult(
        p=p,
        residual=residual,
        p_inf_norm=float(np.abs(p).max()) if n else 0.0,
    )


def _eigh_descending(mat):
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1], vecs[:, ::-1]


def _gram_eigh(w, tol):
    """Eigenpairs of ``z = w @ w.T``, largest first, and its rank, read
    off the eigenvalue magnitudes: they are its singular values."""
    z = w @ w.T
    if not np.isfinite(z).all():
        raise NumericalFailure("the Gram matrix w @ w.T overflows")
    lam, u = _eigh_descending(z)
    return lam, u, _sv_rank(np.sort(np.abs(lam))[::-1], z.shape, tol)


def bound_coefficient(rank_value, sigma_min):
    """Proportionality constant between target distance and factor
    perturbation at points with positive least curvature."""
    if sigma_min is None or sigma_min <= 0:
        return None
    root = np.sqrt(sigma_min)
    return float((3.0 * rank_value**2.5 + np.sqrt(2.0 * rank_value) + root) / root)


def sym_realize(w, sigma_tilde, tol=DEFAULT_TOL):
    """Find ``a_eps`` with ``(w + a_eps)(w + a_eps).T == sigma_tilde``.

    ``sigma_tilde`` must be symmetric PSD with rank at most the column
    count of ``w`` and within the certified distance of ``w @ w.T``.
    """
    w = as_matrix(w, "w")
    sigma_tilde = as_matrix(sigma_tilde, "sigma_tilde")
    n, k = w.shape
    if sigma_tilde.shape != (n, n):
        raise InputError(f"target must be {n}x{n}")
    sym_gap = float(np.abs(sigma_tilde - sigma_tilde.T).max())
    if sym_gap > tol.residual_abs:
        raise InputError(f"target is not symmetric: max asymmetry {sym_gap:.3e}")
    t_vals = np.linalg.eigvalsh(sigma_tilde)
    scale = max(1.0, float(np.abs(t_vals).max()))
    if t_vals.min() < -tol.residual_abs * scale:
        raise NotPSD(f"target has eigenvalue {t_vals.min():.3e} below tolerance")
    r_target = rank(sigma_tilde, tol)
    if r_target > k:
        raise RankInfeasible(f"target rank {r_target} exceeds the factor width {k}")

    lam, u, r = _gram_eigh(w, tol)
    wb = u.T @ w
    target_rot = u.T @ sigma_tilde @ u
    sigma = np.concatenate([lam[:r], np.zeros(n - r)])
    r_delta = target_rot - np.diag(sigma)
    input_delta = float(np.linalg.norm(r_delta))

    sigma_min = float(lam[r - 1]) if r > 0 else None
    coeff = bound_coefficient(r, sigma_min)
    if sigma_min is not None and input_delta > sigma_min / 2.0:
        raise DeltaTooLarge(
            f"target distance {input_delta:.3e} exceeds the certified "
            f"radius {sigma_min / 2.0:.3e}",
            delta0=sigma_min / 2.0,
        )

    if r > 0:
        sigma1 = sigma[:r]
        r1 = r_delta[:r, :r]
        r2 = r_delta[:r, r:]
        r3 = r_delta[r:, r:]
        w1b = wb[:r]
        p_res = solve_p(sigma1, 0.5 * (r1 + r1.T), tol)
        a1 = (p_res.p / sigma1) @ w1b
        top = w1b + a1
        try:
            gram_inv = np.linalg.inv(sigma1[:, None] * np.eye(r) + r1)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"completed top block is singular: {exc}") from exc
        a2_t = top.T @ gram_inv @ r2
    else:
        r3 = r_delta
        a1 = np.zeros((0, k))
        top = np.zeros((0, k))
        a2_t = np.zeros((k, n))
        gram_inv = None
        r2 = np.zeros((0, n))

    # trailing block: factor the Schur complement inside the null space
    # of the completed top factor
    if r > 0:
        schur = r3 - r2.T @ gram_inv @ r2
        q_basis = null_space(top, tol).columns
    else:
        schur = r3
        q_basis = np.eye(k)
    free = q_basis.shape[1]
    schur = 0.5 * (schur + schur.T)
    s_vals, s_vecs = _eigh_descending(schur)
    s_scale = max(1.0, float(np.abs(s_vals).max()) if s_vals.size else 0.0)
    if s_vals.size and s_vals.min() < -tol.residual_abs * s_scale:
        raise NotPSD(
            f"Schur complement has eigenvalue {s_vals.min():.3e} below tolerance"
        )
    positive = np.clip(s_vals, 0.0, None)
    # eigenvalues small enough to leave the final residual inside
    # tolerance are rounding debris of the block arithmetic, not rank
    drop = 0.05 * tol.residual_abs * scale
    needed = int(np.sum(positive > drop))
    if needed > free:
        raise RankInfeasible(
            f"Schur complement rank {needed} exceeds the free directions {free}"
        )
    take = min(free, positive.size)
    n_fact = np.zeros((free, n - r))
    if take:
        n_fact[:take] = np.sqrt(positive[:take])[:, None] * s_vecs[:, :take].T
    a2_t = a2_t + q_basis @ n_fact

    a_eps = u @ np.vstack([a1, a2_t.T])
    residual = float(np.linalg.norm((w + a_eps) @ (w + a_eps).T - sigma_tilde))
    if residual > tol.residual_abs * scale:
        raise NumericalFailure(
            f"symmetric realization missed the target: residual {residual:.3e}"
        )
    return SymRealizationWitness(
        a_eps=a_eps,
        residual=residual,
        a_norm=float(np.linalg.norm(a_eps)),
        input_delta=input_delta,
        bound_coefficient=coeff,
    )


@dataclass
class TransferCertificate:
    open: bool
    rank: int
    sigma_min: float | None
    bound_coefficient: float | None
    zero_rank_degraded: bool
    statement: str


def certify_bm_transfer(w, tol=DEFAULT_TOL):
    """Certificate that the symmetric product map is open at ``w`` in its
    range, so local minima of ``loss(W @ W.T)`` map to local minima of the
    rank-constrained PSD problem; includes the realization constants."""
    w = as_matrix(w, "w")
    lam, _, r = _gram_eigh(w, tol)
    sigma_min = float(lam[r - 1]) if r > 0 else None
    coeff = bound_coefficient(r, sigma_min)
    return TransferCertificate(
        open=True,
        rank=r,
        sigma_min=sigma_min,
        bound_coefficient=coeff,
        zero_rank_degraded=r == 0,
        statement=(
            "the symmetric factorization map is open in its range; every "
            "local minimum of the factored problem maps to a local minimum "
            "of the rank-constrained PSD problem"
            + (
                "; at zero rank the perturbation bound degrades to the "
                "square-root scale"
                if r == 0
                else ""
            )
        ),
    )


def gauss_newton_sym_recover(w, targets, delta, tol=DEFAULT_TOL, seed=0):
    """Independent oracle for symmetric-target feasibility: batched
    Levenberg-Marquardt on ``(w + A)(w + A).T = target`` from ``A = 0``,
    with one jittered retry of the trials that fail."""
    targets = np.asarray(targets, dtype=float)
    t_count = targets.shape[0]
    n, k = w.shape
    eye_n = np.eye(n)
    cap = 1e3 * delta
    scale = np.maximum(
        1.0, np.linalg.norm(targets.reshape(t_count, -1), axis=1)
    )

    def product(a):
        wa = w[None] + a
        return wa @ np.transpose(wa, (0, 2, 1))

    def jacobian(a):
        # d res_{ij} / d a_{pq} = delta_ip * wa_{jq} + delta_jp * wa_{iq}
        j1 = np.einsum("ip,tjq->tijpq", eye_n, w[None] + a)
        return (j1 + np.transpose(j1, (0, 2, 1, 3, 4))).reshape(
            a.shape[0], n * n, n * k
        )

    def fit(tgts, init_scale, fit_seed):
        (a,), rn = lm_fit(product, jacobian, (w.shape,), tgts, tol, 100,
                          init_scale, fit_seed)
        return a, rn, np.linalg.norm(a.reshape(len(a), -1), axis=1)

    a, rn, norms = fit(targets, 0.0, seed)
    success = (rn <= tol.residual_abs * scale) & (norms <= cap)
    retry = ~success
    if np.any(retry) and delta > 0.0:
        a2, rn2, norm2 = fit(targets[retry], 0.5 * np.sqrt(delta), seed + 1)
        ok2 = (rn2 <= tol.residual_abs * scale[retry]) & (norm2 <= cap)
        idx = np.flatnonzero(retry)[ok2]
        success[idx] = True
        a[idx] = a2[ok2]
        norms[idx], rn[idx] = norm2[ok2], rn2[ok2]
    return {"success": success, "a": a, "residual": rn, "a_norm": norms}
