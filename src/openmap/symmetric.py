"""Openness machinery for the symmetric product map ``W -> W @ W.T``.

The map is open in its range (PSD matrices of rank at most ``k``)
unconditionally, so a constructive realization exists at every point:

* ``solve_p`` generates the upper-triangular solution of the quadratic
  equation ``P + P.T + P @ inv(Sigma) @ P.T = R`` by a backward
  column-by-column sweep; each scalar equation is satisfied exactly on
  assignment and never revisited, and the solution obeys
  ``max|P| <= 3 * max|R|`` whenever every radicand stays above its
  floor of 1/4.  That one floor also bounds every pivot: the pivot is
  the radicand's square root, so it stays above 1/2.
* ``sym_realize`` realizes a nearby PSD target of admissible rank as
  ``(W + A)(W + A).T`` through the block decomposition of the rotated
  target: the top block via ``solve_p``, the off-diagonal block by a
  pseudo-inverse transport, and the trailing block by factoring the
  Schur complement inside the null space of the completed top factor.
* ``certify_bm_transfer`` packages the resulting guarantee: any local
  minimum of a loss in the factor variable maps to a local minimum of
  the same loss on the rank-constrained PSD cone.

Openness certifies a radius, not a perturbation bound: ``sigma_min / 2``
(``certified_radius``) is the only constant either function certifies.
The witness is measured: it scales with the target distance when ``w``
has full column rank; otherwise a Schur-factor term of the distance's
square root can dominate, at any rank.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotPSD, NumericalFailure, RadicandNegative, RankInfeasible
from .matrixio import as_matrix
from .numcore import DEFAULT_TOL, _sv_rank, certified_radius, lm_recover, null_space

# safety floor of the diagonal recursion: radicands must stay above 1/4
_RADICAND_FLOOR = 0.25


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


def solve_p_delta0(sigma_diag):
    """Conservative radius on ``max|R|`` below which the sweep provably
    keeps every radicand above 1/4 and every pivot above 1/2."""
    sigma = np.asarray(sigma_diag, dtype=float).ravel()
    return float(sigma.min()) / (8.0 * len(sigma))


def _check_symmetric(mat, name, tol):
    gap = float(np.abs(mat - mat.T).max())
    if gap > tol.residual_abs:
        raise InputError(f"{name} is not symmetric: max asymmetry {gap:.3e}")


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
    _check_symmetric(r_mat, "r", tol)

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
                delta0=solve_p_delta0(sigma),
            )
        # positive square-root branch: the scalar quadratic demands the
        # signed value, and the pivot below equals sqrt(radicand) >= 1/2,
        # up to one rounding
        p[j, j] = (np.sqrt(radicand) - 1.0) / s[j]
        pivot = s[j] * p[j, j] + 1.0
        if j > 0:
            correction = p[:j, j + 1 :] @ (s[j + 1 :] * p[j, j + 1 :])
            p[:j, j] = (r_mat[:j, j] - correction) / pivot

    residual_mat = p + p.T + (p * s) @ p.T
    residual = float(np.abs(residual_mat - r_mat).max())
    return SymSolveResult(
        p=p,
        residual=residual,
        p_inf_norm=float(np.abs(p).max()),
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


def sym_realize(w, sigma_tilde, tol=DEFAULT_TOL):
    """Find ``a_eps`` with ``(w + a_eps)(w + a_eps).T == sigma_tilde``.

    ``sigma_tilde`` must be symmetric PSD with rank at most the column
    count of ``w`` and within the certified radius of ``w @ w.T``.
    """
    w = as_matrix(w, "w")
    sigma_tilde = as_matrix(sigma_tilde, "sigma_tilde")
    n, k = w.shape
    if sigma_tilde.shape != (n, n):
        raise InputError(f"target must be {n}x{n}")
    _check_symmetric(sigma_tilde, "target", tol)
    t_vals = np.linalg.eigvalsh(sigma_tilde)
    scale = max(1.0, float(np.abs(t_vals).max()))
    if t_vals.min() < -tol.residual_abs * scale:
        raise NotPSD(f"target has eigenvalue {t_vals.min():.3e} below tolerance")
    r_target = _sv_rank(np.sort(np.abs(t_vals))[::-1], sigma_tilde.shape, tol)
    if r_target > k:
        raise RankInfeasible(f"target rank {r_target} exceeds the factor width {k}")

    lam, u, r = _gram_eigh(w, tol)
    wb = u.T @ w
    target_rot = u.T @ sigma_tilde @ u
    sigma = np.concatenate([lam[:r], np.zeros(n - r)])
    r_delta = target_rot - np.diag(sigma)
    input_delta = float(np.linalg.norm(r_delta))

    certified_radius(lam, r, input_delta)

    # at r == 0 every top block is empty: the empty products vanish and
    # N(top) is all of R^k, so one path serves both cases
    sigma1, r1, r2, w1b = sigma[:r], r_delta[:r, :r], r_delta[:r, r:], wb[:r]
    p = solve_p(sigma1, 0.5 * (r1 + r1.T), tol).p if r else np.zeros((0, 0))
    a1 = (p / sigma1) @ w1b
    top = w1b + a1
    try:
        gram_inv = np.linalg.inv(sigma1[:, None] * np.eye(r) + r1)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"completed top block is singular: {exc}") from exc

    # trailing block: factor the Schur complement inside the null space
    # of the completed top factor
    schur = r_delta[r:, r:] - r2.T @ gram_inv @ r2
    q_basis = null_space(top, tol)
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
    n_fact[:take] = np.sqrt(positive[:take])[:, None] * s_vecs[:, :take].T
    a2_t = top.T @ gram_inv @ r2 + q_basis @ n_fact

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
    )


@dataclass
class TransferCertificate:
    open: bool
    rank: int
    sigma_min: float | None
    statement: str


def certify_bm_transfer(w, tol=DEFAULT_TOL):
    """Certificate that the symmetric product map is open at ``w`` in its
    range, so local minima of ``loss(W @ W.T)`` map to local minima of the
    rank-constrained PSD problem; ``sigma_min / 2`` is the only certified
    constant (``sigma_min`` is ``None`` at rank 0)."""
    w = as_matrix(w, "w")
    lam, _, r = _gram_eigh(w, tol)
    return TransferCertificate(
        open=True,
        rank=r,
        sigma_min=float(lam[r - 1]) if r > 0 else None,
        statement=(
            "the symmetric factorization map is open in its range; every "
            "local minimum of the factored problem maps to a local minimum "
            "of the rank-constrained PSD problem"
        ),
    )


def gauss_newton_sym_recover(w, targets, delta, tol=DEFAULT_TOL, seed=0):
    """Independent oracle for symmetric-target feasibility: batched
    Levenberg-Marquardt on ``(w + A)(w + A).T = target`` from ``A = 0``,
    with one jittered retry of the trials that fail (``lm_recover``),
    trial ``t`` starting from row ``t`` of one draw from
    ``default_rng(seed + 1)``.  Success means residual within
    ``residual_abs · max(1, ‖target‖)`` and ``‖A‖ ≤ 1e3 δ``, with no
    accepted iterate beyond ``2e3 δ`` (the fit stops there)."""
    targets = np.asarray(targets, dtype=float)
    n, k = w.shape
    scale = np.maximum(1.0, np.linalg.norm(targets.reshape(len(targets), -1), axis=1))

    def product(a):
        wa = w[None] + a
        return wa @ np.transpose(wa, (0, 2, 1))

    def jacobian(a):
        # d(wa wa.T)_ij / d a_pq = delta_ip wa_jq + delta_jp wa_iq
        wa = w + a
        jac = np.zeros((len(wa), n, n, n, k))
        ar = np.arange(n)
        jac[:, ar, :, ar] = wa
        jac[:, :, ar, ar] += wa[:, :, None]
        return jac.reshape(-1, n * n, n * k)

    rounds = (100, 100, [0.5 * np.sqrt(delta)] if delta > 0.0 else [])
    (a,), rn, norms, success = lm_recover(
        product, jacobian, (w.shape,), targets, tol, rounds, seed,
        tol.residual_abs * scale, 1e3 * delta,
    )
    return {"success": success, "a": a, "residual": rn, "a_norm": norms}
