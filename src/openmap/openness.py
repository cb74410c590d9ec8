"""Local openness of the two-factor product map ``(W1, W2) -> W1 @ W2``.

Two regimes, split by comparing the inner dimension ``k`` with
``min(m, n)``:

* full-rank regime (``k >= min(m, n)``): the image is the whole matrix
  space and openness reduces to a pair of rank-arithmetic clauses;
* rank-deficient regime (``k < min(m, n)``): the image is the variety of
  matrices with rank at most ``k``; openness holds iff the factor ranks
  agree and the null space of the left factor meets the column space of
  the right factor trivially.

``probe_openness`` is the brute-force cross-check: it samples feasible
targets near the product and attempts factor recovery with a damped
Gauss-Newton solver, declaring the point empirically open when every
sampled target is reachable with small factor perturbations.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GenericScaleFailed, IllConditioned, InputError, NotOpen
from .matrixio import as_matrix
from .numcore import (
    DEFAULT_TOL,
    column_space,
    intersection_dim,
    null_space,
    rank,
    rank_is_ambiguous,
    singular_values,
    truncated_svd,
)

REGIME_FULL = "full-rank"
REGIME_DEFICIENT = "rank-deficient"

# factor-norm slack over the sampled distance: separates witnesses that
# scale like sqrt(delta) (legitimate at rank-boundary points) from the
# order-one perturbations a non-open point demands
PROBE_NORM_SLACK = 1e3


@dataclass
class FactorPair:
    """A point of the product map; ``w1`` is m-by-k, ``w2`` is k-by-n."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        self.w1 = as_matrix(self.w1, "w1")
        self.w2 = as_matrix(self.w2, "w2")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise InputError(
                f"inner dimensions differ: w1 is {self.w1.shape}, w2 is {self.w2.shape}"
            )

    @property
    def m(self):
        return self.w1.shape[0]

    @property
    def k(self):
        return self.w1.shape[1]

    @property
    def n(self):
        return self.w2.shape[1]

    @property
    def product(self):
        return self.w1 @ self.w2

    def transposed(self):
        return FactorPair(self.w2.T.copy(), self.w1.T.copy())


@dataclass
class OpennessReport:
    regime: str
    open: bool
    rank_w1: int
    rank_w2: int
    rank_product: int
    intersection_dim: int
    condition_flags: dict


def check_openness(pair, tol=DEFAULT_TOL):
    """Decide local openness of the product map at ``pair`` in its range.

    Raises ``IllConditioned`` when a rank decision sits inside the
    ambiguity band or the two intersection-dimension computations
    disagree; near the rank threshold no verdict is trustworthy.
    """
    w1, w2 = pair.w1, pair.w2
    m, k, n = pair.m, pair.k, pair.n
    product = pair.product
    for name, mat in (("w1", w1), ("w2", w2), ("product", product)):
        if rank_is_ambiguous(mat, tol):
            raise IllConditioned(
                f"{name} has a singular value too close to the rank cutoff"
            )
    r1, r2, rp = rank(w1, tol), rank(w2, tol), rank(product, tol)

    # dim(N(w1) & C(w2)) via the rank identity, cross-checked against
    # principal angles on explicit bases
    d_nc = r2 - rp
    d_angles = intersection_dim(null_space(w1, tol), column_space(w2, tol), tol)
    if d_nc != d_angles:
        raise IllConditioned(
            f"intersection dim mismatch: rank identity {d_nc}, angles {d_angles}"
        )
    d_cn = r1 - rp
    d_cn_angles = intersection_dim(
        null_space(w2.T, tol), column_space(w1.T, tol), tol
    )
    if d_cn != d_cn_angles:
        raise IllConditioned(
            f"transposed intersection dim mismatch: {d_cn} vs {d_cn_angles}"
        )

    if k >= min(m, n):
        # image is the whole space; openness iff some one-sided completion
        # restores a fully invertible-from-one-side factor
        w1_side = d_nc <= k - m
        w2_side = n - (r2 - d_nc) <= k - r1
        flags = {
            "w1_completion_exists": bool(w1_side),
            "w2_completion_exists": bool(w2_side),
        }
        is_open = w1_side or w2_side
        regime = REGIME_FULL
    else:
        rank_equal = r1 == r2
        flags = {
            "rank_equal": bool(rank_equal),
            "condition_i": bool(rp == r2),
            "condition_ii": bool(rp == r1),
            "condition_iii": bool(d_nc == 0),
            "condition_iv": bool(d_cn == 0),
        }
        is_open = rank_equal and d_nc == 0
        regime = REGIME_DEFICIENT

    return OpennessReport(
        regime=regime,
        open=bool(is_open),
        rank_w1=r1,
        rank_w2=r2,
        rank_product=rp,
        intersection_dim=int(d_nc),
        condition_flags=flags,
    )


def _positive_sv_floor(mat, tol):
    s = singular_values(mat)
    if s.size == 0 or s[0] == 0.0:
        return None
    pos = s[s > tol.rank_cutoff(mat.shape, s[0])]
    return float(pos.min()) if pos.size else None


def null_completion(w1, w2, tol=DEFAULT_TOL, seed=0, scale=None):
    """Build ``wt2`` with columns in ``N(w1)`` such that ``w2 + wt2`` is
    full rank; the generic construction, verified and retried with seeded
    rotations when a placement collides."""
    w1 = as_matrix(w1, "w1")
    w2 = as_matrix(w2, "w2")
    k, n = w2.shape
    target_rank = min(k, n)
    if rank(w2, tol) == target_rank:
        return np.zeros_like(w2)
    basis = null_space(w1, tol)
    if basis.dim == 0:
        raise GenericScaleFailed("left factor has a trivial null space")
    d = basis.dim
    if scale is None:
        floor = _positive_sv_floor(w2, tol)
        scale = 0.5 * floor if floor is not None else 1.0
    order = np.argsort(np.linalg.norm(w2, axis=0))  # prefer empty columns
    rng = np.random.default_rng(seed)
    for attempt in range(8):
        cols = basis.columns
        positions = order[: min(d, n)]
        if attempt > 0:
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            cols = cols @ q
            positions = rng.choice(n, size=min(d, n), replace=False)
        wt2 = np.zeros_like(w2)
        wt2[:, positions] = scale * cols[:, : len(positions)]
        if rank(w2 + wt2, tol) == target_rank:
            return wt2
    raise GenericScaleFailed(
        "could not restore full rank from the null-space completion"
    )


def construct_witnesses(pair, tol=DEFAULT_TOL, seed=0):
    """Perturbations certifying openness in the rank-deficient regime:
    ``wt1 @ w2 = 0`` with ``w1 + wt1`` full column rank, and
    ``w1 @ wt2 = 0`` with ``w2 + wt2`` full row rank."""
    report = check_openness(pair, tol)
    if report.regime != REGIME_DEFICIENT or not report.open:
        raise NotOpen(
            "witnesses exist only at open points of the rank-deficient regime"
        )
    if report.rank_w1 == pair.k:
        wt1 = np.zeros_like(pair.w1)
        wt2 = np.zeros_like(pair.w2)
    else:
        wt2 = null_completion(pair.w1, pair.w2, tol, seed=seed)
        wt1 = null_completion(pair.w2.T, pair.w1.T, tol, seed=seed + 1).T
    _verify_witnesses(pair, wt1, wt2, tol)
    return wt1, wt2


def _verify_witnesses(pair, wt1, wt2, tol):
    scale = max(1.0, float(np.abs(pair.w1).max()), float(np.abs(pair.w2).max()))
    if np.abs(wt1 @ pair.w2).max() > tol.residual_abs * scale:
        raise GenericScaleFailed("witness wt1 does not annihilate w2")
    if np.abs(pair.w1 @ wt2).max() > tol.residual_abs * scale:
        raise GenericScaleFailed("witness wt2 is not annihilated by w1")
    if rank(pair.w1 + wt1, tol) != pair.k:
        raise GenericScaleFailed("w1 + wt1 is not full column rank")
    if rank(pair.w2 + wt2, tol) != pair.k:
        raise GenericScaleFailed("w2 + wt2 is not full row rank")


def sample_feasible_target(z, rank_cap, delta, rng, iters=80):
    """A matrix of rank at most ``rank_cap`` at Frobenius distance
    approximately ``delta`` from ``z`` (exactly feasible, distance within
    rounding of ``delta``)."""
    z = as_matrix(z, "z")
    if delta == 0.0:
        return z.copy()
    for _ in range(8):
        g = rng.standard_normal(z.shape)
        norm = np.linalg.norm(g)
        if norm > 0:
            break
    r = g * (delta / np.linalg.norm(g))
    zt = truncated_svd(z + r, rank_cap)
    for _ in range(iters):
        r = zt - z
        nr = np.linalg.norm(r)
        if nr <= delta * 1e-9:
            # truncation swallowed the move; bias along a feasible direction
            r = truncated_svd(g, max(1, rank_cap)) * 1.0
            nr = np.linalg.norm(r)
        if abs(nr - delta) <= 1e-12 * delta:
            break
        r = r * (delta / nr)
        zt = truncated_svd(z + r, rank_cap)
    return zt


def _lm_factor_fit(w1, w2, targets, tol, max_iter=80, init_scale=0.0, seed=0):
    """Batched Levenberg-Marquardt on ``(w1+A)(w2+B) = target`` for a stack
    of targets, started from ``A = B = 0`` plus optional seeded jitter.

    Returns (A, B, residual_norms) with one slice per target.
    """
    m, k = w1.shape
    n = w2.shape[1]
    t_count = targets.shape[0]
    rng = np.random.default_rng(seed)
    if init_scale > 0.0:
        a = rng.normal(scale=init_scale, size=(t_count, m, k))
        b = rng.normal(scale=init_scale, size=(t_count, k, n))
    else:
        a = np.zeros((t_count, m, k))
        b = np.zeros((t_count, k, n))
    eye_m, eye_n = np.eye(m), np.eye(n)
    eye_p = np.eye(m * k + k * n)
    lam = np.full(t_count, 1e-4)

    def residual(a_, b_):
        return (w1[None] + a_) @ (w2[None] + b_) - targets

    res = residual(a, b)
    res_norm = np.linalg.norm(res.reshape(t_count, -1), axis=1)
    goal = 0.05 * tol.residual_abs
    for _ in range(max_iter):
        active = (res_norm > goal) & (lam < 1e14)
        if not np.any(active):
            break
        w2b = w2[None] + b
        w1a = w1[None] + a
        ja = np.einsum("ip,tqj->tijpq", eye_m, w2b).reshape(t_count, m * n, m * k)
        jb = np.einsum("tip,jq->tijpq", w1a, eye_n).reshape(t_count, m * n, k * n)
        jac = np.concatenate([ja, jb], axis=2)
        rflat = res.reshape(t_count, -1)
        grad = np.einsum("tri,tr->ti", jac, rflat)
        hess = np.einsum("tri,trj->tij", jac, jac)
        step = np.linalg.solve(
            hess + lam[:, None, None] * eye_p[None], -grad[..., None]
        )[..., 0]
        da = step[:, : m * k].reshape(t_count, m, k)
        db = step[:, m * k :].reshape(t_count, k, n)
        a_try = a + da
        b_try = b + db
        res_try = residual(a_try, b_try)
        norm_try = np.linalg.norm(res_try.reshape(t_count, -1), axis=1)
        improved = active & (norm_try < res_norm)
        a[improved] = a_try[improved]
        b[improved] = b_try[improved]
        res[improved] = res_try[improved]
        res_norm[improved] = norm_try[improved]
        lam[improved] = np.maximum(lam[improved] * 0.3, 1e-14)
        rejected = active & ~improved
        lam[rejected] *= 10.0
    return a, b, res_norm


def gauss_newton_recover(w1, w2, targets, delta, tol, seed=0):
    """Independent factor-recovery oracle for a stack of targets.

    Success means residual within ``residual_abs`` and combined factor
    perturbation within ``PROBE_NORM_SLACK * delta``.  Trials that stall
    from a degenerate start are retried once with seeded jitter at the
    square-root-of-delta scale.
    """
    targets = np.asarray(targets, dtype=float)
    t_count = targets.shape[0]
    cap = PROBE_NORM_SLACK * delta
    a, b, rn = _lm_factor_fit(w1, w2, targets, tol, seed=seed)
    pair_norm = np.sqrt(
        np.linalg.norm(a.reshape(t_count, -1), axis=1) ** 2
        + np.linalg.norm(b.reshape(t_count, -1), axis=1) ** 2
    )
    success = (rn <= tol.residual_abs) & (pair_norm <= cap)
    # a degenerate start stalls the solver at rank-boundary points; retry
    # the failures from seeded jitter at a few square-root-of-delta scales
    if delta > 0.0:
        for round_idx, factor in enumerate((0.5, 1.5, 0.25, 0.75)):
            retry = ~success
            if not np.any(retry):
                break
            a2, b2, rn2 = _lm_factor_fit(
                w1, w2, targets[retry], tol, max_iter=120,
                init_scale=factor * np.sqrt(delta), seed=seed + 1 + round_idx,
            )
            norm2 = np.sqrt(
                np.linalg.norm(a2.reshape(a2.shape[0], -1), axis=1) ** 2
                + np.linalg.norm(b2.reshape(b2.shape[0], -1), axis=1) ** 2
            )
            ok2 = (rn2 <= tol.residual_abs) & (norm2 <= cap)
            idx = np.flatnonzero(retry)[ok2]
            success[idx] = True
            a[idx], b[idx] = a2[ok2], b2[ok2]
            pair_norm[idx], rn[idx] = norm2[ok2], rn2[ok2]
    return {
        "success": success,
        "factor_norm": pair_norm,
        "residual": rn,
        "delta_w1": a,
        "delta_w2": b,
    }


def probe_openness(pair, delta, trials, tol=DEFAULT_TOL, seed=None):
    """Empirical openness check: sample feasible targets at distance
    ``delta`` and report the fraction recoverable with small factors."""
    if delta < 0:
        raise InputError("delta must be non-negative")
    if trials <= 0:
        raise InputError("trials must be a positive count")
    seed = tol.rng_seed if seed is None else seed
    z = pair.product
    rank_cap = min(pair.m, pair.n, pair.k)
    targets = np.empty((trials, pair.m, pair.n))
    input_deltas = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        targets[t] = sample_feasible_target(z, rank_cap, delta, rng)
        input_deltas[t] = np.linalg.norm(targets[t] - z)
    fit = gauss_newton_recover(pair.w1, pair.w2, targets, delta, tol, seed=seed)
    success = fit["success"]
    norms = fit["factor_norm"][success]
    return {
        "delta": float(delta),
        "trials": int(trials),
        "successes": int(success.sum()),
        "success_fraction": float(success.mean()),
        "max_factor_norm": float(norms.max()) if norms.size else 0.0,
        "max_input_delta": float(input_deltas.max()) if trials else 0.0,
        "per_trial": [
            {
                "trial": t,
                "success": bool(success[t]),
                "factor_norm": float(fit["factor_norm"][t]),
                "residual": float(fit["residual"][t]),
                "input_delta": float(input_deltas[t]),
            }
            for t in range(trials)
        ],
    }
