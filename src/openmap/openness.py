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
    SubspaceBasis,
    _sv_rank,
    intersection_dim,
    lm_fit,
    null_space,
    rank,
    singular_values,
    spectrum,
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
    return _openness_and_product_spectrum(pair, tol)[0]


def _openness_and_product_spectrum(pair, tol):
    """``check_openness``'s report with the product ``Spectrum`` it read
    the product rank from, for callers that need the product's SVD too."""
    m, k, n = pair.m, pair.k, pair.n
    sp1, sp2, spp = (spectrum(mat, tol) for mat in (pair.w1, pair.w2, pair.product))
    for name, sp in (("w1", sp1), ("w2", sp2), ("product", spp)):
        if sp.ambiguous:
            raise IllConditioned(
                f"{name} has a singular value too close to the rank cutoff"
            )
    r1, r2, rp = sp1.rank, sp2.rank, spp.rank

    # dim(N(w1) & C(w2)) and dim(N(w2.T) & C(w1.T)) via the rank identity,
    # each cross-checked against principal angles on bases read off the
    # spectra
    d_nc, d_cn = r2 - rp, r1 - rp
    for label, d_id, null_cols, col_cols in (
        ("intersection", d_nc, sp1.v[:, r1:], sp2.u[:, :r2]),
        ("transposed intersection", d_cn, sp2.u[:, r2:], sp1.v[:, :r1]),
    ):
        d_angles = intersection_dim(
            SubspaceBasis(null_cols), SubspaceBasis(col_cols), tol
        )
        if d_id != d_angles:
            raise IllConditioned(
                f"{label} dim mismatch: rank identity {d_id}, angles {d_angles}"
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
    ), spp


def null_completion(w1, w2, tol=DEFAULT_TOL, seed=0, scale=None):
    """Build ``wt2`` with columns in ``N(w1)`` such that ``w2 + wt2`` is
    full rank; the generic construction, verified and retried with seeded
    rotations when a placement collides."""
    w1 = as_matrix(w1, "w1")
    w2 = as_matrix(w2, "w2")
    k, n = w2.shape
    target_rank = min(k, n)
    s2 = singular_values(w2)
    r2 = _sv_rank(s2, w2.shape, tol)
    if r2 == target_rank:
        return np.zeros_like(w2)
    basis = null_space(w1, tol)
    if basis.dim == 0:
        raise GenericScaleFailed("left factor has a trivial null space")
    d = basis.dim
    if scale is None:
        # half the smallest singular value of w2 counted in its rank
        scale = 0.5 * float(s2[r2 - 1]) if r2 else 1.0
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


def gauss_newton_recover(w1, w2, targets, delta, tol, seed=0):
    """Independent factor-recovery oracle for a stack of targets.

    Solves ``(w1 + A)(w2 + B) = target`` by batched Levenberg-Marquardt
    from ``A = B = 0``.  Success means residual within ``residual_abs``
    and combined factor perturbation within ``PROBE_NORM_SLACK * delta``.
    Trials that stall from the degenerate start are retried with seeded
    jitter at a few square-root-of-delta scales.
    """
    targets = np.asarray(targets, dtype=float)
    m, k = w1.shape
    n = w2.shape[1]
    eye_m, eye_n = np.eye(m), np.eye(n)
    cap = PROBE_NORM_SLACK * delta

    def product(a, b):
        return (w1[None] + a) @ (w2[None] + b)

    def jacobian(a, b):
        t_count = a.shape[0]
        ja = np.einsum("ip,tqj->tijpq", eye_m, w2[None] + b)
        jb = np.einsum("tip,jq->tijpq", w1[None] + a, eye_n)
        return np.concatenate([
            ja.reshape(t_count, m * n, m * k), jb.reshape(t_count, m * n, k * n)
        ], axis=2)

    def fit(tgts, max_iter, init_scale, fit_seed):
        (a, b), rn = lm_fit(product, jacobian, (w1.shape, w2.shape), tgts, tol,
                            max_iter, init_scale, fit_seed)
        norm = np.sqrt(
            np.linalg.norm(a.reshape(len(a), -1), axis=1) ** 2
            + np.linalg.norm(b.reshape(len(b), -1), axis=1) ** 2
        )
        return a, b, rn, norm, (rn <= tol.residual_abs) & (norm <= cap)

    a, b, rn, pair_norm, success = fit(targets, 80, 0.0, seed)
    if delta > 0.0:
        for round_idx, factor in enumerate((0.5, 1.5, 0.25, 0.75)):
            retry = ~success
            if not np.any(retry):
                break
            a2, b2, rn2, norm2, ok2 = fit(
                targets[retry], 120, factor * np.sqrt(delta), seed + 1 + round_idx
            )
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
