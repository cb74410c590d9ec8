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
sampled target is reachable with small factor perturbations.  Both stages
run on the stack of all trials at once.  ``draw_directions`` draws every
trial's direction as one block from one seeded stream, row ``t`` for
trial ``t``; ``sample_feasible_target`` takes that block and stops a
trial once its distance matches ``delta`` to within the rounding floor of
``(z + r) - z``.  ``lm_recover`` fits every target from zero, then every
jittered retry round of the trials still failing in one more stacked
``lm_fit``, which iterates the live trials only, each step solving the
smaller of its two normal systems (``m n`` residual entries against
``k (m + n)`` unknowns).  A trial's direction depends on the seed and
``t`` alone, and its retry jitter on the seed, the round and ``t``, so
each sampled target and each trial's recovery is, bit for bit, what a
batch of one would give, and a run of fewer trials reproduces the
leading trials of a longer one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InputError, NotOpen, NumericalFailure
from .matrixio import as_matrix
from .numcore import (
    DEFAULT_TOL,
    EPS,
    _row_dots,
    _sv_rank,
    intersection_dim,
    lm_recover,
    spectrum,
    svd,
    truncated_svd,
)

REGIME_FULL = "full-rank"
REGIME_DEFICIENT = "rank-deficient"

# factor-norm slack over the sampled distance: separates witnesses that
# scale like sqrt(delta) (legitimate at rank-boundary points) from the
# order-one perturbations a non-open point demands
PROBE_NORM_SLACK = 1e3

# sample_feasible_target's cap on its rescale-and-truncate rounds
SAMPLER_ROUNDS = 80


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
    return _openness_and_spectra(pair, tol)[0]


def _openness_and_spectra(pair, tol):
    """``check_openness``'s report with the ``Spectrum`` of ``w1``, of
    ``w2`` and of the product it read the ranks from: the one SVD of each
    factor, off which the completion paths read their inputs too."""
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
        d_angles = intersection_dim(null_cols, col_cols, tol)
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
    ), sp1, sp2, spp


def null_completion(w, basis, sp, tol=DEFAULT_TOL, scales=None, transposed=False):
    """Per scale, ``(wt, u, sv, v)``: ``wt`` with columns in the span of the
    orthonormal ``basis`` making ``w + wt`` full rank, and the reduced SVD
    of ``w + wt`` (of ``(w + wt).T`` when ``transposed``) that verified it;
    ``None`` where the rank is missed.  ``sp`` is the ``Spectrum`` of ``w``:
    pass ``N(w1) = sp1.v[:, r1:]`` and ``sp2`` for ``w = w2``, and
    ``N(w2.T) = sp2.u[:, r2:]`` and ``sp1.T`` for ``w = w1.T``.  The default
    scale is half the least counted singular value of ``w``.

    Closed form, with ``r = sp.rank`` and ``t = min(w.shape) - r``: a basis
    of fewer than ``t`` columns fails; one of more is cut to its ``t``
    directions farthest outside ``C(w)``, the top right singular vectors of
    ``P = sp.u[:, r:].T @ basis``; then ``wt = scale * basis @ G.T`` with
    ``G = sp.v[:, r:r + t]``.  As ``w + wt = [u_r diag(s_r) | scale basis]
    [v_r | G].T`` and ``[v_r | G]`` is orthonormal, ``rank(w + wt) = r +
    rank(P)``.  For ``w = w2``, ``P`` has rank ``(k - r1) - d_nc`` before
    the cut, which reaches ``t = n - r2`` exactly when
    ``w2_completion_exists`` holds; for ``w = w1.T`` likewise with
    ``w1_completion_exists``."""
    r = sp.rank
    t = min(w.shape) - r
    if scales is None:
        scales = [0.5 * float(sp.s[r - 1]) if r else 1.0]
    if basis.shape[1] < t:
        return [None] * len(scales)
    if basis.shape[1] > t:
        basis = basis @ svd(sp.u[:, r:].T @ basis, full_matrices=False)[2][:, :t]
    g = sp.v[:, r:r + t]

    def complete(scale):
        wt = scale * basis @ g.T
        completed = w + wt
        u, sv, v = svd(completed.T if transposed else completed, full_matrices=False)
        return (wt, u, sv, v) if _sv_rank(sv, w.shape, tol) == r + t else None

    return [complete(scale) for scale in scales]


def construct_witnesses(pair, tol=DEFAULT_TOL):
    """Perturbations certifying openness in the rank-deficient regime:
    ``wt1 @ w2 = 0`` with ``w1 + wt1`` full column rank, and
    ``w1 @ wt2 = 0`` with ``w2 + wt2`` full row rank, each the
    ``null_completion`` of one factor inside the other's null space.  At
    an open point ``N(w1) ⊕ C(w2) = R^k`` (``r1 = r2``, ``d_nc = 0``), so
    ``N(w1)`` has exactly the ``k - r2`` columns ``w2`` lacks, all outside
    ``C(w2)``, and likewise ``N(w2.T)`` for ``w1.T`` (none when the factors
    have rank ``k``, and the witnesses are zero); a completion that misses
    the full rank contradicts the rank arithmetic and raises
    ``IllConditioned``."""
    report, sp1, sp2, _ = _openness_and_spectra(pair, tol)
    if report.regime != REGIME_DEFICIENT or not report.open:
        raise NotOpen(
            "witnesses exist only at open points of the rank-deficient regime"
        )
    (c2,) = null_completion(pair.w2, sp1.v[:, sp1.rank:], sp2, tol)
    (c1,) = null_completion(pair.w1.T, sp2.u[:, sp2.rank:], sp1.T, tol)
    if c1 is None or c2 is None:
        raise IllConditioned(
            "the null-space completion missed the full rank the openness check "
            "certified"
        )
    wt1, wt2 = c1[0].T, c2[0]
    scale = max(1.0, float(np.abs(pair.w1).max()), float(np.abs(pair.w2).max()))
    if np.abs(wt1 @ pair.w2).max() > tol.residual_abs * scale:
        raise NumericalFailure("witness wt1 does not annihilate w2")
    if np.abs(pair.w1 @ wt2).max() > tol.residual_abs * scale:
        raise NumericalFailure("witness wt2 is not annihilated by w1")
    return wt1, wt2


def _norms(stack):
    """Frobenius norm of each matrix of a stack, bit for bit the
    ``np.linalg.norm`` of that matrix."""
    return np.sqrt(_row_dots(stack.reshape(len(stack), -1)))


def check_delta(delta):
    """Reject a negative or non-finite target distance as bad input."""
    if delta < 0:
        raise InputError("delta must be non-negative")
    if not np.isfinite(delta):
        raise InputError(f"delta must be finite, got {delta}")


def draw_directions(seed, trials, shape):
    """Standard-normal directions for ``sample_feasible_target``, row ``t``
    for trial ``t``: one ``(trials, *shape)`` draw from the first child of
    ``SeedSequence(seed)``, so a row depends on ``seed`` and ``t`` alone
    and fewer trials draw the leading rows.  ``seed`` is an int or a
    sequence of ints, ``shape`` a matrix shape.  The child's entropy is
    the seed padded to at least four 32-bit words and then the key 0,
    which no integer seed's entropy equals, so this stream differs from
    every ``default_rng(seed + i)`` that ``lm_recover`` draws retry jitter
    from.  A row of zeros is redrawn, up to 8 times, from trial ``t``'s
    own grandchild (spawn key ``(0, t)``), which keeps it independent of
    the other trials."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    g = rng.standard_normal((trials, *shape))
    for t in np.flatnonzero(~g.any(axis=(1, 2))):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, int(t))))
        for _ in range(8):
            g[t] = rng.standard_normal(shape)
            if g[t].any():
                break
    return g


def sample_feasible_target(z, rank_cap, delta, g):
    """One target per direction of the ``(trials, m, n)`` block ``g`` (of
    nonzero rows, as ``draw_directions`` gives), as a ``(trials, m, n)``
    stack: a matrix of rank at most ``rank_cap`` at Frobenius distance
    approximately ``delta`` from ``z`` (exactly feasible, distance within
    rounding of ``delta``).

    Trial ``t`` truncates ``z + r`` with ``r`` along ``g[t]`` at norm
    ``delta``, and then rescales ``r = zt - z`` to norm ``delta`` and
    truncates again until ``|r|`` is ``delta`` to within
    ``1e-12 delta + 8 EPS |z|``, for at most ``SAMPLER_ROUNDS`` rounds.
    The second term is the rounding floor of ``(z + r) - z``, below which
    distances cannot be told apart; the bound depends on ``z`` and
    ``delta`` alone.  When truncation swallows the move
    (``|r| <= 1e-9 delta``), ``r`` becomes ``g[t]`` truncated to rank
    ``max(1, rank_cap)``.  Each round
    runs on the stack of trials still moving, so a slice equals, bit for
    bit, the target of a batch of one: ``g[t:t + 1]``.  ``delta == 0``
    returns copies of ``z``.
    """
    z = as_matrix(z, "z")
    if delta == 0.0 or not len(g):
        return np.repeat(z[None], len(g), axis=0)
    zt = truncated_svd(z + g * (delta / _norms(g))[:, None, None], rank_cap)
    floor = 1e-12 * delta + 8.0 * EPS * np.linalg.norm(z)
    live = np.arange(len(g))
    for _ in range(SAMPLER_ROUNDS):
        r = zt[live] - z
        nr = _norms(r)
        swallowed = np.flatnonzero(nr <= delta * 1e-9)
        if swallowed.size:
            # truncation swallowed the move; bias along a feasible direction
            r[swallowed] = truncated_svd(g[live[swallowed]], max(1, rank_cap))
            nr[swallowed] = _norms(r[swallowed])
        moving = np.abs(nr - delta) > floor
        live, r, nr = live[moving], r[moving], nr[moving]
        if not live.size:
            break
        zt[live] = truncated_svd(z + r * (delta / nr)[:, None, None], rank_cap)
    return zt


def gauss_newton_recover(w1, w2, targets, delta, tol, seed=0):
    """Independent factor-recovery oracle for a stack of targets.

    Solves ``(w1 + A)(w2 + B) = target`` by batched Levenberg-Marquardt
    from ``A = B = 0``.  Success means residual within ``residual_abs``
    and combined factor perturbation within ``PROBE_NORM_SLACK * delta``.
    When ``delta > 0``, trials that fail from the degenerate start are
    retried from seeded jitter at four square-root-of-delta scales, all
    four rounds in one stacked fit (``lm_recover``); round ``i`` draws
    trial ``t``'s jitter ``(A, B)`` as row ``t`` of one draw from
    ``default_rng(seed + i)``.  Each trial's outputs depend on its target,
    ``seed`` and ``t`` alone and equal, bit for bit, those of a batch of
    one.
    """
    targets = np.asarray(targets, dtype=float)
    m, k = w1.shape
    n = w2.shape[1]
    eye_m, eye_n = np.eye(m), np.eye(n)

    def product(a, b):
        return (w1[None] + a) @ (w2[None] + b)

    def jacobian(a, b):
        t_count = a.shape[0]
        ja = np.einsum("ip,tqj->tijpq", eye_m, w2[None] + b)
        jb = np.einsum("tip,jq->tijpq", w1[None] + a, eye_n)
        return np.concatenate([
            ja.reshape(t_count, m * n, m * k), jb.reshape(t_count, m * n, k * n)
        ], axis=2)

    rounds = (80, 120, [f * np.sqrt(delta) for f in (0.5, 1.5, 0.25, 0.75) if delta > 0.0])
    (a, b), rn, pair_norm, success = lm_recover(
        product, jacobian, (w1.shape, w2.shape), targets, tol, rounds, seed,
        np.full(len(targets), tol.residual_abs), PROBE_NORM_SLACK * delta,
    )
    return {
        "success": success,
        "factor_norm": pair_norm,
        "residual": rn,
        "delta_w1": a,
        "delta_w2": b,
    }


def probe_openness(pair, delta, trials, tol=DEFAULT_TOL, seed=0):
    """Empirical openness check: sample feasible targets at distance
    ``delta`` and report the fraction recoverable with small factors.
    One stacked sampler call makes every target from one block of
    directions (``draw_directions(seed, ...)``), row ``t`` for trial ``t``."""
    check_delta(delta)
    if trials <= 0:
        raise InputError("trials must be a positive count")
    z = pair.product
    rank_cap = min(pair.m, pair.n, pair.k)
    g = draw_directions(seed, trials, z.shape)
    targets = sample_feasible_target(z, rank_cap, delta, g)
    input_deltas = _norms(targets - z)
    fit = gauss_newton_recover(pair.w1, pair.w2, targets, delta, tol, seed=seed)
    success = fit["success"]
    norms = fit["factor_norm"][success]
    return {
        "delta": float(delta),
        "trials": int(trials),
        "successes": int(success.sum()),
        "success_fraction": float(success.mean()),
        "max_factor_norm": float(norms.max()) if norms.size else 0.0,
        "max_input_delta": float(input_deltas.max()),
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
