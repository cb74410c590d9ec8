"""Dense linear-algebra core: one rank-tolerance policy for the whole
package, subspace bases, bounded-coefficient row-basis selection, and the
batched solver behind the recovery oracles.

* One rank rule: ``_sv_rank`` alone compares singular values (of one
  matrix or of a stack) with ``Tolerances.rank_cutoff``.
* A ``Spectrum`` holds one full SVD with the rank and ambiguity flag read
  off it, so a matrix whose ranks, flags and bases are all needed is
  decomposed once.
* A subspace is an array of orthonormal columns read off a ``Spectrum``:
  ``null_space`` and ``column_space`` return such slices, and
  ``intersection_dim`` takes two of them.
* ``truncated_svd`` takes a matrix or a ``(..., m, n)`` stack, as
  ``rank`` and ``singular_values`` do; ``_row_dots`` gives the squared
  row norms that ``np.linalg.norm`` computes, bit for bit.
* ``bounded_basis`` reads its pivots and its coefficients off the rank's
  own ``Spectrum``.  The rows of ``u[:, :r] diag(s[:r])`` have the Gram
  matrix of the rows of the matrix, so greedy pivoted Gram-Schmidt on
  them picks the rows pivoted QR would.  The rows of ``u[:, :r]``
  combine as the rows of the matrix do, so each exchange step and the
  final coefficients are ``r x r`` solves.
* ``lm_fit`` is the one batched Levenberg-Marquardt loop; each iteration
  works only on the trials still live and solves the smaller of its two
  normal systems, ``JᵀJ`` over the unknowns or ``JJᵀ`` over the residual
  entries, which give the same step by
  ``(JᵀJ + λI)⁻¹Jᵀ = Jᵀ(JJᵀ + λI)⁻¹``; the smaller Gram matrix has the
  fewer null directions for ``1/λ`` to amplify rounding noise along.
* ``lm_recover`` is the one retry engine of the two recovery oracles: a
  first ``lm_fit`` of every trial from zero, then one stacked ``lm_fit``
  of every seeded jittered retry round of the trials still failing,
  keeping each trial's first accepted round.

All operations are pure functions of their arguments and safe to call
concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditioned, InputError, NotRankDeficient, NumericalFailure
from .matrixio import as_matrix

EPS = float(np.finfo(float).eps)

# Singular values counted nonzero but within this factor of the rank
# cutoff make the rank decision untrustworthy; verdict-level callers
# surface IllConditioned.  Values below the cutoff are ordinary
# numerical zeros (orthogonal reductions leave junk of a few eps*smax)
# and never flag.
_AMBIGUITY_BAND = 8.0


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every module.

    ``rank_rel`` is the relative singular-value cutoff; ``None`` selects
    the standard rule ``eps * max(rows, cols)`` per matrix.  ``grad_abs``
    and ``residual_abs`` are absolute thresholds.  Every value given must
    be finite and strictly positive.  The sphere probe's radii and sample
    count are constants of ``landscape``, not tolerances.
    """

    rank_rel: float | None = None
    grad_abs: float = 1e-9
    residual_abs: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "grad_abs", "residual_abs"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.rank_rel is not None and self.rank_rel <= 0:
            raise InputError("rank_rel must be positive")
        if self.grad_abs <= 0 or self.residual_abs <= 0:
            raise InputError("thresholds must be strictly positive")

    def rank_cutoff(self, shape, smax):
        rel = self.rank_rel if self.rank_rel is not None else EPS * max(shape)
        return rel * smax


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Spectrum:
    """One full SVD ``mat == u @ diag(s) @ v.T`` with the rank and the
    ambiguity flag read off it.  The four fundamental subspaces are
    column slices: ``N(mat) = v[:, rank:]``, ``C(mat) = u[:, :rank]``,
    ``N(mat.T) = u[:, rank:]`` and ``C(mat.T) = v[:, :rank]``."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rank: int
    ambiguous: bool

    @property
    def T(self):
        """The ``Spectrum`` of ``mat.T``: ``u`` and ``v`` swapped."""
        return Spectrum(self.v, self.s, self.u, self.rank, self.ambiguous)


@dataclass
class BoundedBasisResult:
    """Row-basis selection with guaranteed coefficient bound.

    ``coeffs`` expresses the non-basis rows (ascending row order) as
    combinations of the basis rows, columns aligned with ``basis_rows``.
    ``coeff_inf_norm`` records what the selection actually achieved; the
    guarantee is only ``bound = 2**(m - r - 1)``.
    """

    basis_rows: tuple
    coeffs: np.ndarray
    bound: float
    coeff_inf_norm: float = field(default=0.0)

    @property
    def nonbasis_rows(self):
        m = len(self.basis_rows) + self.coeffs.shape[0]
        inside = set(self.basis_rows)
        return tuple(i for i in range(m) if i not in inside)


def svd(mat, full_matrices=True):
    """SVD returning (U, s, V) with ``U @ diag(s) @ V.T == mat``."""
    mat = as_matrix(mat)
    try:
        u, s, vt = np.linalg.svd(mat, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def _as_stack(mat):
    """A matrix or a ``(..., m, n)`` stack as a float array; a stack
    passes the matrix checks as one tall matrix."""
    mat = np.asarray(mat, dtype=float)
    as_matrix(mat.reshape(-1, mat.shape[-1]) if mat.ndim > 2 else mat)
    return mat


def _row_dots(a):
    """Each row of ``a`` dotted with itself through BLAS ``ddot``, the
    call ``np.linalg.norm`` makes, so the sums match it bit for bit
    (``einsum`` adds in another order)."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def singular_values(mat):
    """Descending singular values of a matrix, or of each matrix of a
    ``(..., m, n)`` stack."""
    mat = _as_stack(mat)
    try:
        return np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def _sv_rank(s, shape, tol, band=1.0):
    """The rank rule: the number of singular values (descending along the
    last axis of ``s``) above ``band`` times the cutoff of a ``shape``
    matrix.  Returns an int, or an int array for a stack; an empty or zero
    matrix has rank 0."""
    count = (s > tol.rank_cutoff(shape, s[..., :1]) * band).sum(axis=-1)
    return int(count) if count.ndim == 0 else count


def rank(mat, tol=DEFAULT_TOL):
    """Numerical rank: singular values above ``rank_rel * smax``; an int
    array of ranks for a ``(..., m, n)`` stack."""
    mat = np.asarray(mat, dtype=float)
    return _sv_rank(singular_values(mat), mat.shape[-2:], tol)


def rank_is_ambiguous(mat, tol=DEFAULT_TOL):
    """True when some singular value counted as nonzero sits inside the
    ambiguity band just above the rank cutoff."""
    return spectrum(mat, tol).ambiguous


def spectrum(mat, tol=DEFAULT_TOL):
    """Full SVD of ``mat`` with its rank and ambiguity flag."""
    mat = as_matrix(mat)
    u, s, v = svd(mat)
    r = _sv_rank(s, mat.shape, tol)
    return Spectrum(u, s, v, r, r != _sv_rank(s, mat.shape, tol, _AMBIGUITY_BAND))


def null_space(mat, tol=DEFAULT_TOL):
    """Orthonormal basis of ``{v : mat @ v = 0}``: the columns
    ``v[:, rank:]`` of the ``Spectrum`` of ``mat``."""
    sp = spectrum(mat, tol)
    return sp.v[:, sp.rank:]


def column_space(mat, tol=DEFAULT_TOL):
    """Orthonormal basis of the range of ``mat``: the columns
    ``u[:, :rank]`` of the ``Spectrum`` of ``mat``."""
    sp = spectrum(mat, tol)
    return sp.u[:, : sp.rank]


def intersection_dim(basis1, basis2, tol=DEFAULT_TOL):
    """Dimension of the intersection of two subspaces, each given by an
    array of orthonormal columns (a column slice of a ``Spectrum``).

    Computed two independent ways -- the dimension identity
    ``dim(U) + dim(V) - rank([B1 B2])`` and the count of principal-angle
    cosines at 1 -- and cross-checked.  Disagreement means the instance
    sits too close to the rank threshold for a verdict.
    """
    if basis1.shape[0] != basis2.shape[0]:
        raise InputError("subspace bases live in different ambient dimensions")
    d1, d2 = basis1.shape[1], basis2.shape[1]
    if d1 == 0 or d2 == 0:
        return 0
    by_rank = d1 + d2 - rank(np.hstack([basis1, basis2]), tol)
    cos = np.clip(np.linalg.svd(basis1.T @ basis2, compute_uv=False), 0.0, 1.0)
    # the cosines carry rounding from two SVD layers, so the threshold
    # keeps a floor of a few dozen ulps below exact alignment
    thr = tol.rank_rel if tol.rank_rel is not None else EPS * max(basis1.shape[0], 2)
    thr = max(thr, 64.0 * EPS)
    by_angles = int(np.sum(cos >= 1.0 - thr))
    if by_rank != by_angles:
        raise IllConditioned(
            "subspace intersection dimension is ambiguous: "
            f"rank identity gives {by_rank}, principal angles give {by_angles}"
        )
    return by_rank


def _pivot_rows(u, s):
    """The first ``len(s)`` pivots of greedy pivoted Gram-Schmidt on the
    rows of ``u diag(s)``: each step takes the row of largest residual
    norm (the first such row on a tie) and projects its direction out of
    every row.  The squared norms are taken afresh from the residual rows
    at each step, since downdating them loses every digit of a residual
    below ``sqrt(eps)`` of its row; a picked row is masked by adding
    ``-inf`` to its norm rather than dropped, so no step copies a subset
    of the rows."""
    g = u * s
    mask = np.zeros(g.shape[0])
    picked = []
    for _ in range(len(s)):
        norms = np.einsum("ij,ij->i", g, g)
        norms += mask
        p = int(norms.argmax())
        q = g[p] / math.sqrt(norms[p])
        g -= (g @ q)[:, None] * q
        mask[p] = -np.inf
        picked.append(p)
    return picked


def bounded_basis(mat, tol=DEFAULT_TOL, sp=None):
    """Select ``r`` rows spanning the row space so that every other row is
    a combination of them with coefficients bounded by ``2**(m - r - 1)``.

    Starts from a pivot order read off the ``Spectrum`` and runs an
    exchange loop: while the row being adjoined has a coefficient above
    the inductive bound for the current step, the argmax basis row is
    swapped out.  Each adjoined row causes at most one swap, so the loop
    terminates in at most ``m - r`` passes.  ``sp`` is the ``Spectrum`` of
    ``mat`` when the caller already holds one; otherwise it is computed
    here.

    The first ``r`` pivots are ``r`` steps of greedy pivoted Gram-Schmidt
    on the rows of ``u[:, :r] diag(s[:r])``: ``mat = u diag(s) vᵀ`` with
    ``v`` orthogonal, so these rows have the inner products of the rows
    of ``mat`` up to the discarded singular values, and the steps pick
    the rows that pivoted QR of ``mat.T`` would (Businger & Golub).  The
    remaining rows are adjoined in ascending index order: once ``r`` rows
    are picked, every residual is at the level of the discarded singular
    values, so ordering them by residual would order them by rounding
    noise.
    """
    mat = as_matrix(mat)
    m = mat.shape[0]
    if sp is None:
        sp = spectrum(mat, tol)
    r = sp.rank
    if r >= m:
        raise NotRankDeficient(f"matrix has full row rank {r}; no dependent rows")
    bound = 2.0 ** (m - r - 1)
    if r == 0:
        coeffs = np.zeros((m, 0))
        return BoundedBasisResult(basis_rows=(), coeffs=coeffs, bound=bound)

    # rows of mat are the rows of f times diag(s) v.T, so a @ mat[rows] =
    # mat[j] exactly when a @ f[rows] = f[j]: an r x r system
    f = sp.u[:, :r]
    basis = _pivot_rows(f, sp.s[:r])
    pending = sorted(set(range(m)) - set(basis))

    try:
        for step, j in enumerate(pending, start=1):
            threshold = 2.0 ** (step - 1)
            a = np.linalg.solve(f[basis].T, f[j])
            istar = int(np.argmax(np.abs(a)))
            if abs(a[istar]) > threshold * (1.0 + 64.0 * EPS):
                basis[istar] = j

        basis_sorted = sorted(basis)
        nonbasis = sorted(set(range(m)) - set(basis))
        coeffs = np.linalg.solve(f[basis_sorted].T, f[nonbasis].T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"row basis is singular: {exc}") from exc

    inf_norm = float(np.max(np.abs(coeffs)))
    if inf_norm > bound * (1.0 + 1e-9):
        raise NumericalFailure(
            f"row-basis exchange exceeded its coefficient bound: "
            f"{inf_norm} > {bound}"
        )
    return BoundedBasisResult(
        basis_rows=tuple(int(i) for i in basis_sorted),
        coeffs=coeffs,
        bound=bound,
        coeff_inf_norm=inf_norm,
    )


def truncated_svd(mat, max_rank):
    """Best approximation of ``mat`` with rank at most ``max_rank``, or of
    each matrix of a ``(..., m, n)`` stack; a slice of a stack equals,
    bit for bit, the call on that matrix alone."""
    mat = _as_stack(mat)
    k = int(max_rank)
    if k >= min(mat.shape[-2:]):
        return mat.copy()
    if k <= 0:
        return np.zeros_like(mat)
    try:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    return (u[..., :k] * s[..., None, :k]) @ vt[..., :k, :]


def _lm_step(jac, res, lam):
    """``lm_fit``'s damped step ``-(JᵀJ + λI)⁻¹Jᵀr`` for each slice of a
    ``(T, E, P)`` Jacobian stack, residuals ``(T, E, 1)`` and dampings
    ``(T,)``: ``Jᵀz`` with ``(JJᵀ + λI_E) z = -r`` when ``E < P``, else the
    ``JᵀJ`` system with ``Jᵀr`` and ``JᵀJ`` from one stacked matmul,
    ``Jᵀ [r J]``.  Each slice's step is computed on its own."""
    e, p = jac.shape[1:]
    jac_t = jac.transpose(0, 2, 1)
    damping = lam[:, None, None] * np.eye(min(e, p))
    if e < p:
        return (jac_t @ np.linalg.solve(jac @ jac_t + damping, -res))[..., 0]
    normal = jac_t @ np.concatenate([res, jac], axis=2)
    return np.linalg.solve(normal[..., 1:] + damping, -normal[..., :1])[..., 0]


def lm_fit(product, jacobian, blocks, targets, tol, max_iter):
    """Batched Levenberg-Marquardt on ``product(*blocks) = target``, one
    slice of each ``(targets, ...)`` start block of ``blocks`` per target.

    ``jacobian(*blocks)`` returns the ``(targets, entries, unknowns)``
    Jacobian with unknowns in block order.  Each iteration runs only on the
    live trials, those above the residual goal whose damping is below its
    cap; ``product`` and ``jacobian`` see the live slices alone, and a
    trial's iterates from its start equal, bit for bit, those of fitting it
    with any other batch.  The start blocks are not modified.

    Each step solves the smaller of the two normal systems, ``JᵀJ + λI``
    over the ``P`` unknowns or ``JJᵀ + λI`` over the ``E`` residual
    entries, since ``(JᵀJ + λI)⁻¹Jᵀ = Jᵀ(JJᵀ + λI)⁻¹`` (``_lm_step``).  The
    smaller system is also the better-conditioned one: as ``λ`` falls
    towards ``1e-14``, the ``1/λ`` amplification of rounding noise acts
    only on null directions of the Gram matrix solved, of which ``JJᵀ`` has
    ``E - rank J`` and ``JᵀJ`` has ``P - rank J``, so at a full-rank ``J``
    the smaller one has none.  Returns (blocks, residual_norms).
    """
    t_count = targets.shape[0]
    blocks = [np.array(blk, dtype=float) for blk in blocks]
    offsets = np.cumsum([0] + [int(np.prod(blk.shape[1:])) for blk in blocks])
    lam = np.full(t_count, 1e-4)
    res = product(*blocks) - targets
    res_norm = np.linalg.norm(res.reshape(t_count, -1), axis=1)
    goal = 0.05 * tol.residual_abs
    for _ in range(max_iter):
        live = np.flatnonzero((res_norm > goal) & (lam < 1e14))
        if not live.size:
            break
        live_blocks = [blk[live] for blk in blocks]
        jac = jacobian(*live_blocks)
        try:
            step = _lm_step(jac, res[live].reshape(live.size, -1, 1), lam[live])
        except np.linalg.LinAlgError as exc:  # iterates that overflowed
            raise NumericalFailure(
                f"Levenberg-Marquardt system is singular: {exc}") from exc
        tried = [
            blk + step[:, lo:hi].reshape(blk.shape)
            for blk, lo, hi in zip(live_blocks, offsets, offsets[1:])
        ]
        res_try = product(*tried) - targets[live]
        norm_try = np.linalg.norm(res_try.reshape(live.size, -1), axis=1)
        better = norm_try < res_norm[live]
        improved, worse = live[better], live[~better]
        for blk, blk_try in zip(blocks, tried):
            blk[improved] = blk_try[better]
        res[improved] = res_try[better]
        res_norm[improved] = norm_try[better]
        lam[improved] = np.maximum(lam[improved] * 0.3, 1e-14)
        lam[worse] *= 10.0
    return blocks, res_norm


def _factor_norms(blocks):
    """``sqrt(Σ‖block‖²)`` of each trial; for one block, the block's norm
    bit for bit, since ``sqrt(fl(x²)) = x`` barring under- and overflow."""
    return np.sqrt(sum(
        np.linalg.norm(blk.reshape(len(blk), -1), axis=1) ** 2 for blk in blocks
    ))


def lm_recover(product, jacobian, shapes, targets, tol, rounds, seed, goals, cap):
    """``lm_fit`` of every target from zero, then every retry round of the
    trials still failing in one stacked ``lm_fit`` of ``rounds × failing``
    slices.  ``rounds`` is ``(max_iter, retry_iter, retry_scales)``: the
    two fits' iteration caps and one jitter scale per retry round.

    Round ``i`` (from 1) starts trial ``t`` at its scale times row ``t`` of
    one ``(targets, unknowns)`` standard-normal draw from
    ``default_rng(seed + i)``, split into the blocks of ``shapes``.  A fit
    is accepted when its residual norm is at most ``goals[t]`` and its
    factor norm, ``sqrt(Σ‖block‖²)``, at most ``cap``; a failing trial
    takes its first accepted round, in order, and keeps its first-fit
    outputs when none is.  So each trial's outputs depend on its target,
    ``seed`` and ``t`` alone and equal, bit for bit, those of a batch of
    one.  Returns (blocks, residual_norms, factor_norms, success).
    """
    max_iter, retry_iter, retry_scales = rounds
    t_count = targets.shape[0]
    zero = [np.zeros((t_count, *shape)) for shape in shapes]
    blocks, res_norm = lm_fit(product, jacobian, zero, targets, tol, max_iter)
    factor_norm = _factor_norms(blocks)
    success = (res_norm <= goals) & (factor_norm <= cap)
    todo = np.flatnonzero(~success)
    if not todo.size or not len(retry_scales):
        return blocks, res_norm, factor_norm, success

    sizes = [int(np.prod(shape)) for shape in shapes]
    jitter = np.concatenate([
        scale * np.random.default_rng(seed + i).standard_normal((t_count, sum(sizes)))[todo]
        for i, scale in enumerate(retry_scales, start=1)
    ])
    starts = [
        part.reshape(len(jitter), *shape)
        for part, shape in zip(np.split(jitter, np.cumsum(sizes)[:-1], axis=1), shapes)
    ]
    rows = np.tile(todo, len(retry_scales))
    got, rn = lm_fit(product, jacobian, starts, targets[rows], tol, retry_iter)
    norm = _factor_norms(got)
    ok = ((rn <= goals[rows]) & (norm <= cap)).reshape(len(retry_scales), todo.size)
    accepted = ok.any(axis=0)
    # the first accepted round of each accepted trial, as a row of the stack
    pick = ok.argmax(axis=0)[accepted] * todo.size + np.flatnonzero(accepted)
    idx = todo[accepted]
    success[idx] = True
    for blk, new in zip(blocks, got):
        blk[idx] = new[pick]
    res_norm[idx], factor_norm[idx] = rn[pick], norm[pick]
    return blocks, res_norm, factor_norm, success
