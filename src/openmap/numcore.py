"""Dense linear-algebra core: one rank-tolerance policy for the whole
package, subspace bases, bounded-coefficient row-basis selection, and the
batched solver behind the recovery oracles.

The module's callers are the package's own modules, and every matrix they
pass is a finite float ndarray already checked where it entered: by the
loaders, the entry types, or the public functions of ``openness``,
``realization``, ``symmetric`` and ``landscape``.  Nothing here coerces or
checks an input again.  ``_svd`` is the one SVD call of the package; it
turns LAPACK's failure and a non-finite singular value, which an
overflowed intermediate leaves, into ``NumericalFailure``.

* One rank rule: ``_sv_rank`` alone compares singular values (of one
  matrix or of a stack) with ``Tolerances.rank_cutoff``.
* One radius gate: ``certified_radius``, the only constant either
  realization certifies, refuses a target beyond it.
* A ``Spectrum`` holds one full SVD with the rank and ambiguity flag read
  off it, so a matrix whose ranks, flags and bases are all needed is
  decomposed once.
* A subspace is an array of orthonormal columns read off a ``Spectrum``:
  ``null_space`` and ``column_space`` return such slices, and
  ``intersection_dim`` takes two of them, whose one principal-angle SVD
  counts their intersection and orders the first basis against the second.
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
  works only on the trials still live, ending one at its first accepted
  step beyond twice the factor-norm cap, and solves the smaller of its
  two normal systems, ``JᵀJ`` over the unknowns or ``JJᵀ`` over the
  residual entries, which give the same step by
  ``(JᵀJ + λI)⁻¹Jᵀ = Jᵀ(JJᵀ + λI)⁻¹``; the smaller Gram matrix has the
  fewer null directions for ``1/λ`` to amplify rounding noise along.
* ``lm_recover`` is the one retry engine of the two recovery oracles: a
  first ``lm_fit`` of every trial from zero, then one stacked ``lm_fit``
  of every seeded jittered retry round of the trials still failing,
  keeping each trial's first round that reaches the residual goal within
  the factor-norm cap, with no accepted iterate beyond twice the cap.

All operations are pure functions of their arguments and safe to call
concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaTooLarge, InputError, NotRankDeficient, NumericalFailure

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


def _svd(mat, **kwargs):
    """``np.linalg.svd(mat, **kwargs)``, the one SVD call of the package.
    LAPACK's failure (a NaN entry) and a non-finite singular value (an
    infinite entry, which LAPACK turns into NaNs without failing) raise
    ``NumericalFailure``."""
    try:
        out = np.linalg.svd(mat, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    if not np.isfinite(out if isinstance(out, np.ndarray) else out.S).all():
        raise NumericalFailure("SVD gave non-finite singular values")
    return out


def svd(mat, full_matrices=True):
    """SVD returning (U, s, V) with ``U @ diag(s) @ V.T == mat``."""
    u, s, vt = _svd(mat, full_matrices=full_matrices)
    return u, s, vt.T


def _row_dots(a):
    """Each row of ``a`` dotted with itself through BLAS ``ddot``, the
    call ``np.linalg.norm`` makes, so the sums match it bit for bit
    (``einsum`` adds in another order)."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def singular_values(mat):
    """Descending singular values of a matrix, or of each matrix of a
    ``(..., m, n)`` stack."""
    return _svd(mat, compute_uv=False)


def _sv_rank(s, shape, tol, band=1.0):
    """The rank rule: the number of singular values (descending along the
    last axis of ``s``) above ``band`` times the cutoff of a ``shape``
    matrix.  Returns an int, or an int array for a stack; an empty or zero
    matrix has rank 0."""
    count = (s > tol.rank_cutoff(shape, s[..., :1]) * band).sum(axis=-1)
    return int(count) if count.ndim == 0 else count


def certified_radius(s, r, distance):
    """``delta0 = s[r - 1] / 2``, half the least of the ``r`` counted
    singular values ``s`` of a product (``None`` at rank 0); a target
    ``distance`` beyond it raises ``DeltaTooLarge`` carrying ``delta0``."""
    delta0 = float(s[r - 1]) / 2.0 if r > 0 else None
    if delta0 is not None and distance > delta0:
        raise DeltaTooLarge(
            f"target distance {distance:.3e} exceeds the certified radius {delta0:.3e}",
            delta0=delta0,
        )
    return delta0


def rank(mat, tol=DEFAULT_TOL):
    """Numerical rank: singular values above ``rank_rel * smax``; an int
    array of ranks for a ``(..., m, n)`` stack."""
    return _sv_rank(singular_values(mat), mat.shape[-2:], tol)


def rank_is_ambiguous(mat, tol=DEFAULT_TOL):
    """True when some singular value counted as nonzero sits inside the
    ambiguity band just above the rank cutoff."""
    return spectrum(mat, tol).ambiguous


def spectrum(mat, tol=DEFAULT_TOL):
    """Full SVD of ``mat`` with its rank and ambiguity flag."""
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
    """``(dim, ordered)`` for two subspaces, each given by an array of
    orthonormal columns (a column slice of a ``Spectrum``): the dimension of
    their intersection, and ``basis1`` farthest from ``span(basis2)`` first.

    One SVD ``basis1ᵀ basis2 = p diag(cos) qᵀ`` gives both (Björck & Golub):
    the count of principal-angle cosines at 1, and ``basis1 @ p[:, ::-1]``.
    An empty basis meets nothing, and ``basis1`` comes back as given.
    """
    if basis1.shape[1] == 0 or basis2.shape[1] == 0:
        return 0, basis1
    p, cos, _ = _svd(basis1.T @ basis2)
    # the cosines carry rounding from two SVD layers, so the threshold
    # keeps a floor of a few dozen ulps below exact alignment
    thr = max(tol.rank_cutoff((basis1.shape[0], 2), 1.0), 64.0 * EPS)
    return int(np.sum(cos >= 1.0 - thr)), basis1 @ p[:, ::-1]


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
    k = int(max_rank)
    if k >= min(mat.shape[-2:]):
        return mat.copy()
    if k <= 0:
        return np.zeros_like(mat)
    u, s, vt = _svd(mat, full_matrices=False)
    return (u[..., :k] * s[..., None, :k]) @ vt[..., :k, :]


def _lm_step(jac, res, lam, eye):
    """``lm_fit``'s damped step ``-(JᵀJ + λI)⁻¹Jᵀr`` for each slice of a
    ``(T, E, P)`` Jacobian stack, residuals ``(T, E, 1)``, dampings ``(T,)``
    and ``eye`` of order ``min(E, P)``: ``Jᵀz`` with ``(JJᵀ + λI) z = -r``
    when ``E < P``, else the ``JᵀJ`` system with ``Jᵀr`` and ``JᵀJ`` from
    one stacked matmul, ``Jᵀ [r J]``.  Each slice's step is its own."""
    e, p = jac.shape[1:]
    jac_t = jac.transpose(0, 2, 1)
    damping = lam[:, None, None] * eye
    if e < p:
        return (jac_t @ np.linalg.solve(jac @ jac_t + damping, -res))[..., 0]
    normal = jac_t @ np.concatenate([res, jac], axis=2)
    return np.linalg.solve(normal[..., 1:] + damping, -normal[..., :1])[..., 0]


def _product_jacobian(left, right):
    """The ``(T, m·n, m·k + k·n)`` Jacobian of ``(L, R) -> L @ R`` at each
    slice of ``left`` ``(T, m, k)`` and ``right`` ``(T, k, n)``: ``R_qj`` at
    ``d/dL_iq`` and ``L_ip`` at ``d/dR_pj``, on the diagonals of one array."""
    (t, m, k), n = left.shape, right.shape[2]
    jac = np.zeros((t, m, n, m * k + k * n))
    jl, jr = jac[..., :m * k].reshape(t, m, n, m, k), jac[..., m * k:].reshape(t, m, n, k, n)
    jl[:, np.arange(m), :, np.arange(m)] = right.transpose(0, 2, 1)
    jr[:, :, np.arange(n), :, np.arange(n)] = left
    return jac.reshape(t, m * n, m * k + k * n)


def _flat_views(flat, shapes):
    """The blocks of ``shapes``, in row-major order, as reshaped views of
    the last axis of ``flat``: of one vector, or of each row of a stack."""
    lead, end, views = flat.shape[:-1], 0, []
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., end:end + size].reshape(*lead, *shape))
        end += size
    return views


def lm_fit(product, jacobian, shapes, x, targets, tol, max_iter, cap):
    """Batched Levenberg-Marquardt on ``product(*blocks) = target`` from
    one row of the ``(targets, unknowns)`` stack ``x`` per target.

    ``product`` and ``jacobian`` see the ``_flat_views`` of ``shapes`` of
    the live rows alone; ``jacobian`` returns the ``(trials, entries,
    unknowns)`` Jacobian.  The live trials are those above the residual
    goal, damped below the damping cap, with no accepted iterate beyond
    ``2 * cap`` in factor norm, the row's norm (a trial stops at the
    first).  A trial's iterates from its start equal, bit for bit, those
    of fitting it with any other batch.  ``x`` is not modified.

    Each step solves the smaller of the two normal systems, ``JᵀJ + λI``
    over the ``P`` unknowns or ``JJᵀ + λI`` over the ``E`` residual
    entries, since ``(JᵀJ + λI)⁻¹Jᵀ = Jᵀ(JJᵀ + λI)⁻¹`` (``_lm_step``).  The
    smaller system is also the better-conditioned one: as ``λ`` falls
    towards ``1e-14``, the ``1/λ`` amplification of rounding noise acts
    only on null directions of the Gram matrix solved, of which ``JJᵀ`` has
    ``E - rank J`` and ``JᵀJ`` has ``P - rank J``, so at a full-rank ``J``
    the smaller one has none.  Returns (x, residual_norms).
    """
    t_count = targets.shape[0]
    x = np.array(x, dtype=float)
    eye = np.eye(min(math.prod(targets.shape[1:]), x.shape[1]))
    lam = np.full(t_count, 1e-4)
    res = product(*_flat_views(x, shapes)) - targets
    res_norm = np.linalg.norm(res.reshape(t_count, -1), axis=1)
    goal = 0.05 * tol.residual_abs
    for _ in range(max_iter):
        live = np.flatnonzero((res_norm > goal) & (lam < 1e14))
        if not live.size:
            break
        x_live = x[live]
        jac = jacobian(*_flat_views(x_live, shapes))
        try:
            step = _lm_step(jac, res[live].reshape(live.size, -1, 1), lam[live], eye)
        except np.linalg.LinAlgError as exc:  # iterates that overflowed
            raise NumericalFailure(
                f"Levenberg-Marquardt system is singular: {exc}") from exc
        tried = x_live + step
        res_try = product(*_flat_views(tried, shapes)) - targets[live]
        norm_try = np.linalg.norm(res_try.reshape(live.size, -1), axis=1)
        better = norm_try < res_norm[live]
        improved, worse = live[better], live[~better]
        x[improved] = tried[better]
        res[improved] = res_try[better]
        res_norm[improved] = norm_try[better]
        lam[improved] = np.maximum(lam[improved] * 0.3, 1e-14)
        lam[worse] *= 10.0
        # an infinite damping ends a trial whose accepted step left 2 * cap
        lam[live[better & (np.linalg.norm(tried, axis=1) > 2.0 * cap)]] = np.inf
    return x, res_norm


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
    is accepted when it reaches ``goals[t]`` in residual norm and ends at
    most ``cap`` in factor norm, ``sqrt(Σ‖block‖²)``, with no accepted
    iterate beyond ``2 * cap`` (``lm_fit`` stops it there); a failing trial
    takes its first accepted round, in order, and keeps its first-fit
    outputs when none is.  So each trial's outputs depend on its target,
    ``seed`` and ``t`` alone and equal, bit for bit, those of a batch of
    one.  Returns (blocks, residual_norms, factor_norms, success).
    """
    max_iter, retry_iter, retry_scales = rounds
    size = sum(math.prod(shape) for shape in shapes)
    x, res_norm = lm_fit(product, jacobian, shapes, np.zeros((len(targets), size)),
                         targets, tol, max_iter, cap)
    factor_norm = _factor_norms(_flat_views(x, shapes))
    success = (res_norm <= goals) & (factor_norm <= cap)
    todo = np.flatnonzero(~success)
    if todo.size and len(retry_scales):
        starts = np.concatenate([
            scale * np.random.default_rng(seed + i).standard_normal((len(targets), size))[todo]
            for i, scale in enumerate(retry_scales, start=1)
        ])
        rows = np.tile(todo, len(retry_scales))
        got, rn = lm_fit(product, jacobian, shapes, starts, targets[rows], tol, retry_iter, cap)
        norm = _factor_norms(_flat_views(got, shapes))
        ok = ((rn <= goals[rows]) & (norm <= cap)).reshape(len(retry_scales), todo.size)
        accepted = ok.any(axis=0)
        # the first accepted round of each accepted trial, as a row of the stack
        pick = ok.argmax(axis=0)[accepted] * todo.size + np.flatnonzero(accepted)
        idx = todo[accepted]
        success[idx] = True
        x[idx] = got[pick]
        res_norm[idx], factor_norm[idx] = rn[pick], norm[pick]
    return _flat_views(x, shapes), res_norm, factor_norm, success
