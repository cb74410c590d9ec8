"""Training-landscape analysis for linear (and pyramidal non-linear)
feedforward networks.

The objective is ``loss(W_h @ ... @ W_1 @ X)`` with squared error against
``Y`` by default.  Critical points are classified through the openness
framework:

* unconstrained stationarity (the loss gradient times ``X.T`` vanishing)
  certifies a global minimum by convexity;
* non-degenerate points (full product rank equal to the smallest layer
  width) inherit local openness of the product chain, so their objective
  is compared against the rank-constrained optimum;
* degenerate critical points get explicit descent or negative-curvature
  directions built from null vectors of the weight stack;
* what remains is probed by seeded sphere sampling.

Weight lists are ordered ``W_h`` first throughout, matching the wire
format.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DirectionConstructionFailed,
    InputError,
    NotConstructible,
    NumericalFailure,
    UnsupportedActivation,
)
from .matrixio import as_matrix
from .numcore import DEFAULT_TOL, null_space, rank, spectrum

GLOBAL_MIN = "GlobalMin"
SECOND_ORDER_SADDLE = "SecondOrderSaddle"
SADDLE_HIGHER_ORDER = "SaddleHigherOrder"
SPURIOUS_LOCAL_MIN = "SpuriousLocalMin"
NOT_CRITICAL = "NotCritical"
INCONCLUSIVE = "Inconclusive"

# inner products below this (relative) size are treated as zero when
# assembling descent chains: report failure rather than guess
_DIRECTION_TOL = 1e-8


class SquaredError:
    """Half squared Frobenius distance to the targets."""

    name = "squared-error"

    def value(self, output, y):
        return 0.5 * float(np.linalg.norm(output - y) ** 2)

    def grad(self, output, y):
        return output - y


@dataclass
class ConvexPlugin:
    """Convex loss supplied as callables ``value(output, y)`` and
    ``grad(output, y)``; squared-error-specific shortcuts (the
    rank-constrained optimum) are disabled for plugins."""

    value_fn: object
    grad_fn: object
    name: str = "plugin"

    def value(self, output, y):
        return float(self.value_fn(output, y))

    def grad(self, output, y):
        return np.asarray(self.grad_fn(output, y), dtype=float)


@dataclass
class NetworkSpec:
    """Layer widths ordered ``(d_h, ..., d_1, d_0)`` plus sample count."""

    dims: tuple
    n_samples: int
    loss: object = field(default_factory=SquaredError)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise InputError("dims must list at least two positive widths")
        if self.n_samples < 1:
            raise InputError("n_samples must be positive")

    @property
    def depth(self):
        return len(self.dims) - 1

    @property
    def min_width(self):
        return min(self.dims)


@dataclass
class NetworkPoint:
    """Weights ordered ``W_h`` first, with input ``x`` and targets ``y``."""

    weights: list
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.weights = [as_matrix(w, f"weights[{i}]") for i, w in enumerate(self.weights)]
        self.x = as_matrix(self.x, "x")
        self.y = as_matrix(self.y, "y")
        for up, low in zip(self.weights, self.weights[1:]):
            if up.shape[1] != low.shape[0]:
                raise InputError("weight chain dimensions do not compose")
        if self.weights[-1].shape[1] != self.x.shape[0]:
            raise InputError("input row count does not match the first layer")
        if self.weights[0].shape[0] != self.y.shape[0]:
            raise InputError("target row count does not match the last layer")
        if self.x.shape[1] != self.y.shape[1]:
            raise InputError("input and target sample counts differ")

    @property
    def depth(self):
        return len(self.weights)

    @property
    def dims(self):
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def layer(self, i):
        """Weight of math layer ``i`` (1-based, ``W_1`` touches ``x``)."""
        return self.weights[self.depth - i]

    def spec(self, loss=None):
        return NetworkSpec(
            dims=self.dims,
            n_samples=self.x.shape[1],
            loss=loss if loss is not None else SquaredError(),
        )


def product_matrix(point):
    mats = list(point.weights)
    if len(mats) == 1:
        return mats[0]
    return np.linalg.multi_dot(mats)


def network_output(point):
    return product_matrix(point) @ point.x


def objective(point, loss=None):
    loss = loss or SquaredError()
    return loss.value(network_output(point), point.y)


def gradient(point, loss=None):
    """Layer gradients, ordered like ``point.weights`` (``W_h`` first)."""
    loss = loss or SquaredError()
    h = point.depth
    g_out = loss.grad(network_output(point), point.y)
    # prefix[i] = W_h ... W_{i+1}; suffix[i] = W_{i-1} ... W_1 @ x
    grads = []
    for i in range(h, 0, -1):
        left = point.weights[: h - i]
        right = point.weights[h - i + 1 :]
        lmat = np.linalg.multi_dot(left) if len(left) > 1 else (
            left[0] if left else np.eye(point.weights[0].shape[0])
        )
        rmats = list(right) + [point.x]
        rmat = np.linalg.multi_dot(rmats) if len(rmats) > 1 else rmats[0]
        grads.append(lmat.T @ g_out @ rmat.T)
    return grads


def gradient_norm(grads):
    return float(np.sqrt(sum(np.linalg.norm(g) ** 2 for g in grads)))


def global_value(spec, x, y, tol=DEFAULT_TOL):
    """Optimal squared-error value over products of admissible rank.

    Reduction: rotate by the SVD of ``x``, split off the constant mass
    outside the input row space, and truncate the reachable block to the
    best approximation of rank ``min(dims)``.
    """
    if not isinstance(spec.loss, SquaredError):
        raise InputError("the rank-constrained optimum is squared-error only")
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    sp = spectrum(x, tol)
    y_rot = y @ sp.v
    reachable = y_rot[:, : sp.rank]
    constant = float(np.linalg.norm(y_rot[:, sp.rank :]) ** 2)
    t = min(spec.min_width, sp.rank)
    sing = np.linalg.svd(reachable, compute_uv=False) if reachable.size else np.zeros(0)
    tail = float(np.sum(sing[t:] ** 2))
    return 0.5 * (tail + constant)


@dataclass
class ProbeReport:
    radii: list
    min_deltas: list
    locally_minimal: bool
    samples: int


# local_min_probe evaluates its samples in row chunks; no stacked array
# of one chunk holds more than this many doubles (2 MiB)
_CHUNK_ELEMENTS = 1 << 18


def _chain_order(p):
    """Association tree in which ``np.linalg.multi_dot`` multiplies the
    matrices of shapes ``p[i] x p[i + 1]``: a leaf is a matrix index, a
    pair a product.  This is numpy's chain-order DP with its float costs
    and strict ``<`` tie-break; for three matrices it reduces to
    ``multi_dot``'s comparison of the two costs, for two to one product."""
    n = len(p) - 1
    cost = [[0.0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for length in range(1, n):
        for i in range(n - length):
            j = i + length
            cost[i][j] = np.inf
            for k in range(i, j):
                q = cost[i][k] + cost[k + 1][j] + p[i] * p[k + 1] * p[j + 1]
                if q < cost[i][j]:
                    cost[i][j], split[i][j] = q, k

    def tree(i, j):
        return i if i == j else (tree(i, split[i][j]), tree(split[i][j] + 1, j))

    return tree(0, n - 1)


def _chain_product(order, mats):
    """Product of ``mats`` (matrices or ``(n, r, c)`` stacks) in ``order``."""
    if isinstance(order, int):
        return mats[order]
    left, right = order
    return np.matmul(_chain_product(left, mats), _chain_product(right, mats))


def _row_dots(a):
    """Each row of ``a`` dotted with itself through BLAS ``ddot``, the
    call ``np.linalg.norm`` makes, so the sums match it bit for bit
    (``einsum`` adds in another order)."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _least_half_squares(norms):
    """The values ``0.5 * float(s ** 2)`` that ``SquaredError.value``
    gives the rows that can hold the least of them, NaN rows left out.
    A numpy scalar ``** 2`` calls libm ``pow``, which lands one step off
    ``s * s`` in about 1 case in 1300, so the least scalar square comes
    from a row whose ``s * s`` is within two steps of the least ``s * s``;
    only those rows are squared the scalar way."""
    sq = norms * norms
    least = np.min(sq, initial=np.inf, where=~np.isnan(sq))
    cut = np.nextafter(np.nextafter(least, np.inf), np.inf)
    return [0.5 * float(s ** 2) for s in norms[sq <= cut]]


def local_min_probe(point, spec=None, tol=DEFAULT_TOL, seed=None, objective_fn=None):
    """Sampled local-minimality check: uniform directions on the
    parameter sphere at each scheduled radius; the verdict is minimal at
    resolution when no sampled value undercuts the base objective by more
    than ``residual_abs``.

    Each radius seeds its own generator with ``[seed, radius index]`` and
    draws ``probe_samples`` standard-normal vectors over all parameters,
    ``W_h`` first, one vector after another; a vector of norm zero is
    skipped and the next one taken.  The draws come in chunks of rows
    sized so that no stacked array exceeds ``_CHUNK_ELEMENTS`` doubles,
    and each chunk is scaled to the sphere, split into ``(rows, *shape)``
    weight stacks and pushed through the chain ``(W_h+D_h)...(W_1+D_1) X``
    with stacked matmuls, in the order ``np.linalg.multi_dot`` picks.  The
    chunk size never changes a result: ``min_deltas`` equal, bit for bit,
    those of evaluating the samples one at a time.  A loss other than
    ``SquaredError`` is evaluated on each sample's slice of the stacked
    product, and ``objective_fn`` once per sample with that sample's
    weights.  Samples whose value is NaN are skipped.

    Raises ``NumericalFailure`` when the objective at the point itself is
    not finite.
    """
    loss = spec.loss if spec is not None else SquaredError()
    weights, x, y = point.weights, point.x, point.y
    if objective_fn is None:
        base = loss.value(np.linalg.multi_dot(weights + [x]), y)
    else:
        base = objective_fn(weights)
    if not np.isfinite(base):
        raise NumericalFailure(f"the objective overflows at this point: {base}")
    sizes = [w.size for w in weights]
    total = sum(sizes)
    p = [w.shape[0] for w in weights] + list(x.shape)
    order = _chain_order(p)
    widest = max([total] + [a * b for i, a in enumerate(p) for b in p[i + 1:]])
    chunk = max(1, _CHUNK_ELEMENTS // widest)
    seed = tol.rng_seed if seed is None else seed
    radii, min_deltas = [], []
    for r_idx, radius in enumerate(tol.probe_radius_schedule):
        rng = np.random.default_rng([seed, r_idx])
        worst, left = np.inf, tol.probe_samples
        while left:
            draws = rng.standard_normal((min(chunk, left), total))
            norms = np.sqrt(_row_dots(draws))
            if not norms.all():
                draws, norms = draws[norms != 0.0], norms[norms != 0.0]
            left -= len(draws)
            draws *= (radius / norms)[:, None]
            cols = np.split(draws, np.cumsum(sizes)[:-1], axis=1)
            stacks = [w + d.reshape(len(d), *w.shape) for w, d in zip(weights, cols)]
            if objective_fn is not None:
                vals = [objective_fn([s[i] for s in stacks]) for i in range(len(draws))]
            else:
                prod = _chain_product(order, stacks + [x])
                if isinstance(loss, SquaredError):
                    resid = (prod - y).reshape(len(prod), y.size)
                    vals = _least_half_squares(np.sqrt(_row_dots(resid)))
                else:
                    vals = [loss.value(out, y) for out in prod]
            deltas = np.asarray(vals, dtype=float) - base
            worst = min(worst, np.min(deltas, initial=np.inf, where=~np.isnan(deltas)))
        radii.append(float(radius))
        min_deltas.append(float(worst))
    minimal = all(d >= -tol.residual_abs for d in min_deltas)
    return ProbeReport(
        radii=radii, min_deltas=min_deltas, locally_minimal=minimal,
        samples=tol.probe_samples,
    )


@dataclass
class DirectionTuple:
    directions: list
    order: int
    step: float
    construction_case: str
    decrease: float


@dataclass
class ClassificationReport:
    status: str
    degenerate: bool
    gradient_norm: float
    objective: float
    global_value: float | None
    descent_direction: DirectionTuple | None
    certificates: list


def _objective_along(point, loss, dirs, t):
    mats = [w + t * d for w, d in zip(point.weights, dirs)] + [point.x]
    prod = np.linalg.multi_dot(mats) if len(mats) > 1 else mats[0]
    return loss.value(prod, point.y)


def _verify_descent(point, loss, dirs, order, case, tol, max_halvings=60):
    base = objective(point, loss)
    t = 1.0
    for _ in range(max_halvings):
        val = _objective_along(point, loss, dirs, t)
        if val < base - tol.residual_abs:
            return DirectionTuple(
                directions=dirs,
                order=order,
                step=t,
                construction_case=case,
                decrease=float(base - val),
            )
        t *= 0.5
    return None


def _unit_columns(basis):
    return [basis.columns[:, i] for i in range(basis.dim)]


def _best_pair(basis_a, basis_b):
    """Unit vectors maximizing the absolute inner product between two
    subspaces, with the achieved value."""
    if basis_a.dim == 0 or basis_b.dim == 0:
        return None
    gram = basis_a.columns.T @ basis_b.columns
    u, s, vt = np.linalg.svd(gram)
    if s.size == 0 or s[0] < _DIRECTION_TOL:
        return None
    return basis_a.columns @ u[:, 0], basis_b.columns @ vt[0], float(s[0])


def _subspaces_orthogonal(basis_a, basis_b):
    if basis_a.dim == 0 or basis_b.dim == 0:
        return True
    gram = basis_a.columns.T @ basis_b.columns
    return float(np.linalg.norm(gram, 2)) <= _DIRECTION_TOL


def _prod_layers(point, hi, lo):
    """``W_hi @ ... @ W_lo`` for math layers; identity-free, requires
    ``hi >= lo``."""
    mats = [point.layer(i) for i in range(hi, lo - 1, -1)]
    return np.linalg.multi_dot(mats) if len(mats) > 1 else mats[0]


def _data_indices(g_x):
    j, i = np.unravel_index(np.argmax(np.abs(g_x)), g_x.shape)
    return int(i), int(j)


def _choose_alphas(point, loss, dirs, q, primary_idx, secondary_idx, t1, t2, tol):
    """Fix the two free scalars so the leading surviving term of the loss
    expansion is strictly negative, then verify by backtracking."""
    g_mat = loss.grad(network_output(point), point.y)
    scale = max(1.0, np.linalg.norm(t1) * np.linalg.norm(g_mat))
    v1 = float(np.sum(t1 * g_mat))
    if primary_idx is not None and abs(v1) > 1e-9 * scale:
        sign = -np.sign(v1)
        out = list(dirs)
        out[primary_idx] = sign * out[primary_idx]
        return out, q
    # leading term vanishes; push the next order negative with the
    # secondary scalar, inflating past the curvature constant when the
    # two orders collide
    v2 = float(np.sum(t2 * g_mat))
    scale2 = max(1.0, np.linalg.norm(t2) * np.linalg.norm(g_mat))
    if abs(v2) <= 1e-9 * scale2:
        return None, None
    c_alpha = 0.0
    if q == 1:
        if isinstance(loss, SquaredError):
            c_alpha = 0.5 * float(np.linalg.norm(t1) ** 2)
        else:
            out_base = network_output(point)
            h_step = 1e-4 / max(1.0, np.linalg.norm(t1))
            c_alpha = 0.5 * abs(
                loss.value(out_base + h_step * t1, point.y)
                + loss.value(out_base - h_step * t1, point.y)
                - 2 * loss.value(out_base, point.y)
            ) / h_step**2
    alpha = -np.sign(v2) * 2.0 * (c_alpha + 1.0) / abs(v2)
    out = list(dirs)
    out[secondary_idx] = alpha * out[secondary_idx]
    return out, q + 1


def _two_layer_direction(point, loss, g_x, tol):
    """Negative-curvature direction at a degenerate two-layer critical
    point, built from a null vector of the top factor (or of the bottom
    factor transposed) and the data pair with the largest coupling."""
    w2, w1 = point.weights
    i_idx, j_idx = _data_indices(g_x)
    d2, d1 = w2.shape
    d0 = w1.shape[1]
    attempts = []
    nb2 = null_space(w2, tol)
    if nb2.dim > 0:
        attempts.append(("TwoLayerNullW2", nb2.columns[:, 0]))
    nb1 = null_space(w1.T, tol)
    if nb1.dim > 0:
        attempts.append(("TwoLayerNullW1T", nb1.columns[:, 0]))
    for case, vec in attempts:
        if case == "TwoLayerNullW2":
            a_mat = np.zeros((d2, d1))
            a_mat[j_idx, :] = vec
            b_mat = np.zeros((d1, d0))
            b_mat[:, i_idx] = vec
            t1 = a_mat @ w1 @ point.x  # w2 @ b_mat vanishes: b columns in N(w2)
        else:
            a_mat = np.zeros((d2, d1))
            a_mat[j_idx, :] = vec
            b_mat = np.zeros((d1, d0))
            b_mat[:, i_idx] = vec
            t1 = w2 @ b_mat @ point.x  # a_mat @ w1 vanishes: rows in N(w1^T)
        t2 = a_mat @ b_mat @ point.x
        dirs, order = _choose_alphas(
            point, loss, [a_mat, b_mat], 1, None,
            1 if case == "TwoLayerNullW2" else 0, t1, t2, tol,
        )
        if dirs is None:
            continue
        found = _verify_descent(point, loss, dirs, order, case, tol)
        if found is not None:
            return found
    return None


def _chain_pairs(point, ks, p_space, b_space):
    """Select ``(p_k, b_{k-1})`` with non-vanishing inner product for each
    required chain index; None when any coupling falls below tolerance."""
    pairs = {}
    for k in ks:
        got = _best_pair(p_space(k), b_space(k))
        if got is None:
            return None
        pairs[k] = got
    return pairs


def _deep_direction_right(point, loss, g_x, tol):
    """Descent construction hinging on a null vector of the top layer."""
    h = point.depth
    i_idx, j_idx = _data_indices(g_x)
    dims = point.dims
    x = point.x

    def w(i):
        return point.layer(i)

    null_w = {k: null_space(w(k), tol) for k in range(2, h + 1)}
    if null_w[h].dim == 0:
        return None
    k_set = []
    for k in range(3, h + 1):
        if null_w[k].dim == 0:
            continue
        mid = _prod_layers(point, k - 1, 2)
        if _subspaces_orthogonal(null_w[k], null_space(mid.T, tol)):
            k_set.append(k)

    if k_set:
        kstar = max(k_set)
        mid = _prod_layers(point, kstar - 1, 2) if kstar >= 3 else None
        # b: a null vector of W_{k*} inside the column space of the
        # interior product (all of it, when the product has full row rank)
        left_null = null_space(mid.T, tol)
        if left_null.dim == 0:
            b_vec = null_w[kstar].columns[:, 0]
        else:
            proj = mid @ np.linalg.pinv(mid)
            cands = proj @ null_w[kstar].columns
            norms = np.linalg.norm(cands, axis=0)
            best = int(np.argmax(norms))
            if norms[best] < _DIRECTION_TOL:
                return None
            b_vec = cands[:, best] / norms[best]
        b1, *_ = np.linalg.lstsq(mid, b_vec, rcond=None)
        pairs = _chain_pairs(
            point,
            range(kstar + 1, h + 1),
            lambda k: null_space(_prod_layers(point, k - 1, 2).T, tol),
            lambda k: null_w[k],
        )
        if pairs is None:
            return None
        dirs = [np.zeros_like(m) for m in point.weights]
        if kstar == h:
            a_h = np.zeros(w(h).shape)
            a_h[j_idx, :] = b_vec
            dirs[0] = a_h
        else:
            a_h = np.zeros(w(h).shape)
            a_h[j_idx, :] = pairs[h][0]
            dirs[0] = a_h
            for k in range(kstar + 1, h):
                dirs[h - k] = np.outer(pairs[k + 1][1], pairs[k][0])
            dirs[h - kstar] = np.outer(pairs[kstar + 1][1], b_vec)
        a_1 = np.zeros(w(1).shape)
        a_1[:, i_idx] = b1
        dirs[h - 1] = a_1
        case = "DeepCaseA"
        q = h - kstar + 1
        top_chain = [dirs[h - k] for k in range(h, kstar - 1, -1)]
    else:
        pairs = _chain_pairs(
            point,
            range(3, h + 1),
            lambda k: null_space(_prod_layers(point, k - 1, 2).T, tol),
            lambda k: null_w[k],
        )
        if pairs is None or null_w[2].dim == 0:
            return None
        b1 = null_w[2].columns[:, 0]
        dirs = [np.zeros_like(m) for m in point.weights]
        a_h = np.zeros(w(h).shape)
        a_h[j_idx, :] = pairs[h][0]
        dirs[0] = a_h
        for k in range(3, h):
            dirs[h - k] = np.outer(pairs[k + 1][1], pairs[k][0])
        dirs[h - 2] = np.outer(pairs[3][1], b1)
        a_1 = np.zeros(w(1).shape)
        a_1[:, i_idx] = b1
        dirs[h - 1] = a_1
        case = "DeepCaseB"
        kstar = 2
        q = h - 1
        top_chain = [dirs[h - k] for k in range(h, 1, -1)]

    # surviving terms: the all-direction top chain against the remaining
    # weights, with and without the bottom direction
    lower = [w(i) for i in range(kstar - 1, 0, -1)]
    t1_mats = top_chain + lower + [x]
    t1 = np.linalg.multi_dot(t1_mats) if len(t1_mats) > 1 else t1_mats[0]
    lower2 = [w(i) for i in range(kstar - 1, 1, -1)]
    t2_mats = top_chain + lower2 + [dirs[h - 1], x]
    t2 = np.linalg.multi_dot(t2_mats)
    chosen, order = _choose_alphas(point, loss, dirs, q, 0, h - 1, t1, t2, tol)
    if chosen is None:
        return None
    return _verify_descent(point, loss, chosen, order, case, tol)


def _deep_direction_left(point, loss, g_x, tol):
    """Mirror construction hinging on a left-null vector of the bottom
    layer."""
    h = point.depth
    i_idx, j_idx = _data_indices(g_x)
    x = point.x

    def w(i):
        return point.layer(i)

    null_wt = {k: null_space(w(k).T, tol) for k in range(1, h)}
    if null_wt[1].dim == 0:
        return None
    k_set = []
    for k in range(1, h - 1):
        if null_wt[k].dim == 0:
            continue
        mid = _prod_layers(point, h - 1, k + 1)
        if _subspaces_orthogonal(null_space(mid, tol), null_wt[k]):
            k_set.append(k)

    if k_set:
        kstar = min(k_set)
        mid = _prod_layers(point, h - 1, kstar + 1)
        right_null = null_space(mid, tol)
        if right_null.dim == 0:
            p_vec = null_wt[kstar].columns[:, 0]
        else:
            # p must lie in the row space of the interior product
            proj = np.linalg.pinv(mid) @ mid
            cands = proj @ null_wt[kstar].columns
            norms = np.linalg.norm(cands, axis=0)
            best = int(np.argmax(norms))
            if norms[best] < _DIRECTION_TOL:
                return None
            p_vec = cands[:, best] / norms[best]
        p_h, *_ = np.linalg.lstsq(mid.T, p_vec, rcond=None)
        pairs = _chain_pairs(
            point,
            range(2, kstar + 1),
            lambda k: null_wt[k - 1],
            lambda k: null_space(_prod_layers(point, h - 1, k), tol),
        )
        if pairs is None:
            return None
        dirs = [np.zeros_like(m) for m in point.weights]
        a_h = np.zeros(w(h).shape)
        a_h[j_idx, :] = p_h
        dirs[0] = a_h
        if kstar == 1:
            a_1 = np.zeros(w(1).shape)
            a_1[:, i_idx] = p_vec
            dirs[h - 1] = a_1
        else:
            for k in range(2, kstar):
                dirs[h - k] = np.outer(pairs[k + 1][1], pairs[k][0])
            dirs[h - kstar] = np.outer(p_vec, pairs[kstar][0])
            a_1 = np.zeros(w(1).shape)
            a_1[:, i_idx] = pairs[2][1]
            dirs[h - 1] = a_1
        case = "DeepCaseA_left"
        q = kstar
        bottom_chain = [dirs[h - k] for k in range(kstar, 0, -1)]
        upper = [w(i) for i in range(h, kstar, -1)]
        t1_mats = upper + bottom_chain + [x]
        t2_mats = [dirs[0]] + [w(i) for i in range(h - 1, kstar, -1)] + bottom_chain + [x]
    else:
        pairs = _chain_pairs(
            point,
            range(2, h),
            lambda k: null_wt[k - 1],
            lambda k: null_space(_prod_layers(point, h - 1, k), tol),
        )
        if pairs is None or null_wt[h - 1].dim == 0:
            return None
        p_h = null_wt[h - 1].columns[:, 0]
        dirs = [np.zeros_like(m) for m in point.weights]
        a_h = np.zeros(w(h).shape)
        a_h[j_idx, :] = p_h
        dirs[0] = a_h
        dirs[1] = np.outer(p_h, pairs[h - 1][0])
        for k in range(2, h - 1):
            dirs[h - k] = np.outer(pairs[k + 1][1], pairs[k][0])
        a_1 = np.zeros(w(1).shape)
        a_1[:, i_idx] = pairs[2][1]
        dirs[h - 1] = a_1
        case = "DeepCaseB_left"
        q = h - 1
        bottom_chain = [dirs[h - k] for k in range(h - 1, 0, -1)]
        t1_mats = [w(h)] + bottom_chain + [x]
        t2_mats = [dirs[0]] + bottom_chain + [x]

    t1 = np.linalg.multi_dot(t1_mats)
    t2 = np.linalg.multi_dot(t2_mats)
    chosen, order = _choose_alphas(point, loss, dirs, q, h - 1, 0, t1, t2, tol)
    if chosen is None:
        return None
    return _verify_descent(point, loss, chosen, order, case, tol)


def classify(point, spec=None, tol=DEFAULT_TOL, seed=None):
    """Classify a training point of the linear-network objective."""
    spec = spec if spec is not None else point.spec()
    loss = spec.loss
    certificates = []
    obj = objective(point, loss)
    grads = gradient(point, loss)
    gnorm = gradient_norm(grads)
    if not (np.isfinite(obj) and np.isfinite(gnorm)):
        raise NumericalFailure(
            f"the objective or its gradient overflows at this point: "
            f"objective {obj}, gradient norm {gnorm}"
        )
    squared = isinstance(loss, SquaredError)
    gv = global_value(spec, point.x, point.y, tol) if squared else None

    def report(status, direction=None):
        return ClassificationReport(
            status=status,
            degenerate=degenerate,
            gradient_norm=gnorm,
            objective=obj,
            global_value=gv,
            descent_direction=direction,
            certificates=certificates,
        )

    prod_rank = rank(product_matrix(point), tol)
    degenerate = prod_rank < spec.min_width
    if gnorm > tol.grad_abs:
        certificates.append({"check": "criticality", "passed": False, "value": gnorm})
        return report(NOT_CRITICAL)
    certificates.append({"check": "criticality", "passed": True, "value": gnorm})

    g_mat = loss.grad(network_output(point), point.y)
    g_x = g_mat @ point.x.T
    stat = float(np.linalg.norm(g_x))
    certificates.append(
        {"check": "unconstrained-stationarity", "passed": stat <= tol.grad_abs,
         "value": stat}
    )
    if stat <= tol.grad_abs:
        return report(GLOBAL_MIN)
    if gv is not None and obj <= gv + tol.residual_abs:
        certificates.append(
            {"check": "achieves-constrained-optimum", "passed": True,
             "value": obj - gv}
        )
        return report(GLOBAL_MIN)

    if not degenerate:
        certificates.append(
            {"check": "non-degenerate-openness", "passed": True,
             "value": prod_rank}
        )
        probe = local_min_probe(point, spec, tol, seed=seed)
        certificates.append(
            {"check": "local-min-probe", "passed": probe.locally_minimal,
             "value": probe.min_deltas}
        )
        # a non-degenerate critical point strictly above the constrained
        # optimum cannot be a local minimum; without a constructive
        # direction the verdict stays inconclusive
        return report(INCONCLUSIVE)

    h = point.depth
    direction = None
    if h == 2:
        direction = _two_layer_direction(point, loss, g_x, tol)
        if direction is not None:
            return report(SECOND_ORDER_SADDLE, direction)
    elif h >= 3:
        direction = _deep_direction_right(point, loss, g_x, tol)
        if direction is None:
            direction = _deep_direction_left(point, loss, g_x, tol)
        if direction is not None:
            return report(SADDLE_HIGHER_ORDER, direction)

    probe = local_min_probe(point, spec, tol, seed=seed)
    certificates.append(
        {"check": "local-min-probe", "passed": probe.locally_minimal,
         "value": probe.min_deltas}
    )
    if probe.locally_minimal and gv is not None:
        gap = obj - gv
        if gap > max(100.0 * tol.residual_abs, 1e-8 * (1.0 + abs(gv))):
            certificates.append(
                {"check": "objective-gap", "passed": True, "value": gap}
            )
            return report(SPURIOUS_LOCAL_MIN)
    return report(INCONCLUSIVE)


def admissible_width_pair(dims):
    """First layer pair ``(p1, p2)``, ``0 < p1 < p2 < h``, with input
    width ``d_0 > d_{p1}`` and output width ``d_h > d_{p2}`` (``dims``
    lists widths output first, so ``d_i = dims[h - i]``), or ``None``."""
    h = len(dims) - 1
    for p1 in range(1, h - 1):
        if dims[h] <= dims[h - p1]:
            continue
        for p2 in range(p1 + 1, h):
            if dims[0] > dims[h - p2]:
                return p1, p2
    return None


def counterexample_factory(dims, tol=DEFAULT_TOL):
    """Instance with a non-global basin: identity input, a single far
    corner target, identity-padded outer layers and zeroed middle layers
    between an admissible width pair.

    Requires widths ``p1 < p2`` strictly inside the chain with
    ``d_h > d_{p2}`` and ``d_0 > d_{p1}``; otherwise no such instance
    exists for any data and ``NotConstructible`` is raised.
    """
    dims = tuple(int(d) for d in dims)
    h = len(dims) - 1
    if h < 1 or any(d < 1 for d in dims):
        raise InputError("dims must list positive widths, output first")

    def d(i):
        return dims[h - i]

    chosen = admissible_width_pair(dims)
    if chosen is None:
        raise NotConstructible(
            "no width pair admits a non-global basin: every local minimum "
            "of this architecture is global for all data"
        )
    p1, p2 = chosen
    x = np.eye(d(0))
    y = np.zeros((d(h), d(0)))
    y[-1, -1] = 1.0
    weights = []
    for i in range(h, 0, -1):
        rows, cols = d(i), d(i - 1)
        if p1 + 1 <= i <= p2:
            weights.append(np.zeros((rows, cols)))
        else:
            pad = np.zeros((rows, cols))
            m = min(rows, cols)
            pad[:m, :m] = np.eye(m)
            weights.append(pad)
    point = NetworkPoint(weights=weights, x=x, y=y)
    grads = gradient(point)
    if gradient_norm(grads) > 1e-12:
        raise NotConstructible("constructed point is not critical")
    return x, y, point


def rank_deficient_y_fixture():
    """Hard-coded three-layer regression fixture whose target rank
    exceeds the width-gap bound yet a non-global basin persists."""
    x = np.eye(3)
    y = np.array([[1.0, 0.0, -1.0], [0.0, 4.0, 0.0], [-1.0, 0.0, 1.0]])
    w3 = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, -1.0]])
    w2 = np.array([[1.0, 1.0], [1.0, 1.0]])
    w1 = w3.T.copy()
    point = NetworkPoint(weights=[w3, w2, w1], x=x, y=y)
    return x, y, point


# -- pyramidal non-linear networks ------------------------------------------


@dataclass
class ActivationSpec:
    """Componentwise activation; must be continuous and strictly
    monotone (``leaky_relu`` requires a positive slope)."""

    kind: str
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in ("identity", "leaky_relu", "tanh", "logistic"):
            raise UnsupportedActivation(f"unsupported activation {self.kind!r}")
        if self.kind == "leaky_relu" and self.slope <= 0:
            raise UnsupportedActivation(
                "leaky_relu slope must be positive to stay strictly monotone"
            )

    def apply(self, arr):
        if self.kind == "identity":
            return arr
        if self.kind == "leaky_relu":
            return np.where(arr >= 0, arr, self.slope * arr)
        if self.kind == "tanh":
            return np.tanh(arr)
        return 1.0 / (1.0 + np.exp(-arr))


def forward_nonlinear(weights, x, activations):
    """Evaluate the network with componentwise activations; weights are
    ordered ``W_h`` first, activations ``sigma_1`` first."""
    if len(activations) != len(weights):
        raise InputError("need one activation per layer")
    out = x
    for w, act in zip(reversed(weights), activations):
        out = act.apply(w @ out)
    return out


@dataclass
class PyramidalCertificate:
    pyramidal_structure: bool
    full_row_rank: list
    x_full_column_rank: bool
    locally_open: bool
    local_minima_global: bool


def pyramidal_check(point, activations, tol=DEFAULT_TOL):
    """Certify local openness of the non-linear forward map at a point of
    a pyramidal network with strictly monotone activations; with a convex
    loss, any local minimum under the certificate is global."""
    for act in activations:
        if not isinstance(act, ActivationSpec):
            raise InputError("activations must be ActivationSpec instances")
    if len(activations) != point.depth:
        raise InputError("need one activation per layer")
    dims = point.dims
    n = point.x.shape[1]
    widths_ok = all(dims[i] <= dims[i + 1] for i in range(len(dims) - 1))
    structure = widths_ok and dims[-1] > n
    row_rank = [rank(w, tol) == w.shape[0] for w in point.weights]
    x_rank = rank(point.x, tol) == n
    open_here = structure and all(row_rank) and x_rank
    return PyramidalCertificate(
        pyramidal_structure=structure,
        full_row_rank=row_rank,
        x_full_column_rank=x_rank,
        locally_open=open_here,
        local_minima_global=open_here,
    )


# -- plain gradient descent ---------------------------------------------------


@dataclass
class GDResult:
    point: NetworkPoint
    converged: bool
    iterations: int
    objective: float
    gradient_norm: float


def run_gradient_descent(point, spec=None, tol=DEFAULT_TOL, max_iter=100000,
                         plateau=1500):
    """Backtracking gradient descent until the gradient norm falls below
    ``grad_abs``.

    Near a minimum the per-step objective decrease drops under float
    resolution while the gradient still contracts, so the sufficient
    decrease test carries a rounding slack and stalling is judged on the
    gradient norm: no measurable contraction over ``plateau`` iterations
    stops early with a non-converged verdict.
    """
    from .numcore import EPS

    spec = spec if spec is not None else point.spec()
    loss = spec.loss
    current = NetworkPoint([w.copy() for w in point.weights], point.x, point.y)
    obj = objective(current, loss)
    eta = 0.1
    stall = 0
    best_gnorm = np.inf
    gnorm = np.inf
    it = 0
    while it < max_iter:
        grads = gradient(current, loss)
        gnorm = gradient_norm(grads)
        if gnorm <= tol.grad_abs:
            return GDResult(current, True, it, obj, gnorm)
        if gnorm < 0.999 * best_gnorm:
            best_gnorm = gnorm
            stall = 0
        else:
            stall += 1
            if stall >= plateau:
                return GDResult(current, False, it, obj, gnorm)
        slack = 8.0 * EPS * abs(obj)
        accepted = False
        for _ in range(60):
            trial = [w - eta * g for w, g in zip(current.weights, grads)]
            trial_pt = NetworkPoint(trial, point.x, point.y)
            val = objective(trial_pt, loss)
            if val <= obj - 1e-4 * eta * gnorm**2 + slack:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            return GDResult(current, False, it, obj, gnorm)
        current, obj = trial_pt, val
        eta = min(eta * 1.5, 1e6)
        it += 1
    grads = gradient(current, loss)
    gnorm = gradient_norm(grads)
    return GDResult(current, gnorm <= tol.grad_abs, it, obj, gnorm)
