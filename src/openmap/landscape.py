"""Training-landscape analysis for linear feedforward networks.

The objective is half the squared Frobenius distance between
``W_h @ ... @ W_1 @ X`` and ``Y``, under which every local minimum is
global (the paper's two-layer result; Zhang 2019, arXiv:1901.09827, at
every depth).  Critical points are classified through the openness
framework:

* unconstrained stationarity (the residual times ``X.T`` vanishing)
  certifies a global minimum by convexity;
* non-degenerate points (full product rank equal to the smallest layer
  width) inherit local openness of the product chain, so their objective
  is compared against the rank-constrained optimum;
* degenerate critical points of every depth get a descent direction
  from one chain construction on null vectors of the weight stack;
* what remains is ``Inconclusive``, with a seeded sphere probe attached.

Entry points take a ``NetworkPoint``, the one input check, which carries
its own widths; ``product_matrix``, ``objective`` and ``gradient`` work on
checked weight lists.  Weight lists are ordered ``W_h`` first throughout,
matching the wire format.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotConstructible, NumericalFailure
from .matrixio import as_matrix
from .numcore import DEFAULT_TOL, EPS, _row_dots, null_space, rank, spectrum

GLOBAL_MIN = "GlobalMin"
SECOND_ORDER_SADDLE = "SecondOrderSaddle"
SADDLE_HIGHER_ORDER = "SaddleHigherOrder"
# never a verdict; sweeps count it to show it stays at zero
SPURIOUS_LOCAL_MIN = "SpuriousLocalMin"
NOT_CRITICAL = "NotCritical"
INCONCLUSIVE = "Inconclusive"

# inner products below this (relative) size are treated as zero when
# assembling descent chains: report failure rather than guess
_DIRECTION_TOL = 1e-8
# step halvings before _verify_descent gives a direction up
_MAX_HALVINGS = 60
# iterations without a 0.1% gradient contraction before the descent stops:
# along the rescaling symmetry (W_2, W_1) -> (c W_2, W_1 / c) the
# quasi-Newton steps can drift with the gradient norm growing, and only
# this exit ends such a run short of max_iter
_PLATEAU = 1500
# curvature pairs kept by the L-BFGS two-loop recursion
_HISTORY = 10
# length of a steepest-descent step, relative to the gradient, taken
# before the first curvature pair and after a history reset
_STEEPEST_STEP = 0.1


@dataclass
class NetworkPoint:
    """Weights ordered ``W_h`` first, with input ``x`` and targets ``y``:
    at least one weight, every width and the sample count positive."""

    weights: list
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.weights = [as_matrix(w, f"weights[{i}]") for i, w in enumerate(self.weights)]
        self.x = as_matrix(self.x, "x")
        self.y = as_matrix(self.y, "y")
        if not (self.weights and self.x.size and all(w.size for w in self.weights)):
            raise InputError("a network needs a layer, positive widths and samples")
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


def product_matrix(mats):
    """Product of a non-empty matrix list, associated as ``multi_dot``
    associates it."""
    return mats[0] if len(mats) == 1 else np.linalg.multi_dot(mats)


def _forward(weights, x):
    """``[x, W_1 x, ..., W_h ... W_1 x]``: the layers applied bottom up."""
    acts = [x]
    for w in reversed(weights):
        acts.append(w @ acts[-1])
    return acts


def _loss(output, y):
    """Half the squared Frobenius distance to the targets; its gradient in
    ``output`` is the residual ``output - y``."""
    return 0.5 * float(np.linalg.norm(output - y) ** 2)


def _backward(weights, acts, g_out):
    """Layer gradients, ``W_h`` first, from ``_forward``'s activations and
    the residual ``g_out`` at the output, carried down as ``W^T g``."""
    grads = [g_out @ acts[-2].T]
    for w, a in zip(weights, reversed(acts[:-2])):
        g_out = w.T @ g_out
        grads.append(g_out @ a.T)
    return grads


def objective(weights, x, y):
    return _loss(_forward(weights, x)[-1], y)


def gradient(weights, x, y):
    """Layer gradients, ordered like ``weights`` (``W_h`` first)."""
    acts = _forward(weights, x)
    return _backward(weights, acts, acts[-1] - y)


def _flat(mats):
    return np.concatenate([m.ravel() for m in mats])


def gradient_norm(grads):
    """Norm of the layer gradients taken as one flat vector."""
    return float(np.linalg.norm(_flat(grads)))


def global_value(width, x, y, tol=DEFAULT_TOL):
    """Optimal squared-error value over products of rank at most
    ``width``, the narrowest layer of the network.

    Reduction: rotate by the SVD of ``x``, split off the constant mass
    outside the input row space, and truncate the reachable block to the
    best approximation of rank ``width``.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    sp = spectrum(x, tol)
    y_rot = y @ sp.v
    reachable = y_rot[:, : sp.rank]
    constant = float(np.linalg.norm(y_rot[:, sp.rank :]) ** 2)
    t = min(width, sp.rank)
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


def _least_half_squares(norms):
    """The values ``0.5 * float(s ** 2)`` that ``_loss`` gives the rows
    that can hold the least of them, NaN rows left out.  A numpy scalar
    ``** 2`` calls libm ``pow``, which lands one step off ``s * s`` in
    about 1 case in 1300, so the least scalar square comes from a row
    whose ``s * s`` is within two steps of the least ``s * s``; only those
    rows are squared the scalar way."""
    sq = norms * norms
    least = np.min(sq, initial=np.inf, where=~np.isnan(sq))
    cut = np.nextafter(np.nextafter(least, np.inf), np.inf)
    return [0.5 * float(s ** 2) for s in norms[sq <= cut]]


def local_min_probe(point, tol=DEFAULT_TOL, seed=0):
    """Sampled local-minimality check of the objective: uniform directions
    on the parameter sphere at each scheduled radius; the verdict is
    minimal at resolution when no sampled value undercuts the base
    objective by more than ``residual_abs`` and every radius had a finite
    sample.

    Each radius seeds its own generator with ``[seed, radius index]`` and
    draws ``probe_samples`` standard-normal vectors over all parameters,
    ``W_h`` first, one vector after another; a vector of norm zero is
    skipped and the next one taken.  The draws come in chunks of rows
    sized so that no stacked array exceeds ``_CHUNK_ELEMENTS`` doubles,
    and each chunk is scaled to the sphere, split into ``(rows, *shape)``
    weight stacks and pushed through ``_forward``, whose matmuls broadcast
    the stacks against ``X``; the base is ``_forward`` at the point, so
    ``min_deltas`` are measured from the value ``objective`` gives.  The
    chunk size never changes a result: ``min_deltas`` equal, bit for bit,
    those of evaluating ``objective`` on the samples one at a time.
    Samples whose value is NaN are skipped.

    Raises ``NumericalFailure`` when the objective at the point itself is
    not finite.
    """
    weights, x, y = point.weights, point.x, point.y
    base = _loss(_forward(weights, x)[-1], y)
    if not np.isfinite(base):
        raise NumericalFailure(f"the objective overflows at this point: {base}")
    sizes = [w.size for w in weights]
    total = sum(sizes)
    widest = max([total] + [w.shape[0] * x.shape[1] for w in weights])
    chunk = max(1, _CHUNK_ELEMENTS // widest)
    radii, min_deltas = [], []
    for r_idx, radius in enumerate(tol.probe_radius_schedule):
        rng = np.random.default_rng([seed, r_idx])
        least, left = np.inf, tol.probe_samples
        while left:
            draws = rng.standard_normal((min(chunk, left), total))
            norms = np.sqrt(_row_dots(draws))
            if not norms.all():
                draws, norms = draws[norms != 0.0], norms[norms != 0.0]
            left -= len(draws)
            draws *= (radius / norms)[:, None]
            cols = np.split(draws, np.cumsum(sizes)[:-1], axis=1)
            stacks = [w + d.reshape(len(d), *w.shape) for w, d in zip(weights, cols)]
            resid = (_forward(stacks, x)[-1] - y).reshape(len(draws), y.size)
            least = min([least, *_least_half_squares(np.sqrt(_row_dots(resid)))])
        radii.append(float(radius))
        # rounding is monotone, so this is the least of the sample deltas
        min_deltas.append(float(least - base))
    # a radius without one finite sample gives no evidence of minimality
    minimal = all(-tol.residual_abs <= d < np.inf for d in min_deltas)
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
    global_value: float
    descent_direction: DirectionTuple | None
    certificates: list


def _verify_descent(point, base, dirs, order, case, tol):
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        moved = [w + t * d for w, d in zip(point.weights, dirs)]
        val = objective(moved, point.x, point.y)
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


def _best_pair(basis_a, basis_b):
    """Unit vectors maximizing the absolute inner product between two
    subspaces, with the achieved value; None when they are orthogonal."""
    if basis_a.shape[1] == 0 or basis_b.shape[1] == 0:
        return None
    u, s, vt = np.linalg.svd(basis_a.T @ basis_b)
    if s[0] < _DIRECTION_TOL:
        return None
    return basis_a @ u[:, 0], basis_b @ vt[0], float(s[0])


def _data_indices(g_x):
    j, i = np.unravel_index(np.argmax(np.abs(g_x)), g_x.shape)
    return int(i), int(j)


def _choose_alphas(g_mat, dirs, q, primary_idx, secondary_idx, t1, t2):
    """Fix the two free scalars so the leading surviving term of the
    objective's expansion, against the residual ``g_mat`` at the point, is
    strictly negative."""
    scale = max(1.0, np.linalg.norm(t1) * np.linalg.norm(g_mat))
    v1 = float(np.sum(t1 * g_mat))
    if primary_idx is not None and abs(v1) > 1e-9 * scale:
        sign = -np.sign(v1)
        scaled = list(dirs)
        scaled[primary_idx] = sign * scaled[primary_idx]
        return scaled, q
    # leading term vanishes; push the next order negative with the
    # secondary scalar, inflating past the curvature constant when the
    # two orders collide
    v2 = float(np.sum(t2 * g_mat))
    scale2 = max(1.0, np.linalg.norm(t2) * np.linalg.norm(g_mat))
    if abs(v2) <= 1e-9 * scale2:
        return None, None
    c_alpha = 0.5 * float(np.linalg.norm(t1) ** 2) if q == 1 else 0.0
    alpha = -np.sign(v2) * 2.0 * (c_alpha + 1.0) / abs(v2)
    scaled = list(dirs)
    scaled[secondary_idx] = alpha * scaled[secondary_idx]
    return scaled, q + 1


def _deep_chain(weights, i_idx, j_idx, tol):
    """Descent chain hinging on a null vector of the top layer of
    ``weights`` (``W_h`` first).  Returns the directions, ordered like
    ``weights``, the case name and the order ``q`` of the leading
    surviving term, whose top chain is the first ``q`` directions; or
    None."""
    h = len(weights)
    null_w = {k: null_space(weights[h - k], tol) for k in range(2, h + 1)}
    if null_w[h].shape[1] == 0:
        return None
    # for each chain index, the left null space of the interior product
    # and the best-coupled (p_k, b_{k-1}) pair, None below tolerance
    p_null = {k: null_space(product_matrix(weights[h - k + 1 : h - 1]).T, tol)
              for k in range(3, h + 1)}
    pairs = {k: _best_pair(p_null[k], null_w[k]) for k in p_null}
    k_set = [k for k in pairs if null_w[k].shape[1] > 0 and pairs[k] is None]
    if k_set:
        kstar = max(k_set)
        mid = product_matrix(weights[h - kstar + 1 : h - 1])
        # b: a null vector of W_{k*} inside the column space of the
        # interior product (all of it, when the product has full row rank)
        if p_null[kstar].shape[1] == 0:
            b_vec = null_w[kstar][:, 0]
        else:
            cands = mid @ np.linalg.pinv(mid) @ null_w[kstar]
            norms = np.linalg.norm(cands, axis=0)
            best = int(np.argmax(norms))
            if norms[best] < _DIRECTION_TOL:
                return None
            b_vec = cands[:, best] / norms[best]
        b1, *_ = np.linalg.lstsq(mid, b_vec, rcond=None)
        case = "DeepCaseA"
    else:
        kstar = 2
        if null_w[2].shape[1] == 0:
            return None
        b_vec = b1 = null_w[2][:, 0]
        case = "DeepCaseB"
    if any(pairs[k] is None for k in range(kstar + 1, h + 1)):
        return None
    dirs = [np.zeros_like(m) for m in weights]
    if kstar == h:
        dirs[0][j_idx, :] = b_vec
    else:
        dirs[0][j_idx, :] = pairs[h][0]
        for k in range(kstar + 1, h):
            dirs[h - k] = np.outer(pairs[k + 1][1], pairs[k][0])
        dirs[h - kstar] = np.outer(pairs[kstar + 1][1], b_vec)
    dirs[h - 1][:, i_idx] = b1
    return dirs, case, h - kstar + 1


def _deep_direction(point, g_out, g_x, obj, tol):
    """Descent direction at a degenerate critical point of depth >= 2,
    given the residual ``g_out``, its pull-back ``g_x`` to the input and
    the objective ``obj`` at the point.

    ``_deep_chain`` hinges on a null vector of the top layer.  Because
    ``(W_h ... W_1)^T = W_1^T ... W_h^T``, the same construction run on
    the mirrored chain, the transposed layers in reverse order with the
    input and output data indices swapped, hinges on a left-null vector
    of the bottom layer ``W_1``.  The top chain is tried first.  A
    mirrored result has its directions transposed and reversed back, so
    its chain is the last ``q`` layers, and its case name gets the suffix
    ``_left``.  The surviving terms of the objective's expansion are
    formed in the original orientation: ``t1`` with the chain's directions
    in place of their weights, ``t2`` with the opposite end's direction as
    well.

    At depth 2 the chain has no interior layer: it is case B, ``q = 1``.
    There ``t1`` pairs a direction with its layer's gradient, which
    criticality has bounded, so it is never the leading term and the
    direction escapes along negative curvature (a ``SecondOrderSaddle``);
    and the two cases are named ``TwoLayerNullW2`` and ``TwoLayerNullW1T``.
    """
    h = point.depth
    i_idx, j_idx = _data_indices(g_x)
    mirrored = [w.T for w in reversed(point.weights)]
    for weights, i, j, suffix in ((point.weights, i_idx, j_idx, ""),
                                  (mirrored, j_idx, i_idx, "_left")):
        got = _deep_chain(weights, i, j, tol)
        if got is None:
            continue
        dirs, case, q = got
        primary, secondary, chain = 0, h - 1, slice(0, q)
        if suffix:
            dirs = [d.T for d in reversed(dirs)]
            primary, secondary, chain = h - 1, 0, slice(h - q, h)
        case += suffix
        if h == 2:
            primary, case = None, "TwoLayerNullW1T" if suffix else "TwoLayerNullW2"
        mats = list(point.weights)
        mats[chain] = dirs[chain]
        t1 = product_matrix(mats + [point.x])
        mats[secondary] = dirs[secondary]
        t2 = product_matrix(mats + [point.x])
        chosen, order = _choose_alphas(g_out, dirs, q, primary, secondary, t1, t2)
        if chosen is None:
            continue
        found = _verify_descent(point, obj, chosen, order, case, tol)
        if found is not None:
            return found
    return None


def classify(point, tol=DEFAULT_TOL, seed=0):
    """Classify a training point of the linear-network objective:
    ``NotCritical``, ``GlobalMin``, ``SecondOrderSaddle`` or
    ``SaddleHigherOrder`` (depth 2 or more, with a verified descent
    direction), else ``Inconclusive`` with the evidence of a
    ``local-min-probe`` certificate."""
    certificates = []
    weights, x, y = point.weights, point.x, point.y
    acts = _forward(weights, x)
    obj = _loss(acts[-1], y)
    g_out = acts[-1] - y
    gnorm = gradient_norm(_backward(weights, acts, g_out))
    if not (np.isfinite(obj) and np.isfinite(gnorm)):
        raise NumericalFailure(
            f"the objective or its gradient overflows at this point: "
            f"objective {obj}, gradient norm {gnorm}"
        )
    gv = global_value(min(point.dims), x, y, tol)

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

    prod = product_matrix(weights)
    prod_rank = rank(prod, tol)
    degenerate = prod_rank < min(point.dims)
    if gnorm > tol.grad_abs:
        certificates.append({"check": "criticality", "passed": False, "value": gnorm})
        return report(NOT_CRITICAL)
    certificates.append({"check": "criticality", "passed": True, "value": gnorm})

    g_x = g_out @ x.T
    stat = float(np.linalg.norm(g_x))
    certificates.append(
        {"check": "unconstrained-stationarity", "passed": stat <= tol.grad_abs,
         "value": stat}
    )
    if stat <= tol.grad_abs:
        return report(GLOBAL_MIN)
    if obj <= gv + tol.residual_abs:
        certificates.append(
            {"check": "achieves-constrained-optimum", "passed": True,
             "value": obj - gv}
        )
        return report(GLOBAL_MIN)

    if not degenerate:
        # a non-degenerate critical point strictly above the constrained
        # optimum cannot be a local minimum; without a constructive
        # direction the verdict stays inconclusive
        certificates.append(
            {"check": "non-degenerate-openness", "passed": True,
             "value": prod_rank}
        )
    else:  # depth >= 2: at depth one criticality is stationarity
        direction = _deep_direction(point, g_out, g_x, obj, tol)
        if direction is not None:
            status = SECOND_ORDER_SADDLE if point.depth == 2 else SADDLE_HIGHER_ORDER
            return report(status, direction)

    probe = local_min_probe(point, tol, seed=seed)
    certificates.append(
        {"check": "local-min-probe", "passed": probe.locally_minimal,
         "value": probe.min_deltas}
    )
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


def counterexample_factory(dims):
    """Degenerate critical point on an admissible width pair: identity
    input, a single far corner target, identity-padded outer layers and
    zeroed middle layers between the pair.  Under squared error it is a
    saddle with a high-order escape, not a local minimum.

    Requires widths ``p1 < p2`` strictly inside the chain with
    ``d_h > d_{p2}`` and ``d_0 > d_{p1}``; otherwise ``NotConstructible``
    is raised.
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
            "no width pair p1 < p2 inside the chain has d_0 > d_p1 and "
            "d_h > d_p2, which the construction needs"
        )
    p1, p2 = chosen
    x = np.eye(d(0))
    y = np.zeros((d(h), d(0)))
    y[-1, -1] = 1.0
    weights = [np.zeros((d(i), d(i - 1))) if p1 < i <= p2 else np.eye(d(i), d(i - 1))
               for i in range(h, 0, -1)]
    if gradient_norm(gradient(weights, x, y)) > 1e-12:
        raise NotConstructible("constructed point is not critical")
    return x, y, NetworkPoint(weights=weights, x=x, y=y)


def rank_deficient_y_fixture():
    """Hard-coded three-layer regression fixture whose target rank
    exceeds the width-gap bound: a saddle with a fourth-order escape
    that a sphere probe misses."""
    x = np.eye(3)
    y = np.array([[1.0, 0.0, -1.0], [0.0, 4.0, 0.0], [-1.0, 0.0, 1.0]])
    w3 = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, -1.0]])
    w2 = np.array([[1.0, 1.0], [1.0, 1.0]])
    w1 = w3.T.copy()
    point = NetworkPoint(weights=[w3, w2, w1], x=x, y=y)
    return x, y, point


# -- quasi-Newton descent -----------------------------------------------------


CONVERGED = "converged"
MAX_ITER = "max_iter"
PLATEAU = "plateau"
LINE_SEARCH = "line_search"
EXIT_REASONS = (CONVERGED, MAX_ITER, PLATEAU, LINE_SEARCH)


@dataclass
class GDResult:
    point: NetworkPoint
    converged: bool
    iterations: int
    objective: float
    gradient_norm: float
    exit_reason: str


def _flat_views(flat, shapes):
    """Weight matrices of ``shapes`` as reshaped views of one flat vector."""
    ends = np.cumsum([r * c for r, c in shapes])
    return [flat[end - r * c:end].reshape(r, c) for (r, c), end in zip(shapes, ends)]


def _two_loop(grad, pairs):
    """L-BFGS direction ``-H grad`` from the curvature pairs
    ``(s, y, 1 / s.y)``, oldest first, with ``H_0 = (s.y / y.y) I`` taken
    from the newest pair (Liu & Nocedal 1989)."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * s.dot(q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * y.dot(y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * y.dot(q)) * s
    return q


def run_gradient_descent(point, tol=DEFAULT_TOL, max_iter=100000):
    """L-BFGS on the objective until the gradient norm falls below
    ``grad_abs``.

    The direction comes from the two-loop recursion over the last
    ``_HISTORY`` curvature pairs; a pair with ``s.y <= 0`` is skipped, and
    when the recursion gives no descent direction (or before any pair is
    kept) the history is cleared and the step falls back to ``-eta * g``
    with ``eta = _STEEPEST_STEP``.  The step length starts at one and is
    halved until the Armijo test passes.  Near a minimum the decrease
    drops under float resolution while the gradient still contracts, so
    that test carries a rounding slack of ``8 EPS |f|``.  From a finite
    objective, a trial step whose objective is not finite fails the test,
    so the line search rejects it and halves the step.

    The result names why the descent stopped: ``converged``, ``max_iter``,
    ``plateau`` (no measurable gradient contraction over ``_PLATEAU``
    iterations) or ``line_search`` (no step passed the Armijo test, or
    the one that passed moved no weight).

    The descent runs on one flat parameter vector, the weights being
    reshaped views of it, and builds one ``NetworkPoint``, for its result.
    Each line-search trial makes one forward pass, and the accepted
    trial's pass gives the next gradient, so the result's objective and
    gradient norm are those ``objective`` and ``gradient_norm`` give at
    its point.  Raises ``NumericalFailure`` when the objective or the
    gradient at the start is not finite.
    """
    x, y = point.x, point.y
    shapes = [w.shape for w in point.weights]
    flat = _flat(point.weights)
    trial = np.empty_like(flat)
    weights, trial_weights = _flat_views(flat, shapes), _flat_views(trial, shapes)
    acts = _forward(weights, x)
    obj = _loss(acts[-1], y)
    grad = _flat(_backward(weights, acts, acts[-1] - y))
    gnorm = float(np.linalg.norm(grad))
    if not (np.isfinite(obj) and np.isfinite(gnorm)):
        raise NumericalFailure(
            f"the objective or its gradient overflows at the start of the "
            f"descent: objective {obj}, gradient norm {gnorm}"
        )
    pairs = deque(maxlen=_HISTORY)
    stall = 0
    best_gnorm = np.inf
    it = 0
    while True:
        if gnorm <= tol.grad_abs:
            reason = CONVERGED
            break
        if it >= max_iter:
            reason = MAX_ITER
            break
        if gnorm < 0.999 * best_gnorm:
            best_gnorm = gnorm
            stall = 0
        else:
            stall += 1
            if stall >= _PLATEAU:
                reason = PLATEAU
                break
        direction = _two_loop(grad, pairs) if pairs else None
        slope = np.nan if direction is None else float(direction.dot(grad))
        if not slope < 0.0:
            pairs.clear()
            direction = -_STEEPEST_STEP * grad
            slope = -_STEEPEST_STEP * gnorm**2
        slack = 8.0 * EPS * abs(obj)
        t = 1.0
        for _ in range(60):
            np.add(flat, t * direction, out=trial)
            acts = _forward(trial_weights, x)
            val = _loss(acts[-1], y)
            if val <= obj + 1e-4 * t * slope + slack:
                break
            t *= 0.5
        else:
            reason = LINE_SEARCH
            break
        step = trial - flat
        if not step.any():  # every later iteration would repeat this one
            reason = LINE_SEARCH
            break
        new_grad = _flat(_backward(trial_weights, acts, acts[-1] - y))
        change = new_grad - grad
        curvature = float(step.dot(change))
        if curvature > 0.0:
            pairs.append((step, change, 1.0 / curvature))
        flat, trial = trial, flat
        weights, trial_weights = trial_weights, weights
        obj, grad, gnorm = val, new_grad, float(np.linalg.norm(new_grad))
        it += 1
    return GDResult(NetworkPoint(weights, x, y), reason == CONVERGED, it, obj, gnorm, reason)
