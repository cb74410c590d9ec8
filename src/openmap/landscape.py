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
* degenerate critical points get a verified escape along a rank-one
  path curve ``W_i + s^{k_i} D_i`` whose leading term is negative: the
  objective's change along a curve is a polynomial in ``s``, whose
  coefficients ``_expansion`` reads off one stack of the product's
  powers of ``s`` with a fixed number of array operations per layer,
  exactly on ``Fraction`` arrays;
* what remains is ``Inconclusive``, with a seeded sphere probe attached.

Entry points take a ``NetworkPoint``, the one input check, which carries
its own widths; ``product_matrix``, ``objective`` and ``gradient`` work on
checked weight lists.  Weight lists are ordered ``W_h`` first throughout,
matching the wire format.
"""

import math
from functools import cache
from itertools import combinations, zip_longest
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotConstructible, NumericalFailure
from .matrixio import as_matrix
from .numcore import (DEFAULT_TOL, EPS, _flat_views, _row_dots, null_space, rank,
                      singular_values, spectrum, svd)

GLOBAL_MIN = "GlobalMin"
SECOND_ORDER_SADDLE = "SecondOrderSaddle"
SADDLE_HIGHER_ORDER = "SaddleHigherOrder"
# never a verdict; sweeps count it to show it stays at zero
SPURIOUS_LOCAL_MIN = "SpuriousLocalMin"
NOT_CRITICAL = "NotCritical"
INCONCLUSIVE = "Inconclusive"

# a path link's coupling b^T C a at or below this counts as no link
_DIRECTION_TOL = 1e-8
# halvings of s before _escape gives a curve up
_MAX_HALVINGS = 60
# iterations without a 0.1% gradient contraction before the descent stops:
# along the rescaling symmetry (W_2, W_1) -> (c W_2, W_1 / c) the
# quasi-Newton steps can drift with the gradient norm growing, and only
# this exit ends such a run short of max_iter
_PLATEAU = 1500
# curvature pairs kept by the L-BFGS history, whose inverse-Hessian
# approximation is held in the compact form of Byrd, Nocedal & Schnabel
# (1994): buffers of this many pairs and small matrices of this order
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


def _norm(v):
    """Euclidean norm of a flat vector as ``np.linalg.norm`` computes it,
    the square root of ``v.dot(v)``, without its Python wrapper."""
    return math.sqrt(v.dot(v))


def _loss(output, y):
    """Half the squared Frobenius distance to the targets; its gradient in
    ``output`` is the residual ``output - y``."""
    return 0.5 * _norm((output - y).ravel()) ** 2


def _rounding_floor(value):
    """``8 EPS |value|``: changes of an objective ``value`` this small are
    within its rounding."""
    return 8.0 * EPS * abs(value)


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
    return _norm(_flat(grads))


def global_value(width, x, y, tol=DEFAULT_TOL):
    """Optimal squared-error value over products of rank at most
    ``width``, the narrowest layer of the network.

    Reduction: rotate by the SVD of ``x``, split off the constant mass
    outside the input row space, and truncate the reachable block to the
    best approximation of rank ``width``.  When that rank keeps every
    singular value of the block, the truncation leaves nothing and no SVD
    is taken.  Raises ``NumericalFailure`` when the rotated block is not
    finite.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    sp = spectrum(x, tol)
    y_rot = y @ sp.v
    reachable = y_rot[:, : sp.rank]
    constant = float(np.linalg.norm(y_rot[:, sp.rank :]) ** 2)
    t = min(width, sp.rank)
    if t < min(reachable.shape):
        tail = float(np.sum(singular_values(reachable)[t:] ** 2))
    elif np.isfinite(reachable).all():
        tail = 0.0
    else:
        raise NumericalFailure("the target rotated into the input's row space is not finite")
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

# local_min_probe's sphere radii, strictly decreasing, and its sample
# count per radius
PROBE_RADII = (1e-2, 1e-3, 1e-4)
PROBE_SAMPLES = 2000


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
    objective by more than ``residual_abs``, every radius had a finite
    sample, and the base objective's rounding floor ``8 EPS |f|`` is within
    ``residual_abs``: past it no sample could undercut the base measurably,
    so no radius counts as evidence.  The radii are ``PROBE_RADII``.

    Each radius seeds its own generator with ``[seed, radius index]`` and
    draws ``PROBE_SAMPLES`` standard-normal vectors over all parameters,
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
    min_deltas = []
    for r_idx, radius in enumerate(PROBE_RADII):
        rng = np.random.default_rng([seed, r_idx])
        least, left = np.inf, PROBE_SAMPLES
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
        # rounding is monotone, so this is the least of the sample deltas
        min_deltas.append(float(least - base))
    # a radius without one finite sample gives no evidence of minimality
    minimal = (_rounding_floor(base) <= tol.residual_abs
               and all(-tol.residual_abs <= d < np.inf for d in min_deltas))
    return ProbeReport(
        radii=list(PROBE_RADII), min_deltas=min_deltas, locally_minimal=minimal,
        samples=PROBE_SAMPLES,
    )


@dataclass
class DirectionTuple:
    """A verified escape: ``W_i + step * d_i`` (``d_i`` the ``directions``,
    ``W_h`` first) lies ``decrease`` below the objective.  It is the point
    ``s = step`` of the curve ``W_i + s^{k_i} D_i`` with ``k_i`` the
    ``exponents`` (0 on a fixed layer), so ``d_i = step^{k_i - 1} D_i``,
    along which the objective's change leads at power ``order``."""

    directions: list
    order: int
    step: float
    exponents: list
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


@cache
def _antidiagonals(q, dtype):
    """The ``(2q - 1, q * q)`` matrix that maps a flattened ``q x q``
    matrix ``G`` to half its anti-diagonal sums, row ``m`` holding
    ``sum_{i + j = m} G[i, j] / 2``; on ``object`` arrays the half is
    ``Fraction(1, 2)``, so exact entries stay exact."""
    half = 0.5
    if dtype == object:
        from fractions import Fraction  # only exact expansions need it

        half = Fraction(1, 2)
    i, j = np.indices((q, q)).reshape(2, -1)
    out = np.zeros((2 * q - 1, q * q), dtype)
    out[i + j, np.arange(q * q)] = half
    return out


def _expansion(weights, curve, x, y):
    """Coefficients ``c``, lowest power first, of
    ``f(w(s)) - f(w) = sum_m c[m] s^m`` on the curve moving each layer
    ``W_i`` (``W_h`` first) to ``W_i + s^k D_i`` for ``(k, D_i)`` in
    ``curve``, a ``D_i`` of None leaving it fixed.

    The layers are applied bottom up to one stack whose block ``p`` holds
    the ``s^p`` term of the product so far, transposed: it starts as
    ``x^T`` over ``K + 1`` blocks, ``K`` the sum of the moved layers'
    exponents, and a layer maps it to ``stack W^T`` plus ``stack D^T``
    moved ``k`` blocks up, a fixed number of array operations whatever
    the terms.  Block 0, less ``y^T``, is the residual ``r``; with the
    blocks ``R_0 = r, R_1, ..., R_K`` as rows, ``f(w(s)) = |sum_p s^p
    R_p|^2 / 2``, so ``c[m]`` is half the sum of the Gram matrix's
    entries ``<R_i, R_j>`` with ``i + j = m`` (and ``c[0] = 0``): one
    Gram product and one product with ``_antidiagonals``.  The list ends
    at ``c[2P]``, ``P`` the highest power above 0 whose block is nonzero
    (it is ``[0]`` when none is).  Only products and sums touch the
    matrices and the half is exact, so ``Fraction`` object arrays give
    exact coefficients: the stack's zeros become ``Fraction`` zeros at
    the first product with a layer."""
    n = x.shape[1]
    top = sum(k for k, d in curve if d is not None)
    stack = np.zeros(((top + 1) * n, x.shape[0]), x.dtype)
    stack[:n] = x.T
    for w, (k, d) in zip(reversed(weights), reversed(curve)):
        grown = stack.dot(w.T)
        if d is not None:
            grown[k * n:] += stack[:len(stack) - k * n].dot(d.T)
        stack = grown
    stack[:n] -= y.T
    rows = stack.reshape(top + 1, -1)
    coeffs = _antidiagonals(top + 1, rows.dtype).dot(rows.dot(rows.T).ravel()).tolist()
    live = rows.any(axis=1).tolist()
    while top and not live[top]:
        top -= 1
    coeffs[0] = 0
    return coeffs[:2 * top + 1]


def _leading(coeffs, curve, grad_abs):
    """Power of the first coefficient that counts, or None: one above
    1e-9 of the largest and above ``grad_abs * sum ||D_i||`` over the
    layers moved at that power, all that a gradient bounded by
    criticality can contribute there."""
    big = max(map(abs, coeffs))
    for m, c in enumerate(coeffs):
        if abs(c) > 1e-9 * big and abs(c) > grad_abs * sum(
                np.linalg.norm(d) for k, d in curve if k == m):
            return m
    return None


def _path_curves(weights, g_x, tol):
    """Rank-one path curves ``[(k_i, D_i)]``, ``W_h`` first, ``(0, None)``
    on a fixed layer.  Each moves a hop set holding layers 1 and ``h``
    (fewest hops first) by ``D_i = a_i b_i^T``, from ``a_h = -u`` to
    ``b_1 = v``, the top singular pair of ``g_x`` (residual times
    ``x^T``).  Consecutive hops ``lo < hi``, with ``C`` the product of
    the layers between them, take the ``(a_lo, b_hi)`` maximising
    ``b^T C a`` subject to ``W_hi C a = 0`` and ``b^T C W_lo = 0``, which
    keep the terms where only one of the two moves out of the expansion;
    short of ``_DIRECTION_TOL`` the ``b`` condition is dropped, else the
    ``a`` condition, else both, and a hop set left without a pair (as
    where some ``C`` is zero) is skipped.  Interior hops take exponent 1,
    then 2; end hops take 1."""
    h = len(weights)
    u, _, v = svd(g_x)

    def kernel(m):  # a zero matrix needs no SVD
        return null_space(m, tol) if m.any() else np.eye(m.shape[1])

    @cache
    def pair(lo, hi):
        inner = weights[h - hi + 1:h - lo]
        c = product_matrix(inner) if inner else np.eye(weights[h - lo].shape[0])
        if not c.any():
            return None
        a_all, b_all = np.eye(c.shape[1]), np.eye(c.shape[0])
        a_null, b_null = kernel(weights[h - hi] @ c), kernel((c @ weights[h - lo]).T)
        for a_sp, b_sp in ((a_null, b_null), (a_null, b_all), (a_all, b_null), (a_all, b_all)):
            if a_sp.shape[1] and b_sp.shape[1]:
                lb, s, ra = svd(b_sp.T @ c @ a_sp)
                if s[0] > _DIRECTION_TOL:
                    return a_sp @ ra[:, 0], b_sp @ lb[:, 0]
        return None

    for size in range(h - 1):
        for interior in combinations(range(2, h), size):
            links = list(zip((1, *interior), (*interior, h)))
            if any(pair(*link) is None for link in links):
                continue
            outs, ins = {h: -u[:, 0]}, {1: v[:, 0]}
            for lo, hi in links:
                outs[lo], ins[hi] = pair(lo, hi)
            for inner_k in (1, 2) if interior else (1,):
                yield [(1 if i in (1, h) else inner_k, np.outer(outs[i], ins[i]))
                       if i in outs else (0, None) for i in range(h, 0, -1)]


def _hop_scale(weights, curve, i, coeffs, x, y):
    """Scale ``g`` of hop ``i`` that makes the lowest coefficient it can
    make negative so, or None.  Each coefficient is a quadratic
    ``C0 + B g + A g^2``, read off the scales 0, 1 and -1: with ``A > 0``
    and a negative minimum ``g = -B / 2A``; linear in ``g``, ``g = -1``."""
    k, d = curve[i]
    base, minus = (_expansion(weights, curve[:i] + [(k, g * d)] + curve[i + 1:], x, y)
                   for g in (0.0, -1.0))
    small = 1e-9 * max(map(abs, [*coeffs, *base, *minus]))
    for c1, c0, cm in zip_longest(coeffs, base, minus, fillvalue=0):
        a, b = (c1 + cm) / 2 - c0, (c1 - cm) / 2
        if a > small and c0 - b * b / (4 * a) < 0:
            return -b / (2 * a)
        if abs(a) <= small < abs(b):
            return -1.0
    return None


def _escape(point, g_x, obj, tol):
    """Verified escape from a degenerate critical point whose objective is
    ``obj``, or None: the first of ``_path_curves`` whose leading
    coefficient is negative, its hops rescaled one at a time by
    ``_hop_scale`` while it is not.  The float check halves ``s`` from 1
    until the objective at ``w(s)`` lies ``residual_abs`` below ``obj``."""
    weights, x, y = point.weights, point.x, point.y
    for curve in _path_curves(weights, g_x, tol):
        coeffs = _expansion(weights, curve, x, y)
        lead = _leading(coeffs, curve, tol.grad_abs)
        for i, (k, d) in enumerate(curve):
            if lead is not None and coeffs[lead] < 0:
                break
            if d is not None and (scale := _hop_scale(weights, curve, i, coeffs, x, y)):
                curve[i] = (k, scale * d)
                coeffs = _expansion(weights, curve, x, y)
                lead = _leading(coeffs, curve, tol.grad_abs)
        if lead is None or coeffs[lead] >= 0:
            continue
        for s in (0.5**j for j in range(_MAX_HALVINGS)):
            val = objective([w if d is None else w + s**k * d for w, (k, d) in zip(weights, curve)],
                            x, y)
            if val < obj - tol.residual_abs:
                dirs = [np.zeros_like(w) if d is None else s ** (k - 1) * d
                        for w, (k, d) in zip(weights, curve)]
                return DirectionTuple(dirs, lead, s, [k for k, _ in curve], float(obj - val))
    return None


def classify(point, tol=DEFAULT_TOL, seed=0):
    """Classify a training point of the linear-network objective:
    ``NotCritical``, ``GlobalMin``, or, at a degenerate critical point
    with a verified escape, ``SecondOrderSaddle`` when the escape leads
    at order 2 (negative curvature, at any depth) and
    ``SaddleHigherOrder`` otherwise; else ``Inconclusive`` with the
    evidence of a ``local-min-probe`` certificate."""
    certificates = []
    weights, x, y = point.weights, point.x, point.y
    acts = _forward(weights, x)
    obj = _loss(acts[-1], y)
    g_out = acts[-1] - y
    gnorm = gradient_norm(_backward(weights, acts, g_out))
    prod = product_matrix(weights)
    if not (np.isfinite(obj) and np.isfinite(gnorm) and np.isfinite(prod).all()):
        raise NumericalFailure(
            f"the objective, its gradient or the product overflows at this point: "
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
        direction = _escape(point, g_x, obj, tol)
        if direction is not None:
            status = SECOND_ORDER_SADDLE if direction.order == 2 else SADDLE_HIGHER_ORDER
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


class _History:
    """The last ``_HISTORY`` curvature pairs ``(s, y)`` and the L-BFGS
    inverse-Hessian approximation ``H`` they define, in the compact form
    of Byrd, Nocedal & Schnabel (1994, Theorem 2.2):

        H = c I + [S  c Y] [[R^-T (D + c Y^T Y) R^-1, -R^-T], [-R^-1, 0]] [S  c Y]^T

    with ``S`` and ``Y`` the pairs as columns, oldest first, ``R`` the
    upper triangle of ``S^T Y``, ``D`` its diagonal and ``H_0 = c I``,
    ``c = s.y / y.y`` from the newest pair: the matrix of the two-loop
    recursion (Liu & Nocedal 1989).

    The pairs sit at the trailing end of one preallocated buffer, and
    ``R^-1``, ``diag(R)`` and ``Y^T Y`` at the trailing end of theirs, all
    zero in front, so every product has the same shape whatever the
    number of pairs.  A new pair moves each buffer's contents one place
    to the front, which drops the oldest pair once the history is full:
    what stays of ``R^-1`` is its trailing block, the inverse of the
    trailing block of ``R``.  The new pair then fills the last row and
    column of each from one product with the pair buffer."""

    def __init__(self, n):
        m = _HISTORY
        self.pairs = np.zeros((2, m, n))  # the rows of S^T, then of Y^T
        self.rows = self.pairs.reshape(2 * m, n)
        self.r_inv = np.zeros((m, m))
        self.yy = np.zeros((m, m))
        self.sy = np.zeros(m)  # diag(R)
        self.coef = np.zeros(2 * m)
        self.c = 0.0
        self.size = 0

    def clear(self):
        for buf in (self.pairs, self.r_inv, self.yy, self.sy):
            buf.fill(0.0)
        self.size = 0

    def add(self, s, y):
        """Keep the pair ``(s, y)`` unless ``s.y <= 0``."""
        sy = float(s.dot(y))
        if not sy > 0.0:
            return
        m, pairs, r_inv, yy = _HISTORY, self.pairs, self.r_inv, self.yy
        pairs[:, :-1] = pairs[:, 1:]
        pairs[0, -1] = s
        pairs[1, -1] = y
        s_y = self.rows.dot(y)  # S^T y, then Y^T y
        # R^-1 of [[R, S^T y], [0, s.y]] is [[R^-1, -R^-1 S^T y / s.y], [0, 1 / s.y]]
        r_inv[:-1, :-1] = r_inv[1:, 1:]
        col = r_inv[:-1, :-1].dot(s_y[:m - 1])
        col *= -1.0 / sy
        r_inv[:-1, -1] = col
        r_inv[-1, -1] = 1.0 / sy
        yy[:-1, :-1] = yy[1:, 1:]
        yy[-1] = yy[:, -1] = s_y[m:]
        self.sy[:-1] = self.sy[1:]
        self.sy[-1] = sy
        self.c = sy / s_y[-1]
        self.size = min(self.size + 1, m)

    def direction(self, grad):
        """``-H grad``: with ``u = R^-1 S^T grad`` and
        ``p = R^-T (D u + c Y^T Y u - c Y^T grad)`` it is
        ``-c grad - S p + c Y u``."""
        m, c, coef = _HISTORY, self.c, self.coef
        s_y_g = self.rows.dot(grad)
        u = self.r_inv.dot(s_y_g[:m])
        cu = np.multiply(u, c, out=coef[m:])
        minus_p = c * s_y_g[m:]
        minus_p -= self.sy * u
        minus_p -= self.yy.dot(cu)
        np.dot(minus_p, self.r_inv, out=coef[:m])
        step = coef.dot(self.rows)
        step -= c * grad
        return step


def run_gradient_descent(point, tol=DEFAULT_TOL, max_iter=100000):
    """L-BFGS on the objective until the gradient norm falls below
    ``grad_abs``.

    The direction is ``-H g`` for the L-BFGS approximation ``H`` of the
    inverse Hessian over the last ``_HISTORY`` curvature pairs, held in
    the compact form of Byrd, Nocedal & Schnabel (1994) by ``_History``,
    so a direction costs a fixed number of array operations whatever the
    number of pairs; a pair with ``s.y <= 0`` is skipped, and when ``H``
    gives no descent direction (or before any pair is kept) the history
    is cleared and the step falls back to ``-eta * g`` with
    ``eta = _STEEPEST_STEP``.  The step length starts at one and is
    halved until the Armijo test passes.  Near a minimum the decrease
    drops under float resolution while the gradient still contracts, so
    that test carries a rounding slack of ``8 EPS |f|``
    (``_rounding_floor``).  From a finite objective, a trial step whose
    objective is not finite fails the test, so the line search rejects it
    and halves the step.

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
    gnorm = _norm(grad)
    if not (np.isfinite(obj) and np.isfinite(gnorm)):
        raise NumericalFailure(
            f"the objective or its gradient overflows at the start of the "
            f"descent: objective {obj}, gradient norm {gnorm}"
        )
    history = _History(flat.size)
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
        direction = history.direction(grad) if history.size else None
        slope = np.nan if direction is None else float(direction.dot(grad))
        if not slope < 0.0:
            history.clear()
            direction = -_STEEPEST_STEP * grad
            slope = -_STEEPEST_STEP * gnorm**2
        slack = _rounding_floor(obj)
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
        history.add(step, new_grad - grad)
        flat, trial = trial, flat
        weights, trial_weights = trial_weights, weights
        obj, grad, gnorm = val, new_grad, _norm(new_grad)
        it += 1
    return GDResult(NetworkPoint(weights, x, y), reason == CONVERGED, it, obj, gnorm, reason)
