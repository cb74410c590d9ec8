"""``local_min_probe`` evaluates its sphere samples as stacked matmuls in
row chunks; these tests pin it, bit for bit, to the one-sample-at-a-time
probe it replaced, which is kept here as the reference."""

import itertools
import tracemalloc

import numpy as np
import pytest

from openmap import landscape
from openmap.landscape import (
    ConvexPlugin,
    NetworkPoint,
    _chain_order,
    _chain_product,
    local_min_probe,
    rank_deficient_y_fixture,
)
from openmap.numcore import DEFAULT_TOL, Tolerances

TOL = Tolerances(probe_samples=40)


def _sphere_direction(rng, shapes, radius):
    sizes = [int(np.prod(s)) for s in shapes]
    vec = rng.standard_normal(sum(sizes))
    norm = np.linalg.norm(vec)
    while norm == 0.0:
        vec = rng.standard_normal(sum(sizes))
        norm = np.linalg.norm(vec)
    vec *= radius / norm
    out, start = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(vec[start : start + size].reshape(shape))
        start += size
    return out


def reference_min_deltas(point, loss=None, tol=DEFAULT_TOL, seed=None):
    """The probe as it was before batching: one sample at a time."""
    loss = loss or landscape.SquaredError()

    def objective_fn(weights):
        mats = list(weights) + [point.x]
        prod = np.linalg.multi_dot(mats) if len(mats) > 1 else mats[0]
        return loss.value(prod, point.y)

    base = objective_fn(point.weights)
    shapes = [w.shape for w in point.weights]
    seed = tol.rng_seed if seed is None else seed
    min_deltas = []
    for r_idx, radius in enumerate(tol.probe_radius_schedule):
        rng = np.random.default_rng([seed, r_idx])
        worst = np.inf
        for _ in range(tol.probe_samples):
            step = _sphere_direction(rng, shapes, radius)
            val = objective_fn([w + d for w, d in zip(point.weights, step)])
            if val - base < worst:
                worst = val - base
        min_deltas.append(float(worst))
    return min_deltas


def _point(dims, n_samples, zero, seed):
    rng = np.random.default_rng(seed)
    weights = [
        np.zeros((dims[i], dims[i + 1])) if zero
        else rng.standard_normal((dims[i], dims[i + 1]))
        for i in range(len(dims) - 1)
    ]
    x = rng.standard_normal((dims[-1], n_samples))
    y = rng.standard_normal((dims[0], n_samples))
    return NetworkPoint(weights, x, y)


def _grid_dims(depth, seed):
    """Every uniform width 1..4, then two mixed tuples of widths 1..4."""
    rng = np.random.default_rng([depth, seed])
    uniform = [(w,) * (depth + 1) for w in range(1, 5)]
    mixed = [tuple(int(d) for d in rng.integers(1, 5, size=depth + 1)) for _ in range(2)]
    return uniform + mixed


@pytest.mark.parametrize("depth,n_samples,zero", list(itertools.product(
    range(1, 5), range(1, 5), (True, False))))
def test_min_deltas_equal_the_one_at_a_time_probe(depth, n_samples, zero):
    for case, dims in enumerate(_grid_dims(depth, n_samples)):
        point = _point(dims, n_samples, zero, seed=[depth, n_samples, case])
        got = local_min_probe(point, tol=TOL, seed=case).min_deltas
        assert got == reference_min_deltas(point, tol=TOL, seed=case), dims


def test_the_full_sample_count_on_the_fixture_matches():
    _, _, point = rank_deficient_y_fixture()
    got = local_min_probe(point, tol=DEFAULT_TOL, seed=3).min_deltas
    assert got == reference_min_deltas(point, tol=DEFAULT_TOL, seed=3)


def test_a_plugin_loss_matches_slice_by_slice():
    def value(out, y):
        return np.sum(np.log(np.cosh(out - y)))

    def grad(out, y):
        return np.tanh(out - y)

    for dims, n_samples in (((1, 1), 1), ((3, 2, 2, 3), 3), ((2, 4, 1, 3, 2), 2)):
        point = _point(dims, n_samples, zero=False, seed=len(dims))
        loss = ConvexPlugin(value, grad)
        got = local_min_probe(point, loss, TOL, seed=5).min_deltas
        assert got == reference_min_deltas(point, loss, TOL, seed=5)


def test_nan_samples_are_skipped():
    point = _point((2, 2, 2), 2, zero=False, seed=4)
    state = {"n": 0}

    def every_third_nan(out, y):
        state["n"] += 1
        if state["n"] % 3 == 0:
            return np.nan
        return 0.5 * float(np.linalg.norm(out - y) ** 2)

    loss = ConvexPlugin(every_third_nan, lambda out, y: out - y)
    got = local_min_probe(point, loss, TOL).min_deltas
    assert state["n"] == 1 + TOL.probe_samples * len(TOL.probe_radius_schedule)
    state["n"] = 0
    assert got == reference_min_deltas(point, loss, TOL)
    assert all(np.isfinite(got))


def test_least_half_squares_square_the_scalar_way():
    # sqrt(d) ** 2 through libm pow is one step off s * s for some s
    rng = np.random.default_rng(0)
    norms = np.sqrt(rng.random(20000) * 100.0)
    off = [s for s in norms if s ** 2 != s * s]
    assert off
    for s in off:
        rows = np.array([np.nan, s * (1 + 1e-3), np.nextafter(s, np.inf), s])
        want = min(0.5 * float(v ** 2) for v in rows[1:])
        assert min(landscape._least_half_squares(rows)) == want


def test_chain_order_matches_multi_dot_bit_for_bit():
    rng = np.random.default_rng(0)
    for count, widths in ((2, (1, 2, 3, 5)), (3, (1, 2, 3, 5)), (4, (1, 2, 3, 5)),
                          (5, (1, 3, 5))):
        for p in itertools.product(widths, repeat=count + 1):
            mats = [rng.standard_normal((p[i], p[i + 1])) for i in range(count)]
            order = _chain_order(list(p))
            assert np.array_equal(_chain_product(order, mats), np.linalg.multi_dot(mats)), p
            stacks = [np.stack([m, 2.0 * m - 1.0]) for m in mats]
            stacked = _chain_product(order, stacks)
            for i in range(2):
                assert np.array_equal(
                    stacked[i], np.linalg.multi_dot([s[i] for s in stacks])
                ), p


def test_chain_order_keeps_the_strict_tie_break():
    assert _chain_order([10, 100, 5, 50]) == ((0, 1), 2)
    assert _chain_order([1, 1, 1, 1]) == (0, (1, 2))  # equal costs: A(BC)
    assert _chain_order([1, 1, 1, 1, 1]) == (0, (1, (2, 3)))
    assert _chain_order([3, 4]) == 0
    assert _chain_order([3, 4, 5]) == (0, 1)


def _chunk_rows(monkeypatch, point, rows):
    p = [w.shape[0] for w in point.weights] + list(point.x.shape)
    widest = max([sum(w.size for w in point.weights)]
                 + [a * b for i, a in enumerate(p) for b in p[i + 1:]])
    monkeypatch.setattr(landscape, "_CHUNK_ELEMENTS", rows * widest)


def _record_chunks(monkeypatch):
    """Row counts of the draws ``local_min_probe`` makes from here on."""
    chunks = []
    real_rng = np.random.default_rng

    class RecordingGenerator:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def standard_normal(self, size):
            chunks.append(size[0])
            return self.rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
    return chunks


@pytest.mark.parametrize("rows", [1, 7])
def test_chunk_size_never_changes_a_result(monkeypatch, rows):
    point = _point((3, 2, 2, 3), 4, zero=False, seed=9)
    plugin = ConvexPlugin(
        lambda out, y: np.sum((out - y) ** 4), lambda out, y: 4 * (out - y) ** 3)
    tol = Tolerances(probe_samples=45)
    want = [local_min_probe(point, loss, tol, seed=1) for loss in (None, plugin)]
    _chunk_rows(monkeypatch, point, rows)
    chunks = _record_chunks(monkeypatch)
    got = [local_min_probe(point, loss, tol, seed=1) for loss in (None, plugin)]
    assert got == want
    assert chunks == 6 * ([rows] * (45 // rows) + ([45 % rows] if 45 % rows else []))


def test_zero_draws_are_skipped_in_stream_order(monkeypatch):
    """A draw of norm zero is replaced by the next draw of the stream,
    as the one-at-a-time probe redrew it, whatever the chunk size."""
    point = _point((2, 3, 2), 2, zero=False, seed=6)
    total = sum(w.size for w in point.weights)
    real_rng = np.random.default_rng

    class ZeroingGenerator:
        def __init__(self, seed):
            self.rng, self.drawn = real_rng(seed), 0

        def standard_normal(self, size):
            out = self.rng.standard_normal(size)
            rows = out.reshape(-1, total)
            for i in range(len(rows)):
                if (self.drawn + i) % 5 in (0, 1):
                    rows[i] = 0.0
            self.drawn += len(rows)
            return out

    monkeypatch.setattr(np.random, "default_rng", ZeroingGenerator)
    tol = Tolerances(probe_samples=30)
    want = reference_min_deltas(point, tol=tol, seed=7)
    for rows in (1, 7, None):
        if rows is not None:
            _chunk_rows(monkeypatch, point, rows)
        assert local_min_probe(point, tol=tol, seed=7).min_deltas == want


def test_memory_stays_bounded_on_a_wide_net():
    # unchunked, each radius would stack 2000 x 3200 draws, their weight
    # stacks and the chain products: a peak of about 195 MB
    dims = (40, 40, 40)
    point = _point(dims, 40, zero=False, seed=12)
    tracemalloc.start()
    try:
        local_min_probe(point, tol=DEFAULT_TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_a_net_of_64_parameters_takes_one_chunk_per_radius(monkeypatch):
    point = _point((4, 4, 4, 4, 4), 4, zero=False, seed=13)
    chunks = _record_chunks(monkeypatch)
    local_min_probe(point, tol=DEFAULT_TOL)
    assert chunks == [DEFAULT_TOL.probe_samples] * len(DEFAULT_TOL.probe_radius_schedule)
