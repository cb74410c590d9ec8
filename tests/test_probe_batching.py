"""``local_min_probe`` evaluates its sphere samples as stacked matmuls in
row chunks; these tests pin it, bit for bit, to a reference probe that
evaluates ``landscape.objective`` on one sample at a time."""

import itertools
import tracemalloc

import numpy as np
import pytest

from openmap import landscape
from openmap.landscape import (
    INCONCLUSIVE,
    NetworkPoint,
    classify,
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


def reference_min_deltas(point, tol=DEFAULT_TOL, seed=0, base=None):
    """The least ``objective(sample) - base`` at each radius, one sample at
    a time; ``base`` defaults to ``objective`` at the point."""

    def objective_fn(weights):
        return landscape.objective(weights, point.x, point.y)

    base = objective_fn(point.weights) if base is None else base
    shapes = [w.shape for w in point.weights]
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


def test_nan_samples_are_skipped():
    # the two hidden units carry +-1.797e308; a sample that pushes one of
    # them past the largest double meets the other as inf - inf = NaN
    point = NetworkPoint([[[1.0, 1.0]], [[1.0], [-1.0]]], [[1.797e308]], [[0.0]])
    shapes = [w.shape for w in point.weights]
    rng = np.random.default_rng([0, 0])  # the stream of the first radius, 1e-2
    with np.errstate(over="ignore", invalid="ignore"):
        values = [
            landscape.objective(
                [w + d for w, d in zip(point.weights, _sphere_direction(rng, shapes, 1e-2))],
                point.x, point.y)
            for _ in range(TOL.probe_samples)
        ]
        report = local_min_probe(point, tol=TOL)
        want = reference_min_deltas(point, tol=TOL)
    assert np.isnan(values).any()
    assert report.min_deltas == want
    assert not report.locally_minimal


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


def _chunk_rows(monkeypatch, point, rows):
    widest = max([sum(w.size for w in point.weights)]
                 + [w.shape[0] * point.x.shape[1] for w in point.weights])
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
    tol = Tolerances(probe_samples=45)
    want = local_min_probe(point, tol=tol, seed=1)
    _chunk_rows(monkeypatch, point, rows)
    chunks = _record_chunks(monkeypatch)
    got = local_min_probe(point, tol=tol, seed=1)
    assert got == want
    assert chunks == 3 * ([rows] * (45 // rows) + ([45 % rows] if 45 % rows else []))


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
    # stacks and the activations: a peak of about 195 MB
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


def test_a_non_degenerate_inconclusive_point_probes_from_its_objective():
    """Two layers of width 1 on the second principal direction of ``y``
    are critical, of full product rank and above the rank-one optimum:
    ``Inconclusive``, and the probe's deltas are measured from the
    objective the report gives."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal((2, 3))
    u, s, vt = np.linalg.svd(y)
    root = np.sqrt(s[1])
    point = NetworkPoint([root * u[:, 1:2], root * vt[1:2] @ np.linalg.inv(x)], x, y)
    report = classify(point, tol=TOL, seed=4)
    assert report.status == INCONCLUSIVE and not report.degenerate
    assert report.objective > report.global_value
    want = reference_min_deltas(point, tol=TOL, seed=4, base=report.objective)
    assert report.certificates[-1]["value"] == want
