"""``sample_feasible_target`` runs its fixed-point rounds on a stack of
trials, ``lm_fit`` iterates only the trials still live on one flat
parameter stack, and ``lm_recover`` runs every retry round in one stacked
fit; these tests pin all three, bit for bit, to the one-target-at-a-time
sampler, the all-trials per-block Levenberg-Marquardt loop and the
one-round-at-a-time retry loop they replaced, which are kept here as the
references, and pin each trial's draws and outputs to its own index
whatever the batch.  The references end a slice at its first accepted
iterate beyond twice the factor-norm cap, as ``lm_fit`` does."""

import itertools
import math

import numpy as np
import pytest

from openmap import numcore, openness, symmetric
from openmap.numcore import DEFAULT_TOL, EPS, _lm_step, rank, truncated_svd
from openmap.openness import (
    draw_directions,
    gauss_newton_recover,
    probe_openness,
    sample_feasible_target,
)
from openmap.symmetric import gauss_newton_sym_recover
from test_cli_golden import E1, E2, W1_OPEN, W2_CLOSED
from test_recovery_oracles import FACTOR_CASES, SYM_CASES

CRITERION_3_SHAPES = [(m, k, n) for m in (1, 2, 3) for k in (1, 2) for n in (1, 2, 3)]


def reference_truncated_svd(mat, max_rank):
    """``truncated_svd`` of one matrix as it was before stacks."""
    k = int(max_rank)
    if k >= min(mat.shape):
        return mat.copy()
    if k <= 0:
        return np.zeros_like(mat)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    v = vt.T
    return (u[:, :k] * s[:k]) @ v[:, :k].T


def reference_target(z, rank_cap, delta, g, iters=80):
    """The sampler as it was before batching, one target per call along the
    direction ``g``, with the stop test at the rounding floor of
    ``(z + r) - z``."""
    if delta == 0.0:
        return z.copy()
    floor = 1e-12 * delta + 8.0 * EPS * np.linalg.norm(z)
    r = g * (delta / np.linalg.norm(g))
    zt = reference_truncated_svd(z + r, rank_cap)
    for _ in range(iters):
        r = zt - z
        nr = np.linalg.norm(r)
        if nr <= delta * 1e-9:
            r = reference_truncated_svd(g, max(1, rank_cap)) * 1.0
            nr = np.linalg.norm(r)
        if abs(nr - delta) <= floor:
            break
        r = r * (delta / nr)
        zt = reference_truncated_svd(z + r, rank_cap)
    return zt


def reference_lm_fit(product, jacobian, shapes, x, targets, tol, max_iter, cap):
    """``lm_fit`` as it was before live-trial slicing and the flat parameter
    stack, solving the smaller of its two normal systems: every iteration
    computes the step of every trial on its blocks and keeps the active
    ones, a trial ending once an accepted step leaves ``2 * cap``."""
    t_count = targets.shape[0]
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes])
    blocks = [part.reshape(t_count, *shape).copy()
              for part, shape in zip(np.split(x, ends[:-1], axis=1), shapes)]
    offsets = [0, *ends]
    entries = int(np.prod(targets.shape[1:]))
    eye = np.eye(min(entries, offsets[-1]))
    lam = np.full(t_count, 1e-4)
    ended = np.zeros(t_count, dtype=bool)
    res = product(*blocks) - targets
    res_norm = np.linalg.norm(res.reshape(t_count, -1), axis=1)
    goal = 0.05 * tol.residual_abs
    for _ in range(max_iter):
        active = (res_norm > goal) & (lam < 1e14) & ~ended
        if not np.any(active):
            break
        jac = jacobian(*blocks)
        jac_t = jac.transpose(0, 2, 1)
        rflat = res.reshape(t_count, -1, 1)
        damping = lam[:, None, None] * eye[None]
        if entries < offsets[-1]:
            step = (jac_t @ np.linalg.solve(jac @ jac_t + damping, -rflat))[..., 0]
        else:
            normal = jac_t @ np.concatenate([rflat, jac], axis=2)
            step = np.linalg.solve(normal[..., 1:] + damping, -normal[..., :1])[..., 0]
        tried = [
            blk + step[:, lo:hi].reshape(blk.shape)
            for blk, lo, hi in zip(blocks, offsets, offsets[1:])
        ]
        res_try = product(*tried) - targets
        norm_try = np.linalg.norm(res_try.reshape(t_count, -1), axis=1)
        improved = active & (norm_try < res_norm)
        for blk, blk_try in zip(blocks, tried):
            blk[improved] = blk_try[improved]
        res[improved] = res_try[improved]
        res_norm[improved] = norm_try[improved]
        lam[improved] = np.maximum(lam[improved] * 0.3, 1e-14)
        lam[active & ~improved] *= 10.0
        flat = np.concatenate([blk.reshape(t_count, -1) for blk in blocks], axis=1)
        ended |= improved & (np.linalg.norm(flat, axis=1) > 2.0 * cap)
    return np.concatenate([blk.reshape(t_count, -1) for blk in blocks], axis=1), res_norm


def reference_lm_recover(product, jacobian, shapes, targets, tol, rounds, seed, goals, cap):
    """``lm_recover`` as a loop over the retry rounds: each round fits the
    trials still failing from their rows of its jitter draw, and a trial
    leaves the loop at the first round that accepts it."""
    max_iter, retry_iter, retry_scales = rounds
    t_count = targets.shape[0]
    sizes = [int(np.prod(shape)) for shape in shapes]
    todo = np.arange(t_count)
    start = np.zeros((t_count, sum(sizes)))
    for i, scale in enumerate([0.0, *retry_scales]):
        if i:
            start = scale * np.random.default_rng(seed + i).standard_normal(
                (t_count, sum(sizes)))[todo]
        flat, rn = numcore.lm_fit(product, jacobian, shapes, start, targets[todo], tol,
                                  retry_iter if i else max_iter, cap)
        got = [part.reshape(todo.size, *shape) for part, shape in zip(
            np.split(flat, np.cumsum(sizes)[:-1], axis=1), shapes)]
        norm = np.sqrt(sum(
            np.linalg.norm(blk.reshape(len(blk), -1), axis=1) ** 2 for blk in got
        ))
        ok = (rn <= goals[todo]) & (norm <= cap)
        if i == 0:
            blocks, res_norm, factor_norm, success = got, rn, norm, ok
        else:
            idx = todo[ok]
            success[idx] = True
            for blk, new in zip(blocks, got):
                blk[idx] = new[ok]
            res_norm[idx], factor_norm[idx] = rn[ok], norm[ok]
        todo = np.flatnonzero(~success)
        if not todo.size:
            break
    return blocks, res_norm, factor_norm, success


def _reference_stack(z, rank_cap, delta, seed, trials):
    return np.stack([reference_target(z, rank_cap, delta, g)
                     for g in draw_directions(seed, trials, z.shape)])


def _grid_pair(shape, seed):
    m, k, n = shape
    rng = np.random.default_rng(seed)
    return (rng.integers(-1, 2, size=(m, k)).astype(float),
            rng.integers(-1, 2, size=(k, n)).astype(float))


@pytest.mark.parametrize("shape", CRITERION_3_SHAPES)
@pytest.mark.parametrize("delta", [1e-5, 1e-3])
def test_criterion_3_shapes_match_the_one_target_sampler(shape, delta):
    for case in range(3):
        w1, w2 = _grid_pair(shape, [*shape, case])
        z, cap = w1 @ w2, min(shape)
        got = sample_feasible_target(z, cap, delta, draw_directions(case, 12, z.shape))
        assert got.tobytes() == _reference_stack(z, cap, delta, case, 12).tobytes()


@pytest.mark.parametrize("shape", CRITERION_3_SHAPES)
@pytest.mark.parametrize("delta", [1e-5, 1e-3])
def test_trials_stop_at_the_rounding_floor(monkeypatch, shape, delta):
    # a stop test finer than the rounding of (z + r) - z runs all 80
    # rounds, 81 truncations, on some trial of about half of these calls
    calls = []

    def counted(mat, max_rank):
        calls.append(max_rank)
        return truncated_svd(mat, max_rank)

    monkeypatch.setattr(openness, "truncated_svd", counted)
    w1, w2 = _grid_pair(shape, [*shape, 0])
    z, cap = w1 @ w2, min(shape)
    got = sample_feasible_target(z, cap, delta, draw_directions(0, 50, z.shape))
    assert len(calls) <= 3
    floor = 1e-12 * delta + 8.0 * EPS * np.linalg.norm(z)
    assert np.all(np.abs(openness._norms(got - z) - delta) <= floor)
    assert np.all(rank(got) <= cap)


@pytest.mark.parametrize("rank_cap", [0, 1, 2, 3])
def test_every_rank_cap_matches_on_every_path(rank_cap):
    # caps at or above min(m, n) take the copy path, lower caps the SVD
    # path, cap 0 the zero path; z = 0 at cap 0 swallows every move
    rng = np.random.default_rng(rank_cap)
    for m, n in itertools.product((1, 2, 3), repeat=2):
        for z_rank in range(min(m, n) + 1):
            z = rng.standard_normal((m, z_rank)) @ rng.standard_normal((z_rank, n))
            for delta in (1e-9, 1e-4, 0.5):
                g = draw_directions(z_rank, 5, (m, n))
                got = sample_feasible_target(z, rank_cap, delta, g)
                want = _reference_stack(z, rank_cap, delta, z_rank, 5)
                assert got.tobytes() == want.tobytes(), (m, n, z_rank, delta)


def test_the_swallowed_move_matches_at_the_zero_point():
    z = np.zeros((3, 3))
    got = sample_feasible_target(z, 0, 1e-5, draw_directions(4, 6, z.shape))
    assert got.tobytes() == _reference_stack(z, 0, 1e-5, 4, 6).tobytes()
    assert not got.any()


def test_zero_delta_copies_z():
    z = np.arange(6.0).reshape(2, 3)
    got = sample_feasible_target(z, 1, 0.0, draw_directions(0, 3, z.shape))
    assert got.shape == (3, 2, 3)
    assert all(np.array_equal(t, z) for t in got)


def test_no_directions_give_an_empty_stack():
    assert sample_feasible_target(np.eye(2), 1, 1e-3, np.zeros((0, 2, 2))).shape == (0, 2, 2)


def test_each_slice_equals_its_batch_of_one():
    rng = np.random.default_rng(11)
    for (m, n), cap, delta in (((3, 3), 1, 1e-5), ((3, 2), 2, 1e-3), ((2, 3), 0, 1e-4)):
        z = truncated_svd(rng.standard_normal((m, n)), 1)
        g = draw_directions(2, 9, (m, n))
        stack = sample_feasible_target(z, cap, delta, g)
        for t in range(9):
            (alone,) = sample_feasible_target(z, cap, delta, g[t:t + 1])
            assert stack[t].tobytes() == alone.tobytes()


def test_fewer_trials_draw_the_leading_directions():
    g = draw_directions(5, 7, (3, 2))
    assert all(draw_directions(5, t, (3, 2)).tobytes() == g[:t].tobytes() for t in range(7))


@pytest.mark.parametrize("seed", [0, 6, 2**32 - 1, 2**128, 2**160 + 5])
def test_the_directions_are_no_retry_stream(seed):
    # retry round i of seed - i draws from default_rng(seed), which must
    # not be the stream of this seed's directions
    g = draw_directions(seed, 4, (3, 3)).ravel()
    assert not np.isin(g, np.random.default_rng(seed).standard_normal(400)).any()


def test_a_zero_direction_is_redrawn_from_its_own_stream(monkeypatch):
    """A direction of zeros is redrawn from a stream of its trial's
    own, so the redraw, and every other trial, is the same whatever the
    number of trials."""
    real_rng = np.random.default_rng

    class ZeroRowGenerator:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def standard_normal(self, size):
            out = self.rng.standard_normal(size)
            if len(size) == 3:  # the block of every trial's direction
                out[2] = 0.0
            return out

    want = draw_directions(3, 6, (2, 3))
    redrawn = real_rng(np.random.SeedSequence(3, spawn_key=(0, 2))).standard_normal((2, 3))
    monkeypatch.setattr(np.random, "default_rng", ZeroRowGenerator)
    for trials in (3, 6):
        got = draw_directions(3, trials, (2, 3))
        assert got[2].tobytes() == redrawn.tobytes()
        assert np.delete(got, 2, axis=0).tobytes() == np.delete(want[:trials], 2, axis=0).tobytes()


# a pair whose retried trials, when each retry round's jitter was one
# draw over the trials still failing, all moved with the batch
PAIR_14 = ([[-1.0, 1.0], [0.0, 0.0], [-1.0, 1.0]], [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])


def _lm_fit_calls(w1, w2, targets, seed):
    """The arguments of each ``lm_fit`` that ``gauss_newton_recover`` runs
    at delta 1e-5: the first fit's, then the retry fit's if any."""
    calls = []
    lm_fit = numcore.lm_fit

    def recorded(*args):
        calls.append(args)
        return lm_fit(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numcore, "lm_fit", recorded)
        gauss_newton_recover(w1, w2, targets, 1e-5, DEFAULT_TOL, seed=seed)
    return calls


def _retried(w1, w2, targets, seed):
    """Indices of the trials the first fit does not settle."""
    fits = _lm_fit_calls(w1, w2, targets, seed)
    if len(fits) == 1:
        return []
    return [t for t in range(len(targets))
            if any(np.array_equal(targets[t], tg) for tg in fits[1][4])]


def test_a_retried_trial_does_not_depend_on_which_trials_failed_with_it():
    w1, w2 = (np.array(w, dtype=float) for w in PAIR_14)
    z = w1 @ w2
    targets = sample_feasible_target(z, 2, 1e-5, draw_directions(7, 6, z.shape))
    batch = gauss_newton_recover(w1, w2, targets, 1e-5, DEFAULT_TOL, seed=7)
    retried = _retried(w1, w2, targets, 7)
    assert len(retried) >= 3 and batch["success"][retried].all()
    # the first fit settles the product itself at once
    swapped = targets.copy()
    swapped[retried[0]] = z
    assert _retried(w1, w2, swapped, 7) == retried[1:]
    got = gauss_newton_recover(w1, w2, swapped, 1e-5, DEFAULT_TOL, seed=7)
    for key, val in got.items():
        assert val[retried[1:]].tobytes() == batch[key][retried[1:]].tobytes(), key
    # the probe draws these targets; some of its first 3 trials are retried
    assert set(retried) & {0, 1, 2}
    pair = openness.FactorPair(w1, w2)
    six = probe_openness(pair, 1e-5, 6, seed=7)["per_trial"]
    assert probe_openness(pair, 1e-5, 3, seed=7)["per_trial"] == six[:3]


def test_truncated_svd_slices_equal_the_per_matrix_calls():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((4, 2, 3, 3))
    for k in range(4):
        got = truncated_svd(stack, k)
        assert got.shape == stack.shape
        for i, j in itertools.product(range(4), range(2)):
            assert got[i, j].tobytes() == reference_truncated_svd(stack[i, j], k).tobytes()


def test_stacked_norms_equal_np_linalg_norm():
    rng = np.random.default_rng(3)
    for shape in ((1, 1), (2, 3), (3, 3), (5, 7)):
        stack = rng.standard_normal((40, *shape)) * 10.0 ** rng.integers(-8, 8, size=(40, 1, 1))
        want = np.array([np.linalg.norm(mat) for mat in stack])
        assert openness._norms(stack).tobytes() == want.tobytes()


def test_probe_matches_the_one_target_sampler(monkeypatch):
    w1, w2 = _grid_pair((3, 2, 3), 17)
    got = probe_openness(openness.FactorPair(w1, w2), 1e-5, 20, seed=3)

    def one_at_a_time(z, rank_cap, delta, g):
        return np.stack([reference_target(z, rank_cap, delta, row) for row in g])

    monkeypatch.setattr(openness, "sample_feasible_target", one_at_a_time)
    monkeypatch.setattr(numcore, "lm_fit", reference_lm_fit)
    want = probe_openness(openness.FactorPair(w1, w2), 1e-5, 20, seed=3)
    assert got == want


def _outputs_with(monkeypatch, fit, run):
    monkeypatch.setattr(numcore, "lm_fit", fit)
    return {key: val.tobytes() for key, val in run().items()}


def _factor_run(w1, w2, delta, trials, seed):
    w1, w2 = np.array(w1, dtype=float), np.array(w2, dtype=float)
    z, cap = w1 @ w2, min(*w1.shape, w2.shape[1])
    return lambda: gauss_newton_recover(
        w1, w2, sample_feasible_target(z, cap, delta, draw_directions(seed, trials, z.shape)),
        delta, DEFAULT_TOL, seed=seed,
    )


def _sym_run(w, delta, trials, seed):
    w = np.array(w, dtype=float)
    targets = []
    for t in range(trials):
        e = np.random.default_rng([seed, t]).standard_normal(w.shape)
        e *= delta / np.linalg.norm(e)
        targets.append((w + e) @ (w + e).T)
    return lambda: gauss_newton_sym_recover(w, np.stack(targets), delta, seed=seed)


def _lm_runs():
    runs = {name: _factor_run(*case) for name, case in FACTOR_CASES.items()}
    runs.update({name: _sym_run(*case) for name, case in SYM_CASES.items()})
    # the heaviest probes: k = 2 grid pairs that run every retry round,
    # with trials leaving the live set at different iterations
    for shape, seed in (((3, 2, 3), 8), ((3, 2, 2), 19), ((2, 2, 3), 35)):
        w1, w2 = _grid_pair(shape, [seed, 99])
        runs[f"grid_{shape}"] = _factor_run(w1, w2, 1e-5, 16, seed)
    # a rare pair where the first fit fails a trial that the second and
    # third retry rounds accept, and a trial that three rounds accept
    runs["grid_later_round"] = _factor_run(*_grid_pair((3, 1, 2), [38, 5]), 1e-3, 8, 38)
    return runs


@pytest.mark.parametrize("name", sorted(_lm_runs()))
def test_live_trials_lm_fit_matches_the_all_trials_loop(monkeypatch, name):
    run = _lm_runs()[name]
    got = _outputs_with(monkeypatch, numcore.lm_fit, run)
    assert got == _outputs_with(monkeypatch, reference_lm_fit, run)


@pytest.mark.parametrize("name", sorted(_lm_runs()))
def test_stacked_retry_rounds_match_the_one_round_at_a_time_loop(monkeypatch, name):
    run = _lm_runs()[name]
    got = {key: val.tobytes() for key, val in run().items()}
    for module in (openness, symmetric):
        monkeypatch.setattr(module, "lm_recover", reference_lm_recover)
    assert got == {key: val.tobytes() for key, val in run().items()}


def test_the_stop_flips_no_success_on_a_criterion_3_sample(monkeypatch):
    # ending slices beyond twice the cap moves only trials that fail either
    # way: on {-1,0,1} pairs of every criterion-3 shape at delta 1e-5, each
    # trial's success, and every output of a successful trial, equals that
    # of a fit without the stop
    runs = [_factor_run(*_grid_pair(shape, [*shape, case, 3]), 1e-5, 20, case)
            for shape in CRITERION_3_SHAPES for case in range(3)]
    stopped = [run() for run in runs]
    lm_fit = numcore.lm_fit
    monkeypatch.setattr(numcore, "lm_fit", lambda *args: lm_fit(*args[:7], math.inf))
    moved = 0
    for got, run in zip(stopped, runs):
        want = run()
        ok = want["success"]
        assert got["success"].tobytes() == ok.tobytes()
        for key, val in got.items():
            assert val[ok].tobytes() == want[key][ok].tobytes(), key
        moved += int((got["factor_norm"] != want["factor_norm"]).sum())
    assert moved  # the stop ended some slices of this sample


def test_a_slice_beyond_twice_the_cap_stops_there_as_in_a_batch_of_one():
    # the closed pair's sampled targets are reached only 20 to 150 times
    # beyond the probe's cap; a product of nearby factors lies inside it
    w1, w2 = np.array(W1_OPEN), np.array(W2_CLOSED)
    z = w1 @ w2
    sampled = sample_feasible_target(z, 1, 1e-5, draw_directions(0, 6, z.shape))
    near = (w1 + 1e-6 * np.array(E1)) @ (w2 + 1e-6 * np.array(E2))
    targets = np.concatenate([sampled[:3], near[None], sampled[3:]])
    product, jacobian, shapes, x, _, tol, max_iter, cap = _lm_fit_calls(w1, w2, targets, 0)[0]
    slice_steps = []

    def counted(*blocks):
        slice_steps.append(len(blocks[0]))
        return jacobian(*blocks)

    got, res = numcore.lm_fit(product, counted, shapes, x, targets, tol, max_iter, cap)
    stopped_steps = sum(slice_steps)
    free, free_res = numcore.lm_fit(product, counted, shapes, x, targets, tol, max_iter,
                                    math.inf)
    goal = 0.05 * tol.residual_abs
    far = np.linalg.norm(got, axis=1) > 2.0 * cap
    assert far.tolist() == [True] * 3 + [False] + [True] * 3
    assert (res[far] > goal).all() and (free_res <= goal).all()
    assert (np.linalg.norm(free[far], axis=1) > 20.0 * cap).all()
    assert got[3].tobytes() == free[3].tobytes()
    assert stopped_steps < sum(slice_steps) - stopped_steps
    want = reference_lm_fit(product, jacobian, shapes, x, targets, tol, max_iter, cap)
    assert (got.tobytes(), res.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    for t in range(len(targets)):
        one, one_res = numcore.lm_fit(product, jacobian, shapes, x[t:t + 1], targets[t:t + 1],
                                      tol, max_iter, cap)
        assert (one.tobytes(), one_res.tobytes()) == (got[t].tobytes(), res[t:t + 1].tobytes())


def _solve_sizes(monkeypatch, run):
    """Orders of the systems ``np.linalg.solve`` is handed while ``run``
    runs."""
    sizes, solve = set(), np.linalg.solve

    def spy(a, b):
        sizes.add(a.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(numcore.np.linalg, "solve", spy)
    run()
    return sizes


@pytest.mark.parametrize(
    "kind, dims",
    [("factor", shape) for shape in CRITERION_3_SHAPES] + [("sym", (2, 3)), ("sym", (3, 2))],
)
def test_lm_solves_the_smaller_system(monkeypatch, kind, dims):
    # residual entries E against unknowns P: m n against k (m + n) for a
    # factor pair, n n against n k for a symmetric n-by-k factor
    if kind == "factor":
        m, k, n = dims
        run = _factor_run(*_grid_pair(dims, [*dims, 1]), 1e-5, 8, 1)
        want = min(m * n, k * (m + n))
    else:
        n, k = dims
        run = _sym_run(np.random.default_rng(n).standard_normal(dims), 1e-4, 4, 2)
        want = min(n * n, n * k)
    assert _solve_sizes(monkeypatch, run) == {want}


def _product_jacobian(w1, w2):
    """``(dA, dB) -> dA w2 + w1 dB`` on row-major vectors."""
    m, n = w1.shape[0], w2.shape[1]
    return np.hstack([np.kron(np.eye(m), w2.T), np.kron(w1, np.eye(n))])


@pytest.mark.parametrize("shape", [(3, 2, 3), (3, 2, 1), (2, 1, 2), (3, 1, 3), (3, 1, 2)])
@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e2])
def test_smaller_system_step_matches_the_normal_equations(shape, lam):
    # E < P for (3,2,3) and (3,2,1), E = P for (2,1,2), E > P otherwise
    m, k, n = shape
    rng = np.random.default_rng([m, k, n])
    jac, res = [], []
    for _ in range(6):
        q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # factors with singular values in [1, 2]
        s = np.diag(rng.uniform(1.0, 2.0, size=k))
        w1 = q1[:, :k] @ s if k <= m else rng.uniform(1.0, 2.0) * np.eye(m, k)
        w2 = s @ q2[:k] if k <= n else rng.uniform(1.0, 2.0) * np.eye(k, n)
        jac.append(_product_jacobian(w1, w2))
        res.append(rng.standard_normal(m * n))
    jac, res = np.stack(jac), np.stack(res)
    got = _lm_step(jac, res[..., None], np.full(len(jac), lam), np.eye(min(jac.shape[1:])))
    for j, r, step in zip(jac, res, got):
        want = np.linalg.solve(j.T @ j + lam * np.eye(j.shape[1]), -j.T @ r)
        assert np.linalg.norm(step - want) <= 1e-10 * np.linalg.norm(want)
