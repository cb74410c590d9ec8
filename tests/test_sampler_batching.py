"""``sample_feasible_target`` runs its fixed-point rounds on a stack of
trials, and ``lm_fit`` iterates only the trials still live; these tests
pin both, bit for bit, to the one-target-at-a-time sampler and the
all-trials Levenberg-Marquardt loop they replaced, which are kept here as
the references."""

import itertools

import numpy as np
import pytest

from openmap import numcore, openness
from openmap.numcore import DEFAULT_TOL, EPS, _lm_step, rank, truncated_svd
from openmap.openness import gauss_newton_recover, probe_openness, sample_feasible_target
from openmap.symmetric import gauss_newton_sym_recover
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


def reference_target(z, rank_cap, delta, rng, iters=80):
    """The sampler as it was before batching, one target per call, with
    the stop test at the rounding floor of ``(z + r) - z``."""
    if delta == 0.0:
        return z.copy()
    floor = 1e-12 * delta + 8.0 * EPS * np.linalg.norm(z)
    for _ in range(8):
        g = rng.standard_normal(z.shape)
        norm = np.linalg.norm(g)
        if norm > 0:
            break
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


def reference_lm_fit(product, jacobian, shapes, targets, tol, max_iter, init_scale, seed):
    """``lm_fit`` as it was before live-trial slicing, solving the smaller
    of its two normal systems: every iteration computes the step of every
    trial and keeps the active ones."""
    t_count = targets.shape[0]
    rng = np.random.default_rng(seed)
    if init_scale > 0.0:
        blocks = [rng.normal(scale=init_scale, size=(t_count, *s)) for s in shapes]
    else:
        blocks = [np.zeros((t_count, *s)) for s in shapes]
    offsets = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    entries = int(np.prod(targets.shape[1:]))
    eye = np.eye(min(entries, offsets[-1]))
    lam = np.full(t_count, 1e-4)
    res = product(*blocks) - targets
    res_norm = np.linalg.norm(res.reshape(t_count, -1), axis=1)
    goal = 0.05 * tol.residual_abs
    for _ in range(max_iter):
        active = (res_norm > goal) & (lam < 1e14)
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
    return blocks, res_norm


def _rngs(seed, trials):
    return [np.random.default_rng([seed, t]) for t in range(trials)]


def _reference_stack(z, rank_cap, delta, seed, trials):
    return np.stack([reference_target(z, rank_cap, delta, rng) for rng in _rngs(seed, trials)])


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
        got = sample_feasible_target(z, cap, delta, _rngs(case, 12))
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
    got = sample_feasible_target(z, cap, delta, _rngs(0, 50))
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
                got = sample_feasible_target(z, rank_cap, delta, _rngs(z_rank, 5))
                want = _reference_stack(z, rank_cap, delta, z_rank, 5)
                assert got.tobytes() == want.tobytes(), (m, n, z_rank, delta)


def test_the_swallowed_move_matches_at_the_zero_point():
    z = np.zeros((3, 3))
    got = sample_feasible_target(z, 0, 1e-5, _rngs(4, 6))
    assert got.tobytes() == _reference_stack(z, 0, 1e-5, 4, 6).tobytes()
    assert not got.any()


def test_zero_delta_copies_z_and_draws_nothing():
    z = np.arange(6.0).reshape(2, 3)
    rngs = _rngs(0, 3)
    got = sample_feasible_target(z, 1, 0.0, rngs)
    assert got.shape == (3, 2, 3)
    assert all(np.array_equal(t, z) for t in got)
    assert rngs[0].standard_normal() == np.random.default_rng([0, 0]).standard_normal()


def test_no_generators_give_an_empty_stack():
    assert sample_feasible_target(np.eye(2), 1, 1e-3, []).shape == (0, 2, 2)


def test_each_slice_equals_its_batch_of_one():
    rng = np.random.default_rng(11)
    for (m, n), cap, delta in (((3, 3), 1, 1e-5), ((3, 2), 2, 1e-3), ((2, 3), 0, 1e-4)):
        z = truncated_svd(rng.standard_normal((m, n)), 1)
        stack = sample_feasible_target(z, cap, delta, _rngs(2, 9))
        for t, rng_t in enumerate(_rngs(2, 9)):
            (alone,) = sample_feasible_target(z, cap, delta, [rng_t])
            assert stack[t].tobytes() == alone.tobytes()


def test_trials_settled_by_the_first_fit_equal_their_batch_of_one(monkeypatch):
    # the first fit, from the zero start, settles three of these eight
    # trials; the retry rounds then run on the other five.  A retried
    # trial's jitter depends on which trials failed with it, so only the
    # first fit and the trials it settles are batch-independent.
    w1, w2 = _grid_pair((3, 2, 3), 168)
    targets = sample_feasible_target(w1 @ w2, 2, 1e-3, _rngs(168, 8))
    fits = []
    lm_fit = numcore.lm_fit

    def recorded(*args):
        blocks, res_norm = lm_fit(*args)
        # copies: lm_recover writes retry results into the arrays returned
        fits.append((args, ([blk.copy() for blk in blocks], res_norm.copy())))
        return blocks, res_norm

    monkeypatch.setattr(numcore, "lm_fit", recorded)
    batch = gauss_newton_recover(w1, w2, targets, 1e-3, DEFAULT_TOL, seed=168)
    (product, jacobian, shapes, _, *rest), (blocks, res_norm) = fits[0]
    assert [len(args[3]) for args, _ in fits[:2]] == [8, 5]
    settled = 0
    for t in range(8):
        blocks_alone, res_alone = lm_fit(product, jacobian, shapes,
                                         targets[t:t + 1], *rest)
        assert res_alone.tobytes() == res_norm[t:t + 1].tobytes()
        assert all(one.tobytes() == blk[t:t + 1].tobytes()
                   for one, blk in zip(blocks_alone, blocks))
        fits.clear()
        alone = gauss_newton_recover(w1, w2, targets[t:t + 1], 1e-3, DEFAULT_TOL, seed=168)
        if len(fits) == 1:
            settled += 1
            assert all(val[0].tobytes() == batch[key][t].tobytes()
                       for key, val in alone.items())
    assert settled == 3


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

    def one_at_a_time(z, rank_cap, delta, rngs):
        return np.stack([reference_target(z, rank_cap, delta, rng) for rng in rngs])

    monkeypatch.setattr(openness, "sample_feasible_target", one_at_a_time)
    monkeypatch.setattr(numcore, "lm_fit", reference_lm_fit)
    want = probe_openness(openness.FactorPair(w1, w2), 1e-5, 20, seed=3)
    assert got == want


def _outputs_with(monkeypatch, fit, run):
    monkeypatch.setattr(numcore, "lm_fit", fit)
    return {key: val.tobytes() for key, val in run().items()}


def _factor_run(w1, w2, delta, trials, seed):
    w1, w2 = np.array(w1, dtype=float), np.array(w2, dtype=float)
    cap = min(*w1.shape, w2.shape[1])
    return lambda: gauss_newton_recover(
        w1, w2, sample_feasible_target(w1 @ w2, cap, delta, _rngs(seed, trials)),
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
    return runs


@pytest.mark.parametrize("name", sorted(_lm_runs()))
def test_live_trials_lm_fit_matches_the_all_trials_loop(monkeypatch, name):
    run = _lm_runs()[name]
    got = _outputs_with(monkeypatch, numcore.lm_fit, run)
    assert got == _outputs_with(monkeypatch, reference_lm_fit, run)


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
    got = _lm_step(jac, res[..., None], np.full(len(jac), lam))
    for j, r, step in zip(jac, res, got):
        want = np.linalg.solve(j.T @ j + lam * np.eye(j.shape[1]), -j.T @ r)
        assert np.linalg.norm(step - want) <= 1e-10 * np.linalg.norm(want)
