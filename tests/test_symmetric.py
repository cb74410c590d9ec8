import numpy as np
import pytest

from openmap.errors import (
    DeltaTooLarge,
    InputError,
    NotPSD,
    NumericalFailure,
    RadicandNegative,
    RankInfeasible,
)
from openmap.numcore import DEFAULT_TOL, Tolerances, rank
from openmap.symmetric import (
    certify_bm_transfer,
    gauss_newton_sym_recover,
    solve_p,
    solve_p_delta0,
    sym_realize,
)


def random_symmetric(rng, n, scale):
    g = rng.standard_normal((n, n))
    r = 0.5 * (g + g.T)
    return r * (scale / np.abs(r).max())


def criterion_6_factor(rng, i):
    """A factor drawn as selftest criterion 6 draws it (zero columns,
    rank one and zero by turns), at a scale between 1e-4 and 1e4."""
    n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    w = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-4.0, 4.0)
    if i % 4 == 1 and k > 1:
        w[:, : int(rng.integers(1, k))] = 0.0
    elif i % 4 == 2:
        w = w @ np.ones((k, 1)) @ np.ones((1, k)) / k
    elif i % 4 == 3:
        w[:] = 0.0
    return w


class TestGramRank:
    def test_eigenvalue_rank_agrees_with_the_svd_rank(self):
        # the rank of w @ w.T is read off its eigenvalues; it must be the
        # rank the SVD gives
        rng = np.random.default_rng(20180307)
        for i in range(2400):
            w = criterion_6_factor(rng, i)
            assert certify_bm_transfer(w).rank == rank(w @ w.T)

    def test_an_overflowing_gram_matrix_is_a_numerical_failure(self):
        # w is finite, w @ w.T is not
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
            certify_bm_transfer([[1e200]])
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
            sym_realize([[1e200]], [[1.0]])


class TestSolveP:
    def test_zero_rhs(self):
        res = solve_p([1.0, 2.0, 3.0], np.zeros((3, 3)))
        assert np.allclose(res.p, 0.0)
        assert res.residual == 0.0

    def test_scalar_quadratic(self):
        # 2P + P^2 = 0.21 has the non-negative root sqrt(1.21) - 1 = 0.1
        res = solve_p([1.0], np.array([[0.21]]))
        assert res.p[0, 0] == pytest.approx(0.1, abs=1e-14)
        assert res.residual <= 1e-14

    def test_small_random_instance(self):
        rng = np.random.default_rng(0)
        sigma = rng.uniform(0.5, 2.0, size=4)
        r = random_symmetric(rng, 4, 1e-6)
        res = solve_p(sigma, r)
        assert res.residual <= 1e-12
        assert res.p_inf_norm <= 3.0 * np.abs(r).max()
        assert np.allclose(np.tril(res.p, -1), 0.0)

    def test_equations_hold_individually(self):
        rng = np.random.default_rng(1)
        sigma = rng.uniform(0.5, 2.0, size=6)
        r = random_symmetric(rng, 6, solve_p_delta0(sigma))
        res = solve_p(sigma, r)
        recon = res.p + res.p.T + (res.p * (1.0 / sigma)) @ res.p.T
        assert np.abs(recon - r).max() <= 1e-12

    def test_sharper_bound_for_tiny_perturbations(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            sigma = rng.uniform(0.5, 2.0, size=n)
            r = random_symmetric(rng, n, 1e-8 * rng.uniform(0.1, 1.0))
            res = solve_p(sigma, r)
            assert res.p_inf_norm / np.abs(r).max() <= 2.2

    def test_radicand_guard(self):
        with pytest.raises(RadicandNegative) as err:
            solve_p([1.0], np.array([[-0.9]]))
        assert err.value.index == 0
        assert err.value.delta0 == pytest.approx(1.0 / 8.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            solve_p([1.0, 1.0], np.array([[0.0, 1e-3], [0.0, 0.0]]))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InputError):
            solve_p([1.0, 0.0], np.zeros((2, 2)))


class TestSymRealize:
    def test_exact_target_zero_witness(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 2))
        wit = sym_realize(w, w @ w.T)
        assert wit.a_norm <= 1e-12
        assert wit.residual <= 1e-12

    def test_identity_full_rank(self):
        rng = np.random.default_rng(4)
        r = random_symmetric(rng, 2, 1e-6)
        wit = sym_realize(np.eye(2), np.eye(2) + r)
        assert wit.residual <= 1e-12
        assert wit.a_norm <= 1e-4

    def test_rank_deficient_factor(self):
        w = np.array([[1.0], [1.0]])
        rng = np.random.default_rng(5)
        e = 1e-5 * rng.standard_normal(w.shape)
        target = (w + e) @ (w + e).T
        wit = sym_realize(w, target)
        assert wit.residual <= 1e-10
        assert wit.a_norm <= wit.bound_coefficient * wit.input_delta * (1 + 1e-9)

    def test_zero_factor_sqrt_scale(self):
        w = np.zeros((3, 2))
        rng = np.random.default_rng(6)
        e = 1e-4 * rng.standard_normal(w.shape)
        target = e @ e.T
        wit = sym_realize(w, target)
        assert wit.residual <= 1e-12
        assert wit.a_norm <= 10 * np.sqrt(np.linalg.norm(target))

    def test_residual_exact_on_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            w = rng.standard_normal((n, k))
            if rng.random() < 0.4 and k > 1:
                w[:, rng.integers(0, k)] = 0.0
            e = 1e-6 * rng.standard_normal((n, k))
            target = (w + e) @ (w + e).T
            try:
                wit = sym_realize(w, target)
            except DeltaTooLarge:
                continue
            assert wit.residual <= 1e-10 * max(1.0, np.linalg.norm(target))

    def test_bound_formula_on_rank_preserving_targets(self):
        # column-space-preserving perturbations keep the trailing block
        # second order, where the linear coefficient bound is sharp
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            w = rng.standard_normal((n, k))
            x = 1e-6 * rng.standard_normal((n, n))
            wt = (np.eye(n) + x) @ w
            target = wt @ wt.T
            try:
                wit = sym_realize(w, target)
            except DeltaTooLarge:
                continue
            assert wit.residual <= 1e-10 * max(1.0, np.linalg.norm(target))
            if wit.bound_coefficient is not None and wit.input_delta > 0:
                assert wit.a_norm <= wit.bound_coefficient * wit.input_delta * (
                    1 + 1e-6
                )

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 2))
        e = 1e-5 * rng.standard_normal(w.shape)
        target = (w + e) @ (w + e).T
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        wit = sym_realize(w, target)
        wit_rot = sym_realize(q @ w, q @ target @ q.T)
        assert abs(wit.a_norm - wit_rot.a_norm) <= 1e-10

    def test_not_psd_rejected(self):
        w = np.eye(2)
        with pytest.raises(NotPSD):
            sym_realize(w, np.diag([1.0, -0.5]))

    def test_rank_infeasible_rejected(self):
        w = np.array([[1.0], [0.0], [0.0]])
        with pytest.raises(RankInfeasible):
            sym_realize(w, np.eye(3))

    def test_delta_too_large_reports_radius(self):
        w = np.array([[1.0], [0.0]])
        target = np.diag([9.0, 0.0])
        with pytest.raises(DeltaTooLarge) as err:
            sym_realize(w, target)
        assert err.value.delta0 == pytest.approx(0.5)

    def test_agrees_with_oracle(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((3, 2))
        e = 1e-5 * rng.standard_normal(w.shape)
        target = (w + e) @ (w + e).T
        wit = sym_realize(w, target)
        oracle = gauss_newton_sym_recover(w, target[None], wit.input_delta)
        assert bool(oracle["success"][0])


class TestCertify:
    def test_always_open(self):
        rng = np.random.default_rng(10)
        for shape in [(2, 1), (3, 3), (4, 2)]:
            cert = certify_bm_transfer(rng.standard_normal(shape))
            assert cert.open

    def test_zero_point_flagged(self):
        cert = certify_bm_transfer(np.zeros((3, 2)))
        assert cert.open
        assert cert.zero_rank_degraded
        assert cert.sigma_min is None

    def test_full_rank_coefficient_formula(self):
        w = 2.0 * np.eye(3)
        cert = certify_bm_transfer(w)
        r, smin = 3, 4.0
        expected = (3 * r**2.5 + np.sqrt(2 * r) + np.sqrt(smin)) / np.sqrt(smin)
        assert cert.bound_coefficient == pytest.approx(expected)
