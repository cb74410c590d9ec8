import numpy as np
import pytest

from openmap.errors import DeltaTooLarge, NotOpen, RankInfeasible
from openmap.matrixio import to_jsonable
from openmap.numcore import DEFAULT_TOL, Tolerances, rank, svd
from openmap.openness import FactorPair, gauss_newton_recover, sample_feasible_target
from openmap.realization import RealizationWitness, measure_delta_ratio, realize


def pair(w1, w2):
    return FactorPair(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))


class TestRealizeBasics:
    def test_identity_target_gives_zero_witness(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        wit = realize(p, p.product)
        assert wit.delta_norm == 0.0
        assert wit.target_residual == 0.0
        assert wit.input_delta == 0.0

    def test_invertible_left_factor(self):
        rng = np.random.default_rng(0)
        p = pair(np.eye(2), np.eye(2))
        r = 1e-6 * rng.standard_normal((2, 2))
        wit = realize(p, np.eye(2) + r)
        assert np.allclose(wit.delta_w1, 0.0)
        assert np.allclose(wit.delta_w2, r, atol=1e-15)
        assert wit.target_residual <= 1e-14

    def test_rank_one_pair_small_target(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        rng = np.random.default_rng(1)
        target = sample_feasible_target(p.product, 1, 1e-6, rng)
        wit = realize(p, target)
        assert wit.target_residual <= 1e-10
        assert wit.delta_norm <= 100 * 1e-6
        # the independent recovery oracle agrees the target is reachable
        oracle = gauss_newton_recover(
            p.w1, p.w2, target[None], wit.input_delta, DEFAULT_TOL
        )
        assert bool(oracle["success"][0])

    def test_product_decomposed_once(self, monkeypatch):
        # rank-deficient regime: the realization reuses the product SVD
        # that the openness check made
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        target = sample_feasible_target(p.product, 1, 1e-6, np.random.default_rng(1))
        product_svds = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if np.array_equal(a, p.product):
                product_svds.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        wit = realize(p, target)
        assert wit.target_residual <= 1e-10
        assert product_svds == [(2, 2)]

    def test_not_open_refused(self):
        p = pair([[1.0], [1.0]], [[0.0, 0.0]])
        target = np.array([[1e-4, 0.0], [0.0, 0.0]])
        with pytest.raises(NotOpen):
            realize(p, target)

    def test_rank_infeasible_refused(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        with pytest.raises(RankInfeasible):
            realize(p, p.product + 0.5 * np.eye(2))

    def test_delta_too_large_reports_radius(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        sigma_min = np.linalg.svd(p.product, compute_uv=False)[0]
        big = sample_feasible_target(
            p.product, 1, 2.0 * sigma_min, np.random.default_rng(3)
        )
        with pytest.raises(DeltaTooLarge) as err:
            realize(p, big)
        assert err.value.delta0 == pytest.approx(sigma_min / 2.0)

    def test_zero_point_realizes_any_small_target(self):
        p = pair(np.zeros((3, 2)), np.zeros((2, 3)))
        target = sample_feasible_target(
            np.zeros((3, 3)), 2, 1e-6, np.random.default_rng(4)
        )
        wit = realize(p, target)
        assert wit.target_residual <= 1e-10
        # witnesses at the zero point scale like sqrt(delta)
        assert wit.delta_norm <= 10 * np.sqrt(1e-6)


class TestRealizeRankDeficientStructure:
    def test_low_rank_factors_with_new_rank_direction(self):
        w1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        w2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        # open after fixing the intersection: swap w2's second row so the
        # column space of w2 avoids the null space of w1
        w2 = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
        w1 = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        p = pair(w1, w2)
        target = sample_feasible_target(
            p.product, 2, 1e-5, np.random.default_rng(5)
        )
        wit = realize(p, target)
        assert wit.target_residual <= 1e-10
        assert rank(p.w1 + wit.delta_w1) <= 2
        oracle = gauss_newton_recover(
            p.w1, p.w2, target[None], wit.input_delta, DEFAULT_TOL
        )
        assert bool(oracle["success"][0])

    def test_round_trip_under_orthogonal_change_of_basis(self):
        rng = np.random.default_rng(6)
        w1 = rng.standard_normal((4, 2))
        w2 = rng.standard_normal((2, 5))
        p = pair(w1, w2)
        u, _, v = svd(p.product)
        target = sample_feasible_target(p.product, 2, 1e-4, rng)
        wit = realize(p, target)
        rotated = pair(u.T @ w1, w2 @ v)
        wit_rot = realize(rotated, u.T @ target @ v)
        assert abs(wit.delta_norm - wit_rot.delta_norm) <= 1e-10

    def test_seeded_pairs_full_relative_ratio_stability(self):
        rng = np.random.default_rng(7)
        deltas = [1e-3, 1e-5, 1e-7, 1e-9]
        for _ in range(5):
            m, n = (int(x) for x in rng.integers(3, 7, size=2))
            k = int(rng.integers(1, min(m, n)))
            p = pair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
            ratios = []
            for d_i, delta in enumerate(deltas):
                target = sample_feasible_target(
                    p.product, k, delta, np.random.default_rng([7, d_i])
                )
                wit = realize(p, target)
                assert wit.target_residual <= 1e-10
                ratios.append(wit.delta_norm / wit.input_delta)
            assert max(ratios) / min(ratios) < 10.0


class TestMeasureDeltaRatio:
    def test_open_rank_one_pair_bounded_ratios(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        table = measure_delta_ratio(p, [1e-3, 1e-5, 1e-7], trials=4)
        assert len(table) == 3
        assert all(row["successes"] == 4 for row in table)
        ratios = [row["max_ratio"] for row in table]
        assert max(ratios) / min(ratios) < 10.0

    def test_invertible_pair_ratio_matches_inverse_norm(self):
        rng = np.random.default_rng(8)
        w1 = rng.standard_normal((3, 3))
        p = pair(w1, rng.standard_normal((3, 3)))
        table = measure_delta_ratio(p, [1e-5], trials=6)
        inv_norm = np.linalg.norm(np.linalg.inv(w1), 2)
        assert table[0]["max_ratio"] <= inv_norm * (1.0 + 1e-8)
        assert table[0]["max_ratio"] >= 0.05 * inv_norm

    def test_empty_delta_list(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        assert measure_delta_ratio(p, [], trials=3) == []

    def test_errors_recorded_not_raised(self):
        p = pair([[1.0], [1.0]], [[0.0, 0.0]])  # not open
        table = measure_delta_ratio(p, [1e-5], trials=2)
        assert table[0]["successes"] == 0
        assert table[0]["errors"] == ["NotOpen", "NotOpen"]


class TestWitnessPayload:
    def test_payload_round_trip(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        wit = realize(p, p.product)
        payload = to_jsonable(wit)
        assert payload["delta_norm"] == 0.0
        assert payload["delta_w1"]["rows"] == 2
