import numpy as np
import pytest

from openmap.errors import DeltaTooLarge, InputError, NotOpen, NumericalFailure, RankInfeasible
from openmap.matrixio import to_jsonable
from openmap.numcore import DEFAULT_TOL, Tolerances, rank, svd
from openmap.openness import (
    REGIME_FULL,
    FactorPair,
    _openness_and_spectra,
    check_openness,
    gauss_newton_recover,
    null_completion,
    sample_feasible_target,
)
from openmap import realization
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
        (target,) = sample_feasible_target(p.product, 1, 1e-6, rng.standard_normal((1, 2, 2)))
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
        # that the openness check made, and the column classification
        # reuses the target's: one SVD each of w1, w2, the product and the
        # target
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        (target,) = sample_feasible_target(
            p.product, 1, 1e-6, np.random.default_rng(1).standard_normal((1, 2, 2)))
        svds = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svds.append(np.array(a, copy=True))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        wit = realize(p, target)
        assert wit.target_residual <= 1e-10
        assert sum(np.array_equal(a, p.product) for a in svds) == 1
        assert sum(np.array_equal(a, target) for a in svds) == 1
        assert len(svds) == 4

    def test_a_rank_raising_realize_takes_six_svds(self, monkeypatch):
        # r < k at the ratio-sweep golden pair: eight scale candidates, none
        # decomposed; the SVDs are the spectra of the target, w1, w2 and the
        # product, and the openness check's two principal-angle SVDs
        p = pair([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        (target,) = sample_feasible_target(
            p.product, 2, 1e-3, np.random.default_rng([0, 0, 0]).standard_normal((1, 3, 3)))
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        wit = realize(p, target)
        assert len(calls) == 6
        assert wit.delta_norm == 0.029011546029110224

    def test_not_open_refused(self):
        p = pair([[1.0], [1.0]], [[0.0, 0.0]])
        target = np.array([[1e-4, 0.0], [0.0, 0.0]])
        with pytest.raises(NotOpen):
            realize(p, target)

    def test_mis_shaped_target_is_an_input_error(self):
        p = pair(np.ones((3, 1)), np.ones((1, 3)))
        with pytest.raises(InputError):
            realize(p, np.eye(2))

    def test_rank_infeasible_refused(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        with pytest.raises(RankInfeasible):
            realize(p, p.product + 0.5 * np.eye(2))

    def test_delta_too_large_reports_radius(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        sigma_min = np.linalg.svd(p.product, compute_uv=False)[0]
        (big,) = sample_feasible_target(
            p.product, 1, 2.0 * sigma_min, np.random.default_rng(3).standard_normal((1, 2, 2))
        )
        with pytest.raises(DeltaTooLarge) as err:
            realize(p, big)
        assert err.value.delta0 == pytest.approx(sigma_min / 2.0)

    def test_the_chooser_keeps_the_first_least_norm_candidate_that_meets_the_target(self):
        p = pair(np.eye(2), np.eye(2))
        r = np.array([[1e-3, 0.0], [0.0, 0.0]])
        zero = np.zeros((2, 2))
        candidates = [
            (zero, np.full((2, 2), np.nan)),  # a NaN residual never meets the target
            (zero, 0.5 * r),  # smaller, but misses by 5e-4
            (zero, r),
            (r, zero),  # meets at the same norm: the first one stays
        ]
        wit = realization._least_witness(candidates, p, np.eye(2) + r, 1e-3, DEFAULT_TOL, None)
        assert wit.delta_w1 is zero and wit.delta_w2 is candidates[2][1]
        assert (wit.target_residual, wit.delta_norm, wit.input_delta) == (0.0, 1e-3, 1e-3)
        with pytest.raises(NumericalFailure, match="least residual 5.000e-04"):
            realization._least_witness(candidates[:2], p, np.eye(2) + r, 1e-3, DEFAULT_TOL, None)

    def test_zero_point_realizes_any_small_target(self):
        p = pair(np.zeros((3, 2)), np.zeros((2, 3)))
        (target,) = sample_feasible_target(
            np.zeros((3, 3)), 2, 1e-6, np.random.default_rng(4).standard_normal((1, 3, 3))
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
        (target,) = sample_feasible_target(
            p.product, 2, 1e-5, np.random.default_rng(5).standard_normal((1, 3, 3))
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
        (target,) = sample_feasible_target(
            p.product, 2, 1e-4, rng.standard_normal((1, *p.product.shape)))
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
                (target,) = sample_feasible_target(
                    p.product, k, delta,
                    np.random.default_rng([7, d_i]).standard_normal((1, m, n))
                )
                wit = realize(p, target)
                assert wit.target_residual <= 1e-10
                ratios.append(wit.delta_norm / wit.input_delta)
            assert max(ratios) / min(ratios) < 10.0


def _open_completion_pairs(seed, count):
    """``count`` seeded (pair, target) cases of the full-rank regime that
    are open with neither factor full rank on its side, so ``realize``
    must complete a factor inside the null space of the other; targets
    sit at distances 1e-8 to 1e-3 from the product."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        m, n = (int(x) for x in rng.integers(2, 5, size=2))
        k = int(rng.integers(min(m, n), 6))
        r1 = int(rng.integers(0, min(m, k)))
        r2 = int(rng.integers(0, min(k, n)))
        p = pair(rng.standard_normal((m, r1)) @ rng.standard_normal((r1, k)),
                 rng.standard_normal((k, r2)) @ rng.standard_normal((r2, n)))
        rep = check_openness(p)
        if rep.regime == REGIME_FULL and rep.open and rep.rank_w1 < m and rep.rank_w2 < n:
            g = rng.standard_normal((m, n))
            delta = 10.0 ** rng.uniform(-8, -3)
            cases.append((p, p.product + delta * g / np.linalg.norm(g)))
    return cases


class TestRealizeFullRankCompletion:
    # w1 = diag(1, 1, 0), w2 = e1 e1ᵀ: open through both one-sided
    # completions, neither factor full rank on its side
    W1 = np.diag([1.0, 1.0, 0.0])
    W2 = np.eye(3, 2) * [1.0, 0.0]
    TARGET = W1 @ W2 + 1e-4 * (np.arange(6.0).reshape(3, 2) - 2.5)

    def test_seeded_open_pairs_all_realized(self):
        for p, target in _open_completion_pairs(20, 120):
            wit = realize(p, target)
            assert wit.target_residual <= (
                DEFAULT_TOL.residual_abs * max(1.0, np.linalg.norm(target))
            )

    def test_each_fixed_factor_decomposed_once(self, monkeypatch):
        # null_completion reads both fixed factors' null bases and singular
        # values off the openness check's spectra, the caller does not
        # re-check the ranks it verified, and each completed factor's
        # pseudo-inverse comes from the SVD that verified its rank
        calls, pinv_calls = [], []
        real_svd, real_pinv = np.linalg.svd, np.linalg.pinv

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        def counting_pinv(a, *args, **kwargs):
            pinv_calls.append(np.shape(a))
            return real_pinv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        wit = realize(pair(self.W1, self.W2), self.TARGET)
        assert len(calls) <= 16
        assert pinv_calls == []
        assert wit.delta_norm == 0.020453117446174833

    def test_completion_svds_give_numpy_pinv_bit_for_bit(self):
        # realize forms each completed factor's pseudo-inverse from the SVD
        # null_completion returns, as np.linalg.pinv forms it; on the w1
        # side the SVD is of w1 + wt1, not of the completed w1.T
        checked = {False: 0, True: 0}
        for p, _ in _open_completion_pairs(22, 40):
            _, sp1, sp2, _, null1, null2t = _openness_and_spectra(p, DEFAULT_TOL)
            for transposed, w, basis, sp in (
                (True, p.w1.T, null2t, sp1.T),
                (False, p.w2, null1, sp2),
            ):
                (c,) = null_completion(w, basis, sp, transposed=transposed)
                if c is None:
                    continue
                wt, u, sv, v = c
                done = (w + wt).T if transposed else w + wt
                assert np.array_equal(v @ ((1 / sv)[:, None] * u.T), np.linalg.pinv(done))
                checked[transposed] += 1
        assert min(checked.values()) > 0


@pytest.mark.parametrize("side", ["w1", "w2"])
def test_a_factor_full_rank_on_its_side_is_inverted_off_its_spectrum(monkeypatch, side):
    # a Gaussian 3x3 w1 with a 3x4 w2, or a 4x3 w1 with a 3x3 w2: the
    # square factor is inverted off the openness check's spectrum, with no
    # pinv and no SVD beyond one each of w1, w2, the product and the target
    rng = np.random.default_rng(23)
    w1, w2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 4))
    if side == "w2":
        w1, w2 = w2.T, w1
    p = pair(w1, w2)
    g = rng.standard_normal(p.product.shape)
    target = p.product + 1e-4 * g / np.linalg.norm(g)
    svd_calls, pinv_calls = [], []
    real_svd, real_pinv = np.linalg.svd, np.linalg.pinv

    def counting_svd(a, *args, **kwargs):
        svd_calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def counting_pinv(a, *args, **kwargs):
        pinv_calls.append(np.shape(a))
        return real_pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    wit = realize(p, target)
    assert pinv_calls == [] and len(svd_calls) <= 4
    moved = wit.delta_w2 if side == "w1" else wit.delta_w1
    assert not (wit.delta_w1 if side == "w1" else wit.delta_w2).any()
    want = (real_pinv(w1) @ (target - p.product) if side == "w1"
            else (target - p.product) @ real_pinv(w2))
    assert np.allclose(moved, want, rtol=1e-12, atol=0.0)
    assert wit.target_residual <= 1e-14


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

    @pytest.mark.parametrize("deltas", [[np.nan], [1e-3, np.inf]])
    def test_non_finite_delta_rejected(self, deltas):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        with pytest.raises(InputError, match="delta must be finite"):
            measure_delta_ratio(p, deltas, trials=2)

    def test_empty_delta_list(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        assert measure_delta_ratio(p, [], trials=3) == []

    def test_zero_trials_give_empty_rows(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        table = measure_delta_ratio(p, [1e-3], trials=0)
        assert table[0]["successes"] == 0 and table[0]["max_ratio"] is None

    def test_errors_recorded_not_raised(self):
        p = pair([[1.0], [1.0]], [[0.0, 0.0]])  # not open
        table = measure_delta_ratio(p, [1e-5], trials=2)
        assert table[0]["successes"] == 0
        assert table[0]["errors"] == ["NotOpen", "NotOpen"]

    def test_an_error_outside_the_library_propagates(self, monkeypatch):
        # only OpenMapError is a per-trial refusal; a programming error in
        # realize must stop the sweep, not be tallied as a refused trial
        def broken_realize(*args):
            raise TypeError("broken")

        monkeypatch.setattr(realization, "realize", broken_realize)
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        with pytest.raises(TypeError, match="broken"):
            measure_delta_ratio(p, [1e-5], trials=3)


class TestWitnessPayload:
    def test_payload_round_trip(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        wit = realize(p, p.product)
        payload = to_jsonable(wit)
        assert payload["delta_norm"] == 0.0
        assert payload["delta_w1"]["rows"] == 2
