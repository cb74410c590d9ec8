import itertools

import numpy as np
import pytest

from openmap import openness
from openmap.errors import IllConditioned, InputError, NotOpen, NumericalFailure
from openmap.numcore import DEFAULT_TOL, rank, spectrum, truncated_svd
from openmap.openness import (
    REGIME_DEFICIENT,
    REGIME_FULL,
    FactorPair,
    _openness_and_spectra,
    check_openness,
    construct_witnesses,
    gauss_newton_recover,
    null_completion,
    probe_openness,
    sample_feasible_target,
)


def pair(w1, w2):
    return FactorPair(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))


class TestCheckOpenness:
    def test_rank_one_open_point(self):
        rep = check_openness(pair([[1.0], [2.0]], [[1.0, 1.0]]))
        assert rep.regime == REGIME_DEFICIENT
        assert rep.open
        assert rep.rank_w1 == rep.rank_w2 == 1
        assert rep.intersection_dim == 0

    def test_unequal_ranks_not_open(self):
        rep = check_openness(pair([[1.0], [1.0]], [[0.0, 0.0]]))
        assert rep.regime == REGIME_DEFICIENT
        assert not rep.open
        assert not rep.condition_flags["rank_equal"]

    def test_zero_point_open(self):
        rep = check_openness(pair(np.zeros((3, 2)), np.zeros((2, 3))))
        assert rep.regime == REGIME_DEFICIENT
        assert rep.open
        assert rep.rank_w1 == rep.rank_w2 == 0
        assert rep.intersection_dim == 0

    def test_full_rank_regime_with_witness(self):
        w1 = np.array([[1.0, 0.0]])
        w2 = np.array([[0.0], [0.0]])
        rep = check_openness(pair(w1, w2))
        assert rep.regime == REGIME_FULL
        assert rep.open
        # the explicit completion: w1 @ wt2 = 0 and w2 + wt2 full column rank
        wt2 = np.array([[0.0], [1.0]])
        assert np.allclose(w1 @ wt2, 0.0)
        assert rank(w2 + wt2) == 1

    def test_nontrivial_intersection_not_open(self):
        w1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        w2 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rep = check_openness(pair(w1, w2))
        assert rep.regime == REGIME_DEFICIENT
        assert rep.condition_flags["rank_equal"]
        assert rep.intersection_dim == 1
        assert not rep.open

    def test_full_rank_factors_always_open(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m, n = rng.integers(3, 6, size=2)
            k = int(rng.integers(1, min(m, n)))
            rep = check_openness(
                pair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
            )
            assert rep.open

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            m, n = (int(x) for x in rng.integers(1, 5, size=2))
            k = int(rng.integers(1, 5))
            w1 = rng.standard_normal((m, k))
            w2 = rng.standard_normal((k, n))
            if rng.random() < 0.6:
                w1 = truncated_svd(w1, int(rng.integers(0, min(m, k) + 1)))
            if rng.random() < 0.6:
                w2 = truncated_svd(w2, int(rng.integers(0, min(k, n) + 1)))
            p = pair(w1, w2)
            assert check_openness(p).open == check_openness(FactorPair(p.w2.T, p.w1.T)).open

    def test_flags_all_equal_when_ranks_match(self):
        entries = (-1.0, 0.0, 1.0)
        for vals1 in itertools.product(entries, repeat=2):
            for vals2 in itertools.product(entries, repeat=2):
                w1 = np.array(vals1).reshape(2, 1)
                w2 = np.array(vals2).reshape(1, 2)
                rep = check_openness(pair(w1, w2))
                f = rep.condition_flags
                if f["rank_equal"]:
                    assert (
                        f["condition_i"]
                        == f["condition_ii"]
                        == f["condition_iii"]
                        == f["condition_iv"]
                    )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            pair(np.eye(2), np.eye(3))

    def test_a_product_that_overflows_is_a_numerical_failure(self):
        # both factors are finite, w1 @ w2 is not
        with np.errstate(over="ignore"), pytest.raises(
                NumericalFailure, match="the product w1 @ w2 overflows"):
            pair([[1e200, 1.0], [1.0, 1.0]], [[1e200, 1.0], [0.0, 1.0]])

    def test_product_and_rank_cap(self):
        p = pair(np.ones((4, 2)), np.ones((2, 3)))
        assert np.array_equal(p.product, np.full((4, 3), 2.0))
        assert p.rank_cap == 2

    def test_one_decomposition_per_matrix(self, monkeypatch):
        # generic 4x2 . 2x5 pair: both subspace intersections are trivial,
        # so the only SVDs are those of w1, w2 and the product
        rng = np.random.default_rng(3)
        p = pair(rng.standard_normal((4, 2)), rng.standard_normal((2, 5)))
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rep = check_openness(p)
        assert rep.open and rep.regime == REGIME_DEFICIENT
        assert calls == [(4, 2), (2, 5), (4, 5)]

    def test_one_angle_svd_per_nontrivial_intersection(self, monkeypatch):
        # w1 = diag(1, 1, 0), w2 = e1 e1ᵀ: N(w1) = span(e3) meets C(w2) =
        # span(e1) and N(w2ᵀ) = span(e2, e3) meets C(w1ᵀ) = span(e1, e2);
        # beyond the three spectra, each pair takes the one SVD of its
        # cosine matrix
        w2 = np.zeros((3, 3))
        w2[0, 0] = 1.0
        p = pair(np.diag([1.0, 1.0, 0.0]), w2)
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rep = check_openness(p)
        assert rep.open and rep.regime == REGIME_FULL
        assert calls == [(3, 3), (3, 3), (3, 3), (1, 1), (2, 2)]

    def test_subspace_rank_agrees_with_the_angles_near_the_threshold(self, monkeypatch):
        # 2,000 pairs, m, k, n <= 5, each factor of random rank with its
        # singular values graded over up to 15 decades, and 1e-13 noise on
        # half of the w2s: on every intersection of two non-empty
        # subspaces the check meets, the rank identity dim U + dim V -
        # rank([B1 B2]) gives the count of principal-angle cosines at 1
        rng = np.random.default_rng(3)

        def graded(rows, cols):
            r = int(rng.integers(0, min(rows, cols) + 1))
            u = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :r]
            v = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, :r]
            return (u * np.logspace(0, -rng.uniform(0, 15), r)) @ v.T

        real = openness.intersection_dim
        counts = []  # (by the [B1 B2] rank, by the angles)

        def spy(basis1, basis2, tol):
            got = real(basis1, basis2, tol)
            if basis1.shape[1] and basis2.shape[1]:
                by_rank = (basis1.shape[1] + basis2.shape[1]
                           - rank(np.hstack([basis1, basis2]), tol))
                counts.append((by_rank, got[0]))
            return got

        monkeypatch.setattr(openness, "intersection_dim", spy)
        ill = 0
        for _ in range(2000):
            m, k, n = (int(x) for x in rng.integers(1, 6, size=3))
            w1, w2 = graded(m, k), graded(k, n)
            if rng.random() < 0.5:
                w2 = w2 + 1e-13 * rng.standard_normal((k, n))
            try:
                check_openness(pair(w1, w2))
            except IllConditioned:
                ill += 1
        assert [c for c in counts if c[0] != c[1]] == []
        assert len(counts) > 1000 and ill > 0


class TestConstructWitnesses:
    def test_full_rank_factors_trivial_witnesses(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        wt1, wt2 = construct_witnesses(p)
        assert np.allclose(wt1, 0.0)
        assert np.allclose(wt2, 0.0)

    def test_rank_deficient_padded_identity(self):
        w1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        w2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        p = pair(w1, w2)
        wt1, wt2 = construct_witnesses(p)
        assert np.abs(w1 @ wt2).max() <= 1e-12
        assert np.abs(wt1 @ w2).max() <= 1e-12
        assert rank(w2 + wt2) == 2
        assert rank(w1 + wt1) == 2

    def test_zero_point(self):
        p = pair(np.zeros((3, 2)), np.zeros((2, 3)))
        wt1, wt2 = construct_witnesses(p)
        assert rank(wt1) == 2
        assert rank(wt2) == 2

    def test_not_open_refused(self):
        with pytest.raises(NotOpen):
            construct_witnesses(pair([[1.0], [1.0]], [[0.0, 0.0]]))

    def test_factors_decomposed_once(self, monkeypatch):
        # both completions read the openness check's spectra, and no caller
        # re-checks a rank null_completion verified
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        w1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        w2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        wt1, wt2 = construct_witnesses(pair(w1, w2))
        assert len(calls) <= 7
        assert rank(w1 + wt1) == rank(w2 + wt2) == 2

    def test_random_open_deficient_points(self):
        rng = np.random.default_rng(8)
        built = 0
        while built < 15:
            m, n = (int(x) for x in rng.integers(3, 6, size=2))
            k = int(rng.integers(2, min(m, n)))
            r = int(rng.integers(0, k))
            w1 = rng.standard_normal((m, r)) @ rng.standard_normal((r, k))
            # share the column space factor so the intersection is trivial
            base = rng.standard_normal((k, r))
            w2 = base @ rng.standard_normal((r, n))
            w1 = rng.standard_normal((m, r)) @ base.T
            p = pair(w1, w2)
            rep = check_openness(p)
            if not (rep.regime == REGIME_DEFICIENT and rep.open):
                continue
            wt1, wt2 = construct_witnesses(p)
            scale = max(np.abs(w1).max(), np.abs(w2).max(), 1.0)
            assert np.abs(w1 @ wt2).max() <= 1e-10 * scale
            assert np.abs(wt1 @ w2).max() <= 1e-10 * scale
            assert rank(w1 + wt1) == k
            assert rank(w2 + wt2) == k
            built += 1


class TestNullCompletion:
    W1 = np.diag([1.0, 1.0, 0.0])
    W2 = np.eye(3, 2) * [1.0, 0.0]

    @staticmethod
    def complete_w2(w1, w2, scales=None):
        # N(w1) and the spectrum of w2, as the openness check reads them;
        # each completion's SVD is checked here, and its wt returned
        sp1, sp2 = spectrum(w1), spectrum(w2)
        got = null_completion(w2, sp1.v[:, sp1.rank:], sp2, scales=scales)
        for c in got:
            if c is not None:
                wt, u, sv, v = c
                assert np.allclose(u @ np.diag(sv) @ v.T, w2 + wt, rtol=0, atol=1e-14)
                assert len(sv) == min(w2.shape)
        return [c if c is None else c[0] for c in got]

    def test_one_completion_per_scale(self):
        scales = [1e-3, 0.5, 2.0]
        got = self.complete_w2(self.W1, self.W2, scales=scales)
        assert len(got) == 3
        for scale, wt2 in zip(scales, got):
            assert np.array_equal(
                wt2, self.complete_w2(self.W1, self.W2, scales=[scale])[0]
            )
            assert np.abs(self.W1 @ wt2).max() == 0.0
            assert rank(self.W2 + wt2) == 2

    def test_default_is_half_the_least_counted_singular_value(self):
        (wt2,) = self.complete_w2(self.W1, 2.0 * self.W2)
        assert np.linalg.norm(wt2) == 1.0

    def test_trivial_null_space_gives_none_per_scale(self):
        got = self.complete_w2(np.eye(3), self.W2, scales=[1.0, 2.0])
        assert got == [None, None]

    def test_closed_form_completes_where_the_lightest_column_fails(self, monkeypatch):
        w1 = np.eye(4, 3) * [1.0, 1.0, 0.0]
        w2 = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1e-3], [0.0] * 4])
        # placing N(w1) = span(e3) on w2's lightest column, the last,
        # leaves rank 2
        lightest = np.zeros_like(w2)
        lightest[2, 3] = 1.0
        assert rank(w2 + lightest) == 2
        sp1, sp2 = spectrum(w1), spectrum(w2)
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        ((wt2, *_),) = null_completion(w2, sp1.v[:, sp1.rank:], sp2)
        assert calls == [w2.shape]
        monkeypatch.undo()
        assert rank(w2 + wt2) == 3
        assert np.abs(w1 @ wt2).max() == 0.0

    def test_every_flagged_side_of_a_sign_grid_sample_completes(self, monkeypatch):
        # 40 pairs with entries in {-1, 0, 1} per shape, m, k, n <= 3: the
        # completion of a side the openness check flags (both sides at an
        # open point of the rank-deficient regime) meets the full rank at
        # every scale; in the full-rank regime an unflagged side with k at
        # least its dimension never does.  No placement is searched and no
        # basis is decomposed again: one SVD per scale, none when the
        # ordered basis is narrower than the missing rank.  A wider basis
        # is cut to its leading columns; against the cut read off the top
        # right singular vectors of P = sp.u[:, r:].T @ (the spectrum's
        # slice), it gives the same completion rank at every scale, and
        # the same span wherever sigma_t(P) > sigma_{t+1}(P).
        rng = np.random.default_rng(27)
        scales = [1e-4, 0.5, 2.0]
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        flagged = wider = split = 0
        for m, k, n in itertools.product(range(1, 4), repeat=3):
            for _ in range(40):
                p = pair(rng.integers(-1, 2, (m, k)), rng.integers(-1, 2, (k, n)))
                rep, sp1, sp2, _, null1, null2t = _openness_and_spectra(p, DEFAULT_TOL)
                full = rep.regime == REGIME_FULL
                for flag, w, basis, sliced, sp, other in (
                    ("w1_completion_exists", p.w1.T, null2t, sp2.u[:, sp2.rank:], sp1.T,
                     p.w2.T),
                    ("w2_completion_exists", p.w2, null1, sp1.v[:, sp1.rank:], sp2, p.w1),
                ):
                    calls.clear()
                    monkeypatch.setattr(np.linalg, "svd", counting_svd)
                    got = null_completion(w, basis, sp, scales=scales)
                    monkeypatch.undo()
                    missing, d = min(w.shape) - sp.rank, basis.shape[1]
                    assert len(calls) == (d >= missing) * len(scales)
                    if rep.condition_flags[flag] if full else rep.open:
                        flagged += 1
                        for scale, (wt, *_) in zip(scales, got):
                            assert rank(w + wt) == min(w.shape)
                            assert np.abs(other @ wt).max() <= 1e-13 * scale
                    elif full and w.shape[0] >= w.shape[1]:
                        assert got == [None] * len(scales)
                    if d > missing > 0:
                        wider += 1
                        _, sig, vt = np.linalg.svd(sp.u[:, sp.rank:].T @ sliced)
                        sig = np.pad(sig, (0, d - len(sig)))
                        old, new = sliced @ vt[:missing].T, basis[:, :missing]
                        g = sp.v[:, sp.rank:sp.rank + missing]
                        for scale in scales:
                            assert rank(w + scale * new @ g.T) == rank(w + scale * old @ g.T)
                        if sig[missing - 1] - sig[missing] > 1e-8:
                            split += 1
                            assert np.abs(new @ new.T - old @ old.T).max() <= 1e-12
        assert flagged > 1000
        assert (wider, split) == (60, 50)


class TestSampleFeasibleTarget:
    def test_rank_and_distance(self):
        rng = np.random.default_rng(2)
        z = np.outer([1.0, 2.0], [1.0, 1.0])
        for delta in (1e-3, 1e-6):
            (zt,) = sample_feasible_target(z, 1, delta, rng.standard_normal((1, 2, 2)))
            assert rank(zt) <= 1
            assert abs(np.linalg.norm(zt - z) - delta) <= 1e-8 * delta

    def test_zero_delta(self):
        z = np.eye(3)
        (zt,) = sample_feasible_target(z, 2, 0.0, np.ones((1, 3, 3)))
        assert np.array_equal(zt, z)


class TestProbeOpenness:
    def test_open_point_all_recoverable(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        rep = probe_openness(p, 1e-6, 20)
        assert rep["success_fraction"] == 1.0
        assert rep["max_factor_norm"] <= 1e3 * 1e-6

    def test_non_open_point_fails(self):
        p = pair([[1.0], [1.0]], [[0.0, 0.0]])
        rep = probe_openness(p, 1e-4, 20)
        assert rep["success_fraction"] < 1.0

    def test_zero_delta_trivial(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        rep = probe_openness(p, 0.0, 5)
        assert rep["success_fraction"] == 1.0

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, delta):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        with pytest.raises(InputError, match="delta must be finite"):
            probe_openness(p, delta, 5)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_non_positive_trials_rejected(self, trials):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        with pytest.raises(InputError, match="trials must be a positive count"):
            probe_openness(p, 1e-5, trials)

    def test_zero_point_recoverable_with_sqrt_witnesses(self):
        p = pair(np.zeros((2, 1)), np.zeros((1, 2)))
        rep = probe_openness(p, 1e-5, 10)
        assert rep["success_fraction"] == 1.0

    def test_deterministic_per_seed(self):
        p = pair([[1.0], [2.0]], [[1.0, 1.0]])
        r1 = probe_openness(p, 1e-5, 8, seed=42)
        r2 = probe_openness(p, 1e-5, 8, seed=42)
        assert r1 == r2

    def test_agrees_with_characterization_on_small_grid(self):
        entries = (-1.0, 0.0, 1.0)
        agree = total = 0
        for vals1 in itertools.product(entries, repeat=2):
            for vals2 in itertools.product(entries, repeat=2):
                w1 = np.array(vals1).reshape(2, 1)
                w2 = np.array(vals2).reshape(1, 2)
                p = pair(w1, w2)
                rep = check_openness(p)
                probe = probe_openness(p, 1e-5, 12)
                total += 1
                agree += rep.open == (probe["success_fraction"] == 1.0)
        assert agree / total >= 0.99


class TestGaussNewtonRecover:
    def test_recovers_constructed_solution(self):
        rng = np.random.default_rng(5)
        w1 = rng.standard_normal((3, 2))
        w2 = rng.standard_normal((2, 4))
        da = 1e-5 * rng.standard_normal(w1.shape)
        db = 1e-5 * rng.standard_normal(w2.shape)
        target = (w1 + da) @ (w2 + db)
        delta = np.linalg.norm(target - w1 @ w2)
        out = gauss_newton_recover(w1, w2, target[None], delta, DEFAULT_TOL)
        assert bool(out["success"][0])
        assert out["residual"][0] <= DEFAULT_TOL.residual_abs
