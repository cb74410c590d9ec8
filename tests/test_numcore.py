import itertools

import numpy as np
import pytest
import scipy.linalg

from openmap.errors import InputError, NotRankDeficient, NumericalFailure
from openmap.numcore import (
    DEFAULT_TOL,
    EPS,
    Tolerances,
    _pivot_rows,
    bounded_basis,
    column_space,
    intersection_dim,
    null_space,
    rank,
    singular_values,
    spectrum,
    svd,
    truncated_svd,
)


_DECOMPOSERS = {
    "svd": svd,
    "spectrum": spectrum,
    "singular_values": singular_values,
    "rank": rank,
    "truncated_svd": lambda mat: truncated_svd(mat, 1),
}


def reconstruct(u, s, v, shape):
    sigma = np.zeros(shape)
    np.fill_diagonal(sigma, s)
    return u @ sigma @ v.T


class TestTolerances:
    def test_defaults_valid(self):
        tol = Tolerances()
        assert tol.residual_abs > 0

    def test_thresholds_positive(self):
        with pytest.raises(InputError):
            Tolerances(residual_abs=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rank_rel", "grad_abs", "residual_abs"])
    def test_non_finite_thresholds_rejected_by_name(self, name, value):
        with pytest.raises(InputError, match=f"{name} must be finite"):
            Tolerances(**{name: value})


class TestSvd:
    def test_identity(self):
        u, s, v = svd(np.eye(2))
        assert np.allclose(s, [1.0, 1.0])
        assert np.allclose(u @ u.T, np.eye(2))
        assert np.allclose(v @ v.T, np.eye(2))

    def test_zero(self):
        _, s, _ = svd(np.zeros((3, 2)))
        assert np.allclose(s, 0.0)

    def test_diag_with_sign(self):
        m = np.array([[3.0, 0.0], [0.0, -4.0]])
        u, s, v = svd(m)
        assert np.allclose(s, [4.0, 3.0])
        assert np.linalg.norm(reconstruct(u, s, v, m.shape) - m) <= 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            u, s, v = svd(m)
            smax = s[0] if s.size else 1.0
            err = np.linalg.norm(reconstruct(u, s, v, m.shape) - m)
            assert err <= 1e-12 * max(smax, 1.0)

    # numcore checks no input; the one SVD call turns a NaN entry (LAPACK
    # fails) and an infinite one (LAPACK gives NaN singular values without
    # failing) into NumericalFailure, in every function that decomposes
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, shape", [
        *(pytest.param(name, (2, 3), id=name) for name in _DECOMPOSERS),
        *(pytest.param(name, (3, 2, 3), id=f"{name}-stack")
          for name in ("singular_values", "rank", "truncated_svd")),
    ])
    def test_a_nonfinite_entry_is_a_numerical_failure(self, name, shape, value):
        mat = np.arange(float(np.prod(shape))).reshape(shape)
        mat[(-1,) * (len(shape) - 1) + (0,)] = value
        with pytest.raises(NumericalFailure):
            _DECOMPOSERS[name](mat)


class TestRank:
    def test_proportional_rows(self):
        assert rank(np.array([[1.0, 1.0], [2.0, 2.0]])) == 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identity(self, n):
        assert rank(np.eye(n)) == n

    def test_below_cutoff(self):
        assert rank(np.array([[1.0, 0.0], [0.0, 1e-18]])) == 1

    def test_zero(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_rank_transpose_and_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
            if rng.random() < 0.4:
                r = int(rng.integers(0, min(m.shape) + 1))
                m = truncated_svd(m, r)
            assert rank(m) == rank(m.T)
            assert rank(m) <= min(m.shape)

    def test_stack_matches_per_matrix(self):
        # every 2x2 matrix over {-1, 0, 1} (zero included), random low-rank
        # matrices across sixteen decades of scale, and a stack of zeros
        grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=4)))
        rng = np.random.default_rng(5)
        low = np.stack([
            truncated_svd(rng.standard_normal((3, 4)), r % 4)
            * 10.0 ** rng.integers(-8, 9)
            for r in range(40)
        ])
        empty = np.zeros((2, 0, 3))
        for stack in (grid.reshape(-1, 2, 2), low, np.zeros((2, 3, 1)), empty):
            want = [rank(m) for m in stack]
            assert rank(stack).tolist() == want
        assert rank(low.reshape(4, 10, 3, 4)).tolist() == np.reshape(
            [rank(m) for m in low], (4, 10)).tolist()


class TestSubspaces:
    def test_null_space_simple(self):
        basis = null_space(np.array([[1.0, 0.0]]))
        assert basis.shape == (2, 1)
        assert np.allclose(np.abs(basis.ravel()), [0.0, 1.0])

    def test_column_space_zero(self):
        assert column_space(np.zeros((4, 2))).shape == (4, 0)

    def test_null_space_residual(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 5))
        basis = null_space(m)
        assert basis.shape == (5, 2)
        assert np.linalg.norm(m @ basis) <= 1e-12
        gram = basis.T @ basis
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-12

    def test_column_space_membership(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        basis = column_space(m)
        assert basis.shape == (5, 2)
        # each basis column must lie in range(m): projection is identity
        proj = basis @ basis.T
        assert np.linalg.norm(proj @ m - m) <= 1e-10


    def test_bases_are_the_spectrum_slices(self):
        m = np.random.default_rng(5).standard_normal((4, 2)) @ np.ones((2, 3))
        sp = spectrum(m)
        assert np.array_equal(null_space(m), sp.v[:, sp.rank:])
        assert np.array_equal(column_space(m), sp.u[:, : sp.rank])


class TestIntersectionDim:
    def test_trivial_with_zero_dim(self):
        n1 = null_space(np.array([[1.0], [2.0]]).T)  # W1 = [1;2]: N(W1^T W?) ...
        # N of a 1x2 row [1 2]: dim 1; against zero-dim column space
        c2 = column_space(np.zeros((2, 2)))
        d, ordered = intersection_dim(n1, c2)
        assert d == 0
        assert ordered is n1

    def test_same_line(self):
        e1 = np.array([[1.0], [0.0]])
        b = column_space(e1)
        assert intersection_dim(b, b)[0] == 1

    def test_rank_identity_example(self):
        w1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        w2 = np.array([[0.0, 0.0], [1.0, 0.0]])
        d, _ = intersection_dim(null_space(w1), column_space(w2))
        assert d == 1
        assert d == rank(w2) - rank(w1 @ w2)

    def test_matches_rank_identity_on_random_factors(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m, k, n = rng.integers(1, 6, size=3)
            w1 = rng.standard_normal((m, k))
            w2 = rng.standard_normal((k, n))
            if rng.random() < 0.5:
                w1 = truncated_svd(w1, int(rng.integers(0, min(m, k) + 1)))
            if rng.random() < 0.5:
                w2 = truncated_svd(w2, int(rng.integers(0, min(k, n) + 1)))
            # stay well above the rank threshold
            if any(
                s.size and s[s > 1e-12].size and s[s > 1e-12].min() < 1e-6
                for s in (singular_values(w1), singular_values(w2), singular_values(w1 @ w2))
            ):
                continue
            expected = rank(w2) - rank(w1 @ w2)
            got, _ = intersection_dim(null_space(w1), column_space(w2))
            assert got == expected

    def test_ordered_basis_spans_basis1_farthest_from_basis2_first(self):
        # orthonormal, the same projector as basis1, and its columns'
        # cosines against basis2 ascending; a column basis2 misses
        # entirely (more columns than basis2 has) leads with cosine 0
        rng = np.random.default_rng(17)
        for _ in range(60):
            a = int(rng.integers(1, 7))
            d1, d2 = (int(x) for x in rng.integers(1, a + 1, size=2))
            b1 = np.linalg.qr(rng.standard_normal((a, d1)))[0]
            b2 = np.linalg.qr(rng.standard_normal((a, d2)))[0]
            if rng.random() < 0.5 and min(d1, d2) > 1:
                # share a direction, so the last cosine sits at 1
                b2 = np.linalg.qr(np.hstack([b1[:, :1], b2[:, 1:]]))[0]
                assert intersection_dim(b1, b2)[0] >= 1
            _, ordered = intersection_dim(b1, b2)
            assert ordered.shape == b1.shape
            assert np.allclose(ordered.T @ ordered, np.eye(d1), rtol=0, atol=1e-13)
            assert np.allclose(ordered @ ordered.T, b1 @ b1.T, rtol=0, atol=1e-13)
            cos = np.linalg.norm(ordered.T @ b2, axis=1)
            assert np.all(np.diff(cos) >= -1e-13)
            if d1 > d2:
                assert np.all(cos[: d1 - d2] <= 1e-13)


def reference_bounded_basis(mat, tol=DEFAULT_TOL):
    """The row-basis exchange in its plainest form: the rank from singular
    values, the first ``r`` pivots from ``scipy.linalg.qr``, the other
    rows in ascending order and every coefficient vector from its own
    ``lstsq`` against the rows of ``mat``.  Returns (basis_rows, coeffs)."""
    m = mat.shape[0]
    r = rank(mat, tol)
    if r == 0:
        return (), np.zeros((m, 0))
    _, _, piv = scipy.linalg.qr(mat.T, pivoting=True, mode="economic")
    basis = list(piv[:r])
    pending = sorted(set(range(m)) - set(basis))
    for step, j in enumerate(pending, start=1):
        a, *_ = np.linalg.lstsq(mat[basis].T, mat[j], rcond=None)
        istar = int(np.argmax(np.abs(a)))
        if abs(a[istar]) > 2.0 ** (step - 1) * (1.0 + 64.0 * EPS):
            basis[istar] = j
    basis = sorted(basis)
    coeffs = np.array([np.linalg.lstsq(mat[basis].T, mat[i], rcond=None)[0]
                       for i in range(m) if i not in basis])
    return tuple(int(i) for i in basis), coeffs


def seeded_sweep():
    """Rank-deficient matrices of ``test_bound_holds_on_seeded_sweep``."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(m - 1, n) + 1))
        v = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        v *= 10.0 ** rng.integers(-2, 3)
        if rank(v) < m:
            yield v


def integer_products():
    """Rank-deficient products of integer matrices with entries in
    [-2, 2]: repeated, proportional and equal-norm rows make ties in the
    pivot order common."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 9))
        r = int(rng.integers(1, min(m - 1, n) + 1))
        v = (rng.integers(-2, 3, (m, r)) @ rng.integers(-2, 3, (r, n))).astype(float)
        if rank(v) < m:
            yield v


def assert_bounded_reconstruction(v, res):
    m = v.shape[0]
    assert res.coeff_inf_norm <= 2.0 ** (m - len(res.basis_rows) - 1) * (1 + 1e-9)
    if res.coeffs.size:
        vb = v[list(res.basis_rows)]
        vn = v[list(res.nonbasis_rows)]
        assert np.linalg.norm(vn - res.coeffs @ vb) <= 1e-10 * max(1.0, np.abs(v).max())


class TestBoundedBasis:
    def test_identity_block_kept(self):
        a = np.array([[0.5, -1.0], [0.25, 1.0], [1.0, 0.0]])
        v = np.vstack([np.eye(2), a @ np.eye(2)])  # rows: I_2 then A rows... rank 2
        res = bounded_basis(v)
        assert len(res.basis_rows) == 2
        vb = v[list(res.basis_rows)]
        vn = v[list(res.nonbasis_rows)]
        assert np.linalg.norm(vn - res.coeffs @ vb) <= 1e-10
        assert res.coeff_inf_norm <= res.bound + 1e-12

    def test_two_rows_only_valid_choice(self):
        v = np.array([[1.0], [2.0]])
        res = bounded_basis(v)
        # only row 2 keeps the coefficient within 2**0 = 1
        assert res.basis_rows == (1,)
        assert res.coeffs.shape == (1, 1)
        assert abs(res.coeffs[0, 0] - 0.5) <= 1e-12
        assert res.bound == 1.0

    def test_exhaustive_oracle_small(self):
        # brute force: some valid basis within the bound always exists and
        # the procedure returns one of them
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            r = int(rng.integers(1, min(m - 1, n) + 1))
            v = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            if rank(v) != r:
                continue
            res = bounded_basis(v)
            vb = v[list(res.basis_rows)]
            vn = v[list(res.nonbasis_rows)]
            assert np.linalg.norm(vn - res.coeffs @ vb) <= 1e-10 * max(
                1.0, np.abs(v).max()
            )
            assert res.coeff_inf_norm <= 2.0 ** (m - r - 1) * (1 + 1e-9)
            # cross-check against exhaustive search for the best basis
            best = np.inf
            for cand in itertools.combinations(range(m), r):
                if rank(v[list(cand)]) != r:
                    continue
                rest = [i for i in range(m) if i not in cand]
                coeff, *_ = np.linalg.lstsq(v[list(cand)].T, v[rest].T, rcond=None)
                fit = np.linalg.norm(v[rest] - coeff.T @ v[list(cand)])
                if fit <= 1e-8:
                    best = min(best, np.abs(coeff).max() if coeff.size else 0.0)
            assert best <= res.bound + 1e-9

    def test_full_rank_refused(self):
        with pytest.raises(NotRankDeficient):
            bounded_basis(np.eye(3))

    def test_zero_matrix(self):
        res = bounded_basis(np.zeros((3, 2)))
        assert res.basis_rows == ()
        assert res.coeffs.shape == (3, 0)

    def test_bound_holds_on_seeded_sweep(self):
        for v in seeded_sweep():
            assert_bounded_reconstruction(v, bounded_basis(v))

    def test_bound_holds_on_tie_rich_integer_products(self):
        # ties let the spectrum's pivots and geqp3's part ways onto
        # different bases, so only the guarantee is checked
        checked = 0
        for v in integer_products():
            res = bounded_basis(v)
            assert len(res.basis_rows) == rank(v)
            assert_bounded_reconstruction(v, res)
            checked += 1
        assert checked > 400

    def test_first_pivots_are_pivoted_qr_on_seeded_sweep(self):
        checked = 0
        for v in seeded_sweep():
            sp = spectrum(v)
            if sp.rank == 0:
                continue
            got = _pivot_rows(sp.u[:, : sp.rank], sp.s[: sp.rank])
            _, _, piv = scipy.linalg.qr(v.T, pivoting=True, mode="economic")
            assert set(got) == set(piv[: sp.rank])
            checked += 1
        assert checked > 100

    def test_matches_the_lstsq_exchange_on_seeded_sweep(self):
        checked = 0
        for v in seeded_sweep():
            res = bounded_basis(v)
            rows, coeffs = reference_bounded_basis(v)
            assert res.basis_rows == rows
            assert res.coeffs.shape == coeffs.shape
            if coeffs.size:
                scale = max(1.0, np.abs(coeffs).max())
                assert np.abs(res.coeffs - coeffs).max() <= 1e-10 * scale
            checked += 1
        assert checked > 100

    def test_takes_no_lstsq_and_no_scipy_qr(self, monkeypatch):
        called = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                called.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "lstsq", spy("lstsq", np.linalg.lstsq))
        monkeypatch.setattr(scipy.linalg, "qr", spy("qr", scipy.linalg.qr))
        monkeypatch.setattr(scipy.linalg.lapack, "dgeqp3",
                            spy("dgeqp3", scipy.linalg.lapack.dgeqp3))
        for v in seeded_sweep():
            bounded_basis(v)
        assert called == []

    def test_a_given_spectrum_gives_the_same_result(self):
        for v in seeded_sweep():
            own = bounded_basis(v)
            given = bounded_basis(v, sp=spectrum(v))
            assert given.basis_rows == own.basis_rows
            assert given.coeffs.tobytes() == own.coeffs.tobytes()
            assert given.bound == own.bound
