import functools
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from openmap.errors import InputError, NotConstructible, NumericalFailure
from openmap.landscape import (
    GLOBAL_MIN,
    NOT_CRITICAL,
    SADDLE_HIGHER_ORDER,
    SECOND_ORDER_SADDLE,
    NetworkPoint,
    _expansion,
    admissible_width_pair,
    classify,
    counterexample_factory,
    global_value,
    gradient,
    gradient_norm,
    local_min_probe,
    objective,
    product_matrix,
    rank_deficient_y_fixture,
    run_gradient_descent,
)
from openmap.numcore import DEFAULT_TOL, Tolerances, rank


def intro_point():
    x, y, point = counterexample_factory((2, 1, 1, 2))
    return x, y, point


def fd_gradient(weights, x, y, eps=1e-6):
    grads = []
    for idx, w in enumerate(weights):
        g = np.zeros_like(w)
        for pos in np.ndindex(*w.shape):
            bump = np.zeros_like(w)
            bump[pos] = eps
            plus = list(weights)
            plus[idx] = w + bump
            minus = list(weights)
            minus[idx] = w - bump
            g[pos] = (objective(plus, x, y) - objective(minus, x, y)) / (2 * eps)
        grads.append(g)
    return grads


def chain_reference(weights, x, y):
    """Objective and layer gradients from whole chain products, multiplied
    top down: the output is ``W_h ... W_1 X``, and layer ``i`` gets
    ``(W_h ... W_{i+1})^T G (W_{i-1} ... W_1 X)^T`` for the residual
    ``G`` at the output."""

    def chain(mats):
        return functools.reduce(np.matmul, mats)

    g_out = chain(weights + [x]) - y
    grads = []
    for i in range(len(weights)):
        above = chain(weights[:i]).T @ g_out if i else g_out
        grads.append(above @ chain(weights[i + 1:] + [x]).T)
    return 0.5 * float(np.sum(g_out**2)), grads


class TestObjectiveGradient:
    def test_passes_match_the_chain_product_formulas(self):
        rng = np.random.default_rng(11)
        for h in range(1, 6):
            for draw in range(8):
                dims = [int(d) for d in rng.integers(1, 5, size=h + 1)]
                # every other draw routes the chain through a width-1 layer
                if draw % 2:
                    dims[int(rng.integers(h + 1))] = 1
                n = int(rng.integers(1, 5))
                weights = [rng.uniform(-1, 1, size=(dims[i], dims[i + 1])) for i in range(h)]
                x = rng.uniform(-1, 1, size=(dims[-1], n))
                y = rng.uniform(-1, 1, size=(dims[0], n))
                value, grads = chain_reference(weights, x, y)
                assert objective(weights, x, y) == pytest.approx(value, rel=1e-12)
                got = gradient(weights, x, y)
                assert [g.shape for g in got] == [w.shape for w in weights]
                scale = gradient_norm(grads)
                for g, ref in zip(got, grads):
                    assert np.linalg.norm(g - ref) <= 1e-12 * scale

    def test_zero_network_zero_target(self):
        weights = [np.zeros((2, 2)), np.zeros((2, 2))]
        assert objective(weights, np.eye(2), np.zeros((2, 2))) == 0.0
        assert gradient_norm(gradient(weights, np.eye(2), np.zeros((2, 2)))) == 0.0

    def test_intro_point_objective_half(self):
        x, y, point = intro_point()
        assert objective(point.weights, x, y) == pytest.approx(0.5, abs=1e-15)
        assert gradient_norm(gradient(point.weights, x, y)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h = int(rng.integers(1, 5))
            dims = [int(d) for d in rng.integers(1, 5, size=h + 1)]
            n = int(rng.integers(1, 5))
            weights = [
                rng.uniform(-1, 1, size=(dims[i], dims[i + 1])) for i in range(h)
            ]
            x = rng.uniform(-1, 1, size=(dims[-1], n))
            y = rng.uniform(-1, 1, size=(dims[0], n))
            exact = gradient(weights, x, y)
            approx = fd_gradient(weights, x, y)
            num = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(exact, approx)))
            den = max(1e-12, gradient_norm(exact))
            assert num / den <= 1e-6


class TestGlobalValue:
    def test_reachable_target_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4))
        z = rng.standard_normal((2, 1)) @ rng.standard_normal((1, 3))
        y = z @ x
        assert global_value(1, x, y) <= 1e-20

    def test_intro_instance_zero(self):
        x, y, point = intro_point()
        assert global_value(min(point.dims), x, y) == pytest.approx(0.0, abs=1e-15)

    def test_rank_two_target_with_width_two(self):
        x = np.eye(3)
        y = np.array([[1.0, 0.0, -1.0], [0.0, 4.0, 0.0], [-1.0, 0.0, 1.0]])
        assert global_value(2, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_eckart_young_tail(self):
        y = np.diag([3.0, 2.0, 1.0])
        # best rank-1 approximation leaves 2^2 + 1^2 over two
        assert global_value(1, np.eye(3), y) == pytest.approx(2.5)


class TestProbe:
    def test_strict_minimum_probes_minimal(self):
        x = np.eye(2)
        y = np.eye(2)
        point = NetworkPoint([np.eye(2), np.eye(2)], x, y)
        rep = local_min_probe(point, tol=Tolerances(probe_samples=200))
        assert rep.locally_minimal

    def test_zero_saddle_probes_decrease(self):
        point = NetworkPoint(
            [np.zeros((2, 1)), np.zeros((1, 2))], np.eye(2), np.eye(2)
        )
        rep = local_min_probe(point, tol=Tolerances(probe_samples=500))
        assert not rep.locally_minimal
        assert all(d < 0 for d in rep.min_deltas)

    def test_no_finite_sample_is_not_minimal(self):
        # every sample overflows, so no radius has a finite value
        point = NetworkPoint([[[1e200]], [[1e-200]]], [[1.0]], [[1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            rep = local_min_probe(point, tol=Tolerances(probe_samples=50))
        assert rep.min_deltas == [np.inf] * 3
        assert not rep.locally_minimal


class TestClassify:
    def test_not_critical(self):
        rng = np.random.default_rng(3)
        point = NetworkPoint(
            [rng.uniform(-1, 1, size=(2, 2))], np.eye(2), rng.uniform(-1, 1, size=(2, 2))
        )
        rep = classify(point)
        assert rep.status == NOT_CRITICAL

    def test_two_layer_zero_saddle(self):
        point = NetworkPoint(
            [np.zeros((2, 1)), np.zeros((1, 2))], np.eye(2), np.eye(2)
        )
        rep = classify(point)
        assert rep.status == SECOND_ORDER_SADDLE
        assert rep.degenerate
        d = rep.descent_direction
        assert d is not None
        # negative curvature along the unit direction
        norm2 = sum(np.linalg.norm(m) ** 2 for m in d.directions)
        eps = 1e-4
        base = objective(point.weights, point.x, point.y)
        plus = objective(
            [w + eps * m for w, m in zip(point.weights, d.directions)], point.x, point.y
        )
        minus = objective(
            [w - eps * m for w, m in zip(point.weights, d.directions)], point.x, point.y
        )
        curvature = (plus + minus - 2 * base) / (eps**2 * norm2)
        assert curvature <= -0.1

    def test_two_layer_saddle_escapes_at_second_order(self):
        # critical within a loose grad_abs, and the order-one term pairs
        # the top direction with a nonzero gradient of W_2; a two-layer
        # saddle still escapes along its negative curvature
        point = NetworkPoint(
            [np.zeros((2, 1)), np.array([[0.0, 1e-7]])], np.eye(2), np.diag([1.0, 2.0])
        )
        rep = classify(point, tol=Tolerances(grad_abs=1e-6))
        assert rep.status == SECOND_ORDER_SADDLE
        assert rep.descent_direction.exponents == [1, 1]
        assert rep.descent_direction.order == 2

    def test_rank_two_fixture_escapes_at_fourth_order(self):
        # a sphere probe finds no decrease here; the path curve moving the
        # outer layers as s and the middle one as s^2 leads at s^4
        _, _, point = rank_deficient_y_fixture()
        rep = classify(point)
        assert rep.status == SADDLE_HIGHER_ORDER
        assert rep.objective == pytest.approx(2.0, abs=1e-12)
        assert rep.global_value == pytest.approx(0.0, abs=1e-12)
        d = rep.descent_direction
        assert (d.order, d.exponents) == (4, [1, 2, 1])
        moved = [w + d.step * m for w, m in zip(point.weights, d.directions)]
        assert objective(moved, point.x, point.y) < rep.objective - DEFAULT_TOL.residual_abs
        assert "local-min-probe" not in [c["check"] for c in rep.certificates]

    def test_intro_point_escapes_at_fourth_order(self):
        # the escape is constructed, not sampled, so no seed changes it
        _, _, point = intro_point()
        reports = [classify(point, seed=seed) for seed in range(3)]
        for rep in reports:
            assert rep.degenerate
            assert rep.objective == pytest.approx(0.5, abs=1e-12)
            assert rep.status == SADDLE_HIGHER_ORDER
            assert (rep.descent_direction.order, rep.descent_direction.exponents) == (4, [1, 2, 1])
            assert rep.descent_direction.step == reports[0].descent_direction.step

    def test_every_benchmark_factory_point_is_a_saddle(self):
        # depth 3 and 4, widths 1 to 3: the factory points the benchmark's
        # classify rounds draw from
        dims_list = [dims for h in (3, 4) for dims in itertools.product((1, 2, 3), repeat=h + 1)
                     if admissible_width_pair(dims) is not None]
        assert len(dims_list) == 60
        for dims in dims_list:
            _, _, point = counterexample_factory(dims)
            rep = classify(point)
            assert rep.status == SADDLE_HIGHER_ORDER, dims
            d = rep.descent_direction
            moved = [w + d.step * m for w, m in zip(point.weights, d.directions)]
            assert objective(moved, point.x, point.y) < rep.objective - DEFAULT_TOL.residual_abs

    def test_deep_case_b_right(self):
        point = NetworkPoint(
            [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))],
            np.eye(2),
            np.array([[1.0, 0.0], [0.0, 2.0]]),
        )
        rep = classify(point)
        assert rep.status == SADDLE_HIGHER_ORDER
        assert (rep.descent_direction.order, rep.descent_direction.exponents) == (3, [1, 1, 1])

    def test_deep_case_a_right(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        y = np.array([[1.0, 0.0], [0.0, 3.0]])
        point = NetworkPoint([e11.copy(), np.eye(2), e11.copy()], np.eye(2), y)
        # the path hops over the identity in the middle: W_3 + s D_3 and
        # W_1 + s D_1 meet at s^2, so the escape is negative curvature
        rep = classify(point)
        assert rep.status == SECOND_ORDER_SADDLE
        assert (rep.descent_direction.order, rep.descent_direction.exponents) == (2, [1, 0, 1])

    def test_deep_case_left(self):
        w3 = np.array([[1.0], [0.0]])
        w2 = np.zeros((1, 1))
        w1 = np.zeros((1, 2))
        y = np.array([[0.0, 0.0], [0.0, 1.0]])
        point = NetworkPoint([w3, w2, w1], np.eye(2), y)
        rep = classify(point)
        assert rep.status == SADDLE_HIGHER_ORDER
        assert (rep.descent_direction.order, rep.descent_direction.exponents) == (3, [1, 1, 1])

    def test_descent_direction_decreases(self):
        point = NetworkPoint(
            [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))],
            np.eye(2),
            np.array([[1.0, 0.0], [0.0, 2.0]]),
        )
        rep = classify(point)
        d = rep.descent_direction
        moved = [w + d.step * m for w, m in zip(point.weights, d.directions)]
        assert objective(moved, point.x, point.y) < rep.objective - DEFAULT_TOL.residual_abs

    def test_deep_grid_pins_the_descent_constructions(self):
        # degenerate critical points: every layer but one is zero, so the
        # gradient vanishes and the product has rank 0.  Each is a global
        # minimum or a certified saddle (1867 saddles, as before the path
        # curves), and every status, exponent list, order, direction, step
        # and decrease is pinned bit for bit; each decrease is checked
        # again on a whole-chain product
        rng = np.random.default_rng(20180308)
        digest, statuses = hashlib.sha256(), {}
        for _ in range(2000):
            h = int(rng.integers(3, 5))
            dims = rng.integers(1, 4, size=h + 1)
            weights = [np.zeros((dims[k], dims[k + 1])) for k in range(h)]
            live = int(rng.integers(h))
            weights[live] = rng.integers(-1, 2, size=weights[live].shape).astype(float)
            y = rng.integers(-1, 2, size=(dims[0], dims[-1])).astype(float)
            point = NetworkPoint(weights, np.eye(dims[-1]), y)
            rep = classify(point)
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
            digest.update(rep.status.encode())
            d = rep.descent_direction
            if d is None:
                continue
            moved = [w + d.step * m for w, m in zip(weights, d.directions)]
            after = np.linalg.multi_dot(moved + [point.x])
            drop = 0.5 * (np.sum(y**2) - np.sum((after - y) ** 2))
            assert drop > DEFAULT_TOL.residual_abs
            assert d.decrease == objective(weights, point.x, y) - objective(moved, point.x, y)
            digest.update(f"{d.exponents}:{d.order}".encode())
            for m in d.directions:
                digest.update(repr(m.shape).encode() + m.tobytes())
            digest.update(np.array([d.step, d.decrease]).tobytes())
        assert statuses == {GLOBAL_MIN: 133, SECOND_ORDER_SADDLE: 568, SADDLE_HIGHER_ORDER: 1299}
        assert digest.hexdigest() == (
            "765b16a8c15814fe2b5fd0589c3b88488b4ccfa7b1355dd2246092b2634a6a9e"
        )

    def test_two_layer_grid_pins_the_descent_constructions(self):
        # depth-2 critical points with one or both factors zero, kept
        # only when the gradient vanishes exactly; each is a global
        # minimum or a certified saddle (1703 saddles, as before the path
        # curves), and every status, exponent list, order, direction, step
        # and decrease is pinned bit for bit (x = I makes every product
        # exact in any association)
        rng = np.random.default_rng(20180309)
        digest, kept, statuses = hashlib.sha256(), 0, {}
        while kept < 2000:
            dims = rng.integers(1, 4, size=3)
            weights = [np.zeros((dims[0], dims[1])), np.zeros((dims[1], dims[2]))]
            live = int(rng.integers(3))
            if live < 2:
                weights[live] = rng.integers(-1, 2, size=weights[live].shape).astype(float)
            y = rng.integers(-1, 2, size=(dims[0], dims[2])).astype(float)
            point = NetworkPoint(weights, np.eye(dims[2]), y)
            if gradient_norm(gradient(weights, point.x, y)) != 0.0:
                continue
            kept += 1
            rep = classify(point)
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
            digest.update(rep.status.encode())
            d = rep.descent_direction
            if d is None:
                continue
            moved = [w + d.step * m for w, m in zip(weights, d.directions)]
            assert objective(moved, point.x, y) < rep.objective - DEFAULT_TOL.residual_abs
            digest.update(f"{d.exponents}:{d.order}".encode())
            for m in d.directions:
                digest.update(repr(m.shape).encode() + m.tobytes())
            digest.update(np.array([d.step, d.decrease]).tobytes())
        assert statuses == {GLOBAL_MIN: 297, SECOND_ORDER_SADDLE: 1703}
        assert digest.hexdigest() == (
            "5c402139e8a53a7ae07aa1f69ee95f27053887c3a8396ff55328c1962e59056d"
        )

    def test_converged_descent_classifies_global(self):
        # unreachable target: the optimum sits at a positive objective
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(3, 4))
        y = rng.uniform(-1, 1, size=(3, 4))
        init = NetworkPoint(
            [rng.uniform(-1, 1, size=(3, 2)), rng.uniform(-1, 1, size=(2, 3))], x, y
        )
        result = run_gradient_descent(init, max_iter=50000)
        assert result.converged
        assert result.exit_reason == "converged"
        gv = global_value(2, x, y)
        assert abs(result.objective - gv) <= 1e-9
        rep = classify(result.point)
        assert rep.status == GLOBAL_MIN


class TestExpansion:
    def test_float_and_fraction_coefficients_agree(self):
        # seeded curves with fixed layers, zero layers and zero moves; the
        # exact coefficients evaluated at s = 1/3 give the exact change of
        # the objective there, and the float ones agree with them
        exact = np.vectorize(Fraction, otypes=[object])

        def value(weights, x, y):
            resid = (product_matrix(weights + [x]) - y).ravel()
            return resid.dot(resid) / 2

        rng = np.random.default_rng(21)
        third = Fraction(1, 3)
        for _ in range(60):
            h = int(rng.integers(1, 5))
            dims = [int(d) for d in rng.integers(1, 4, size=h + 1)]
            shapes = [(dims[i], dims[i + 1]) for i in range(h)]
            weights = [rng.uniform(-1, 1, size=s) * int(rng.integers(0, 2)) for s in shapes]
            curve = [(k, rng.uniform(-1, 1, size=s) * int(rng.integers(0, 4) > 0) if k else None)
                     for k, s in zip(map(int, rng.integers(0, 3, size=h)), shapes)]
            n = int(rng.integers(1, 4))
            x = rng.uniform(-1, 1, size=(dims[-1], n))
            y = rng.uniform(-1, 1, size=(dims[0], n))
            got = _expansion(weights, curve, x, y)
            ex_w = [exact(w) for w in weights]
            ex_curve = [(k, None if d is None else exact(d)) for k, d in curve]
            want = _expansion(ex_w, ex_curve, exact(x), exact(y))
            assert all(isinstance(c, (int, Fraction)) for c in want)
            moved = [w if d is None else w + third**k * d for w, (k, d) in zip(ex_w, ex_curve)]
            change = value(moved, exact(x), exact(y)) - value(ex_w, exact(x), exact(y))
            assert sum(c * third**m for m, c in enumerate(want)) == change
            assert len(got) == len(want)
            scale = max(1.0, *(abs(float(c)) for c in want))
            for g, w in zip(got, want):
                assert abs(float(g) - float(w)) <= 1e-12 * scale


class TestFactory:
    def test_intro_instance_matches_reference(self):
        x, y, point = intro_point()
        assert np.array_equal(x, np.eye(2))
        assert np.array_equal(y, np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(point.weights[0], np.array([[1.0], [0.0]]))
        assert np.array_equal(point.weights[1], np.array([[0.0]]))
        assert np.array_equal(point.weights[2], np.array([[1.0, 0.0]]))

    def test_three_by_three_instance(self):
        x, y, point = counterexample_factory((3, 2, 2, 3))
        assert objective(point.weights, x, y) == pytest.approx(0.5, abs=1e-15)
        assert gradient_norm(gradient(point.weights, x, y)) <= 1e-12
        assert global_value(min(point.dims), x, y) == pytest.approx(0.0, abs=1e-15)

    def test_not_constructible_two_layer(self):
        with pytest.raises(NotConstructible):
            counterexample_factory((4, 2, 2))

    def test_not_constructible_increasing(self):
        with pytest.raises(NotConstructible):
            counterexample_factory((1, 2, 2, 1))

    def test_constructible_exactly_when_a_width_pair_exists(self):
        lacking = 0
        for h in (2, 3, 4):
            for dims in itertools.product((1, 2, 3), repeat=h + 1):
                if admissible_width_pair(dims) is None:
                    lacking += 1
                    with pytest.raises(NotConstructible):
                        counterexample_factory(dims)
                else:
                    counterexample_factory(dims)
        # selftest criterion 8 sweeps exactly these tuples
        assert lacking == 291


class TestFixture:
    def test_identities_and_values(self):
        x, y, point = rank_deficient_y_fixture()
        w3, w2, w1 = point.weights
        delta = product_matrix(point.weights) @ x - y
        assert np.abs(w3.T @ delta).max() <= 1e-12
        assert np.abs(delta @ w1.T).max() <= 1e-12
        assert gradient_norm(gradient(point.weights, x, y)) <= 1e-12
        assert objective(point.weights, x, y) == pytest.approx(2.0, abs=1e-12)
        assert rank(y) == 2


class TestGradientDescent:
    def test_converges_on_easy_instance(self):
        rng = np.random.default_rng(8)
        x = np.eye(3)
        y = rng.standard_normal((3, 1)) @ rng.standard_normal((1, 3))
        init = NetworkPoint(
            [rng.uniform(-1, 1, size=(3, 2)), rng.uniform(-1, 1, size=(2, 3))], x, y
        )
        res = run_gradient_descent(init, tol=Tolerances(grad_abs=1e-9))
        assert res.converged
        assert res.objective <= 1e-12

    def test_the_result_reports_its_own_point(self):
        # the descent takes the objective from each trial's forward pass
        # and the gradient from the accepted trial's, across the swap of
        # its two parameter buffers; both must be those of the point it
        # returns, whether it converged or ran out of iterations
        rng = np.random.default_rng(12)
        for max_iter in (1, 2, 7, 40, 1000):
            init = NetworkPoint(
                [rng.uniform(-1, 1, size=(2, 3)), rng.uniform(-1, 1, size=(3, 1)),
                 rng.uniform(-1, 1, size=(1, 3))],
                rng.uniform(-1, 1, size=(3, 4)), rng.uniform(-1, 1, size=(2, 4)),
            )
            res = run_gradient_descent(init, max_iter=max_iter)
            assert 0 < res.iterations <= max_iter
            weights, x, y = res.point.weights, res.point.x, res.point.y
            assert res.objective == objective(weights, x, y)
            assert res.gradient_norm == gradient_norm(gradient(weights, x, y))

    def test_a_descent_builds_at_most_one_network_point(self, monkeypatch):
        # the point is checked once at the boundary; trial steps are
        # views of a flat parameter vector.  The top layer starts ten
        # times larger, which the descent needs about 95 iterations for
        rng = np.random.default_rng(9)
        init = NetworkPoint(
            [10 * rng.uniform(-1, 1, size=(3, 2)), rng.uniform(-1, 1, size=(2, 4)),
             rng.uniform(-1, 1, size=(4, 3))],
            rng.uniform(-1, 1, size=(3, 4)), rng.uniform(-1, 1, size=(3, 4)),
        )
        built = []
        post_init = NetworkPoint.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(NetworkPoint, "__post_init__", counting)
        res = run_gradient_descent(init, max_iter=200)
        assert res.iterations >= 50
        assert len(built) <= 1

    def test_an_overflowing_start_is_a_numerical_failure(self):
        point = NetworkPoint([[[1e170]], [[1e-10]]], [[1.0]], [[1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="overflows at the start"):
                run_gradient_descent(point)


class TestValidation:
    def test_chain_mismatch(self):
        with pytest.raises(InputError):
            NetworkPoint([np.eye(2), np.eye(3)], np.eye(3), np.eye(2))

    def test_point_needs_a_layer_positive_widths_and_samples(self):
        for weights, x in (
            ([], np.eye(2)),
            ([np.zeros((2, 0)), np.zeros((0, 2))], np.eye(2)),
            ([np.eye(2)], np.zeros((2, 0))),
        ):
            with pytest.raises(InputError):
                NetworkPoint(weights, x, np.zeros((2, x.shape[1])))
