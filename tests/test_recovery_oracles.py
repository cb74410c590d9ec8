"""Pinned outputs of the two Levenberg-Marquardt recovery oracles.

``gauss_newton_recover`` (factor pairs) and ``gauss_newton_sym_recover``
(symmetric factors) run on fixed inputs and seeds; every output --
success flags, residuals, norms and the perturbations themselves -- is
compared with ``tests/golden/recovery_oracles.json`` by the golden
comparator (ints and bools exactly, floats to a relative 1e-12).

The cases cover each oracle's retry schedule: ``factor_open_boundary``
and both rank-deficient ``sym`` cases stall from the zero start and
succeed on a jittered retry; ``factor_closed`` fails every retry round
and keeps its first-pass outputs, where each fit stopped at its first
accepted iterate beyond twice the factor-norm cap.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from openmap.errors import NumericalFailure
from openmap.matrixio import to_jsonable
from openmap.numcore import DEFAULT_TOL
from openmap.openness import draw_directions, gauss_newton_recover, sample_feasible_target
from openmap.symmetric import gauss_newton_sym_recover
from test_cli_golden import (
    W1_GENERIC,
    W1_OPEN,
    W2_CLOSED,
    W2_GENERIC,
    W2_OPEN,
    W_SYM,
    assert_matches,
)

GOLDEN = Path(__file__).parent / "golden" / "recovery_oracles.json"

# case -> (w1, w2, delta, trials, seed)
FACTOR_CASES = {
    "factor_generic": (W1_GENERIC, W2_GENERIC, 1e-3, 3, 3),
    "factor_open_boundary": (W1_OPEN, W2_OPEN, 1e-5, 4, 7),
    "factor_closed": (W1_OPEN, W2_CLOSED, 1e-5, 3, 2),
}

# case -> (w, delta, trials, seed)
SYM_CASES = {
    "sym_generic": (W_SYM, 1e-3, 3, 4),
    "sym_zero": (np.zeros((3, 2)), 1e-4, 3, 6),
    "sym_rank_one": ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], 1e-4, 3, 8),
}


def _jsonable(out):
    """Per-trial lists: flags and scalars as lists, matrices one per trial."""
    return to_jsonable({
        key: list(val) if val.ndim == 3 else val.tolist()
        for key, val in out.items()
    })


def factor_outputs(name):
    w1, w2, delta, trials, seed = FACTOR_CASES[name]
    w1, w2 = np.array(w1, dtype=float), np.array(w2, dtype=float)
    z = w1 @ w2
    cap = min(w1.shape[0], w1.shape[1], w2.shape[1])
    g = np.stack([np.random.default_rng([seed, t]).standard_normal(z.shape)
                  for t in range(trials)])
    targets = sample_feasible_target(z, cap, delta, g)
    return _jsonable(gauss_newton_recover(w1, w2, targets, delta, DEFAULT_TOL, seed=seed))


def sym_outputs(name):
    w, delta, trials, seed = SYM_CASES[name]
    w = np.array(w, dtype=float)
    targets = []
    for t in range(trials):
        e = np.random.default_rng([seed, t]).standard_normal(w.shape)
        e *= delta / np.linalg.norm(e)
        targets.append((w + e) @ (w + e).T)
    return _jsonable(gauss_newton_sym_recover(w, np.stack(targets), delta, seed=seed))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_factor_oracle_matches_golden(name, golden):
    assert_matches(factor_outputs(name), golden[name], f"${name}")


@pytest.mark.parametrize("name", sorted(SYM_CASES))
def test_sym_oracle_matches_golden(name, golden):
    assert_matches(sym_outputs(name), golden[name], f"${name}")


def _overflowing_factor_inputs():
    # at delta 1e308 the sampled targets are near overflow, the iterates
    # overflow, and one damped normal system comes out exactly singular
    # (on the probe's seed-7 directions and retry streams)
    w1, w2 = np.array(W1_OPEN), np.array(W2_OPEN)
    g = draw_directions(7, 5, (3, 3))
    return (w1, w2, sample_feasible_target(w1 @ w2, 1, 1e308, g), 1e308, DEFAULT_TOL, 7)


def _overflowing_sym_inputs():
    # a seeded 2x3 {-1,0,1} factor and symmetric targets of norm ~1e150
    # on which the iterates overflow the same way
    rng = np.random.default_rng(115)
    w = rng.integers(-1, 2, (2, 3)).astype(float)
    g = rng.standard_normal((5, 2, 2))
    return (w, 1.3241633958219121e150 * (g + g.transpose(0, 2, 1)), 1e308)


@pytest.mark.parametrize("oracle, inputs", [
    (gauss_newton_recover, _overflowing_factor_inputs),
    (gauss_newton_sym_recover, _overflowing_sym_inputs),
], ids=["factor", "sym"])
def test_a_singular_damped_system_is_a_numerical_failure(oracle, inputs):
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="singular"):
        oracle(*inputs())
