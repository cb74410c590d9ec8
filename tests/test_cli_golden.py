"""Golden payloads for every CLI command.

Each case runs ``openmap.cli.main`` in-process on fixed inputs and seeds
and compares the JSON it prints with ``tests/golden/<case>.json``: keys
and their order, JSON types (``true`` is not ``1``), ints and strings
exactly, floats to a relative 1e-12.  ``wall_clock_seconds`` and
``seconds`` are stripped on both sides.  Error cases compare the JSON
object printed on stderr and the exit code.
"""

import json
import math
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from openmap.cli import COMMANDS, main
from openmap.matrixio import matrix_to_payload

GOLDEN_DIR = Path(__file__).parent / "golden"

_TIMING_KEYS = ("wall_clock_seconds", "seconds")

# open pair of the rank-deficient regime: ranks 1 = 1 = 1, N(w1) & C(w2) = 0
W1_OPEN = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
W2_OPEN = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
# same left factor, C(w2) inside N(w1): the product vanishes, not open
W2_CLOSED = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
# a generic full-rank pair and a nearby exact product of perturbed factors
W1_GENERIC = [[1.0, 0.5], [-0.3, 2.0], [0.7, -1.1]]
W2_GENERIC = [[0.4, -1.2, 0.9], [1.5, 0.2, -0.6]]
E1 = [[0.3, -0.1], [0.2, 0.5], [-0.4, 0.1]]
E2 = [[0.1, 0.2, -0.3], [-0.2, 0.4, 0.1]]
# full-rank regime with neither factor full rank on its side: realize
# completes a factor inside the null space of the other
W1_DIAG110 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
W2_E1 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
E_FULL = np.arange(6.0).reshape(3, 2) - 2.5
# singular value inside the ambiguity band above the rank cutoff
W1_AMBIGUOUS = [[1.0, 0.0], [0.0, 1e-15]]
W_SYM = [[1.0, 0.2], [-0.5, 0.8], [0.3, 0.0]]
E_SYM = [[0.01, -0.02], [0.0, 0.015], [-0.01, 0.005]]
SIGMA = [[1.0, 2.0]]
R_SYM = [[1e-3, 2e-4], [2e-4, -5e-4]]
# depth-2 critical point with a degenerate product (zero weights)
NET_WEIGHTS = [[[0.0], [0.0]], [[0.0, 0.0]]]
NET_X = [[1.0, 0.0], [0.0, 1.0]]
NET_Y = [[1.0, 0.0], [0.0, 2.0]]
# degenerate critical points whose escapes hop over different layers
E11 = [[1.0, 0.0], [0.0, 0.0]]
WEIGHT_LISTS = {
    "net_weights": NET_WEIGHTS,
    "deep_a_weights": [E11, [[1.0, 0.0], [0.0, 1.0]], E11],
    "deep_b_weights": [[[0.0, 0.0], [0.0, 0.0]]] * 3,
    "deep_b_left_weights": [[[1.0], [0.0]], [[0.0]], [[0.0, 0.0]]],
    "deep_a_left_weights": [[[0.0], [0.0]], [[1.0]], [[0.0, 0.0]],
                            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
    "two_layer_w1t_weights": [[[1.0], [0.0]], [[0.0, 0.0]]],
}


def _inputs():
    w1g, w2g = np.array(W1_GENERIC), np.array(W2_GENERIC)
    w_sym = np.array(W_SYM) + np.array(E_SYM)
    return {
        "w1_open": W1_OPEN,
        "w2_open": W2_OPEN,
        "w2_closed": W2_CLOSED,
        "w1_generic": W1_GENERIC,
        "w2_generic": W2_GENERIC,
        "target_generic": (w1g + 1e-4 * np.array(E1)) @ (w2g + 1e-4 * np.array(E2)),
        "target_far": (w1g + np.array(E1)) @ (w2g + np.array(E2)),
        "w1_diag110": W1_DIAG110,
        "w2_e1": W2_E1,
        "target_completion": np.array(W1_DIAG110) @ W2_E1 + 1e-4 * E_FULL,
        "w1_ambiguous": W1_AMBIGUOUS,
        "eye2": np.eye(2),
        "w_sym": W_SYM,
        "target_sym": w_sym @ w_sym.T,
        "sigma": SIGMA,
        "r_sym": R_SYM,
        "net_x": NET_X,
        "net_y": NET_Y,
        "eye3": np.eye(3),
        "deep_a_y": [[1.0, 0.0], [0.0, 3.0]],
        "deep_b_left_y": [[0.0, 0.0], [0.0, 1.0]],
        "deep_a_left_y": [[2.0, 1.0, -2.0], [1.0, -1.0, 2.0]],
    }


COMMON = ["--jobs", "1"]
# passed only to the commands that take --seed
SEED = ["--seed", "7"]

# case name -> (argv with {input} placeholders, expected exit code)
CASES = {
    "openness_check": (
        ["openness", "check", "--w1", "{w1_open}", "--w2", "{w2_closed}"], 0),
    "openness_check_full": (
        ["openness", "check", "--w1", "{eye2}", "--w2", "{eye2}"], 0),
    "openness_check_witnesses": (
        ["openness", "check", "--w1", "{w1_open}", "--w2", "{w2_open}",
         "--witnesses"], 0),
    "openness_probe": (
        ["openness", "probe", "--w1", "{w1_open}", "--w2", "{w2_open}",
         "--delta", "1e-5", "--trials", "4"], 0),
    "realize": (
        ["realize", "--w1", "{w1_generic}", "--w2", "{w2_generic}",
         "--target", "{target_generic}"], 0),
    "realize_full_rank_completion": (
        ["realize", "--w1", "{w1_diag110}", "--w2", "{w2_e1}",
         "--target", "{target_completion}"], 0),
    "realize_ratio_sweep": (
        ["realize", "ratio-sweep", "--w1", "{w1_open}", "--w2", "{w2_open}",
         "--deltas", "1e-3,1e-6", "--trials", "2"], 0),
    "sym_solve": (["sym", "solve", "--sigma", "{sigma}", "--r", "{r_sym}"], 0),
    "sym_realize": (
        ["sym", "realize", "--w", "{w_sym}", "--target", "{target_sym}"], 0),
    "sym_certify": (["sym", "certify", "--w", "{w_sym}"], 0),
    "net_classify": (
        ["net", "classify", "--weights", "{net_weights}", "--x", "{net_x}",
         "--y", "{net_y}"], 0),
    "net_classify_deep_case_a": (
        ["net", "classify", "--weights", "{deep_a_weights}", "--x", "{eye2}",
         "--y", "{deep_a_y}"], 0),
    "net_classify_deep_case_b": (
        ["net", "classify", "--weights", "{deep_b_weights}", "--x", "{eye2}",
         "--y", "{net_y}"], 0),
    "net_classify_deep_case_b_left": (
        ["net", "classify", "--weights", "{deep_b_left_weights}", "--x", "{eye2}",
         "--y", "{deep_b_left_y}"], 0),
    "net_classify_deep_case_a_left": (
        ["net", "classify", "--weights", "{deep_a_left_weights}", "--x", "{eye3}",
         "--y", "{deep_a_left_y}"], 0),
    "net_classify_two_layer_w1t": (
        ["net", "classify", "--weights", "{two_layer_w1t_weights}", "--x", "{eye2}",
         "--y", "{deep_b_left_y}"], 0),
    "net_counterexample": (["net", "counterexample", "--dims", "2,1,1,2"], 0),
    "net_fixture_spurious_rank2_target": (
        ["net", "fixture", "--name", "spurious-rank2-target"], 0),
    "net_fixture_appendix_d": (["net", "fixture", "--name", "appendix-d"], 0),
    "net_fixture_corner_target": (["net", "fixture", "--name", "corner-target"], 0),
    "net_fixture_intro": (["net", "fixture", "--name", "intro"], 0),
    "net_probe": (
        ["net", "probe", "--weights", "{net_weights}", "--x", "{net_x}",
         "--y", "{net_y}"], 0),
    "net_gd_sweep": (
        ["net", "gd-sweep", "--dims", "2,1,2", "--trials", "3",
         "--max-iter", "3000"], 0),
    "error_input": (["net", "fixture", "--name", "no-such-fixture"], 2),
    "error_domain": (
        ["realize", "--w1", "{w1_generic}", "--w2", "{w2_generic}",
         "--target", "{target_far}"], 3),
    "error_numerical": (
        ["openness", "check", "--w1", "{w1_ambiguous}", "--w2", "{eye2}"], 4),
}


def write_inputs(directory):
    """Write every input matrix as a JSON file; returns name -> path."""
    paths = {}
    for name, mat in _inputs().items():
        paths[name] = str(directory / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(matrix_to_payload(np.asarray(mat, dtype=float)), fh)
    for name, weights in WEIGHT_LISTS.items():
        paths[name] = str(directory / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump([matrix_to_payload(np.array(w, dtype=float)) for w in weights], fh)
    return paths


def run_case(name, paths, capsys):
    """Run one case; returns (exit code, parsed stdout or stderr JSON)."""
    argv, _ = CASES[name]
    flags = COMMANDS[tuple(takewhile(lambda tok: not tok.startswith("-"), argv))].flags
    seed = SEED if any(flag == "--seed" for flag, _ in flags) else []
    argv = [tok.format(**paths) for tok in argv] + COMMON + seed
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out if code == 0 else err)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in _TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def assert_matches(got, want, path="$"):
    assert type(got) is type(want), (
        f"{path}: {type(got).__name__} != {type(want).__name__}"
    )
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_payload_matches_golden(name, input_paths, capsys):
    code, payload = run_case(name, input_paths, capsys)
    assert code == CASES[name][1]
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        golden = json.load(fh)
    assert_matches(strip_timing(payload), golden)


def test_golden_comparison_tells_bool_from_int():
    with pytest.raises(AssertionError):
        assert_matches({"open": 1}, {"open": True})
    with pytest.raises(AssertionError):
        assert_matches({"b": 1, "a": 2}, {"a": 2, "b": 1})
    assert_matches({"x": 1.0 + 1e-14}, {"x": 1.0})


def test_every_golden_file_belongs_to_a_case():
    # tests/test_recovery_oracles.py owns recovery_oracles.json
    goldens = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert goldens - {"recovery_oracles"} <= set(CASES)


def test_every_command_in_the_table_has_a_golden_case():
    # selftest prints one line per criterion, not a payload;
    # tests/test_selftest.py covers it
    exercised = {tuple(takewhile(lambda tok: not tok.startswith("-"), argv))
                 for argv, _ in CASES.values()}
    assert exercised == set(COMMANDS) - {("selftest",)}
