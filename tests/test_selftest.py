import json

import numpy as np
import pytest

from openmap import realization, selftest
from openmap.cli import main
from openmap.errors import NumericalFailure

# criteria fast enough for tier-1, with the runtime check each one carries;
# 3 and 8 take a minute or more and run in tests/test_selftest_slow.py
FAST_CRITERIA = {
    1: "runtime_under_1s",
    2: "runtime_under_1s",
    4: "runtime_under_1min",
    5: "runtime_under_10s",
    6: "runtime_under_1min",
    7: "runtime_under_2min",
    9: "runtime_under_10s",
    10: "runtime_under_5s",
}


@pytest.mark.parametrize("number", sorted(FAST_CRITERIA))
def test_fast_criterion_passes_inside_its_budget(number):
    # the registry holds every criterion under its own number and name
    assert sorted(selftest.CRITERIA) == list(range(1, 11))
    assert selftest.CRITERIA[number] is getattr(selftest, f"criterion_{number}")
    res = selftest.CRITERIA[number]()
    assert res.number == number
    checks = res.details["checks"]
    assert res.passed, checks
    # the runtime check is the last one recorded
    assert list(checks)[-1] == FAST_CRITERIA[number]
    assert checks[FAST_CRITERIA[number]] is True
    assert res.seconds >= 0.0
    if number == 7:
        # the checks cover converged trials only, so most must converge
        assert res.details["converged"] >= 190
    if number in (1, 2):
        # the fixtures are certified saddles, and the exact escape is the
        # whole expansion along the hand-built rational curve
        assert res.details["status"] == "SaddleHigherOrder"
        assert checks["classified_saddle"] and checks["exact_escape"]
        assert res.details["escape_coefficients"][4] == ("-1/2" if number == 1 else "-2")


@pytest.mark.parametrize("only", ["x", "42", "4,0", ""])
def test_only_rejects_unknown_criteria(only, monkeypatch, capsys):
    def fail(only=None, jobs=1):
        raise AssertionError(f"run_all called with only={only}")

    monkeypatch.setattr(selftest, "run_all", fail)
    assert main(["selftest", "--only", only]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


def test_criterion_4_counts_a_numerical_failure_as_a_failed_check(monkeypatch):
    def fail(pair, target, tol):
        raise NumericalFailure("realized product misses the target")

    monkeypatch.setattr(realization, "realize", fail)
    res = selftest.criterion_4()
    assert not res.passed
    assert res.details["checks"]["no_failures"] is False
    assert res.details["failures"][0] == "NumericalFailure at delta=0.001"


def test_jobs_reaches_run_all(monkeypatch):
    seen = {}

    def fake_run_all(only=None, jobs=1):
        seen.update(only=only, jobs=jobs)
        return []

    monkeypatch.setattr(selftest, "run_all", fake_run_all)
    assert main(["selftest", "--only", "7,8", "--jobs", "3"]) == 0
    assert seen == {"only": {7, 8}, "jobs": 3}


def test_out_writes_one_object_per_criterion(tmp_path, capsys):
    out = tmp_path / "selftest.json"
    assert main(["selftest", "--only", "9,10", "--jobs", "1", "--out", str(out)]) == 0
    assert "[PASS] criterion 9" in capsys.readouterr().out
    results = json.loads(out.read_text())
    assert [r["number"] for r in results] == [9, 10]
    for r in results:
        assert list(r) == ["number", "name", "passed", "seconds", "details"]
        assert r["passed"] is True


def test_exact_rank_matches_the_float_rank_on_small_integer_matrices():
    rng = np.random.default_rng(0)
    for shape in ((1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (3, 5)):
        full = rng.integers(-3, 4, size=(500, *shape))
        low = rng.integers(-2, 3, size=(500, shape[0], 2)) @ rng.integers(
            -2, 3, size=(500, 2, shape[1]))
        for mats in (full, low, 0 * full):
            want = [np.linalg.matrix_rank(mat) for mat in mats]
            assert selftest._exact_rank(mats).tolist() == want, shape


def test_exact_rank_keeps_the_stack_shape_and_pivots_past_zero_columns():
    mats = np.array([[[0, 1, 0], [0, 2, 0], [0, 0, 3]],
                     [[0, 0, 0], [0, 0, 0], [1, 1, 1]],
                     [[2, 4, 6], [1, 2, 3], [3, 6, 9]],
                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert selftest._exact_rank(mats.reshape(2, 2, 3, 3)).tolist() == [[2, 1], [1, 3]]
