import json

import pytest

from openmap import selftest
from openmap.cli import main

# criteria fast enough for tier-1, with the runtime check each one carries;
# 3 and 8 take minutes (8 runs in tests/test_selftest_slow.py)
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


@pytest.mark.parametrize("only", ["x", "42", "4,0"])
def test_only_rejects_unknown_criteria(only, capsys):
    assert main(["selftest", "--only", only]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


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
