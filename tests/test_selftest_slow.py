"""Acceptance criteria that take minutes; run them with ``pytest -m slow``."""

import pytest

from openmap import selftest


@pytest.mark.slow
def test_criterion_8_passes_inside_its_budget():
    res = selftest.criterion_8(jobs=2)
    checks = res.details["checks"]
    assert res.passed, checks
    assert list(checks)[-1] == "runtime_under_10min"
