"""Acceptance criteria that take a minute or more; run them with
``pytest -m slow``."""

import pytest

from openmap import selftest


@pytest.mark.slow
def test_criterion_8_passes_inside_its_budget():
    res = selftest.criterion_8(jobs=2)
    checks = res.details["checks"]
    assert res.passed, checks
    assert list(checks)[-1] == "runtime_under_10min"
    # the converged endpoints criterion 7's accounting would not explain:
    # at most the two that drift along the rescaling symmetry
    drift = {((1, 1, 1, 1, 2), 100, 25), ((1, 1, 1, 1, 2), 100, 60)}
    assert set(res.details["unexplained_endpoints"]) <= drift


@pytest.mark.slow
def test_criterion_3_passes_inside_its_budget():
    res = selftest.criterion_3()
    checks = res.details["checks"]
    assert res.passed, checks
    assert list(checks)[-1] == "runtime_under_5min"
    assert res.details["float_rank_mismatches"] == 0
    # the criterion passes at 99% agreement; every probed pair agrees
    assert res.details["agreement"] == 1.0
    assert res.details["flagged"] == 0
