"""What the benchmark under ``perfbench/`` needs from the package.

The tracer resolves every name in its ``TARGETS`` with ``getattr`` and no
default, and the realize workload calls the symmetric recovery oracle
as ``gauss_newton_sym_recover(w, targets, delta, seed=...)``.  A refactor
that drops or renames either breaks the benchmark, so both are checked
here against the tracer file itself.

The classify workload confirms a saddle by moving to ``W + step * d``
and finding the objective lower there; the escapes of the classify
goldens and of the factory points it draws are checked the same way,
and against the curve their ``exponents`` describe.
"""

import importlib
import importlib.util
import inspect
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from test_cli_golden import CASES, GOLDEN_DIR, WEIGHT_LISTS, _inputs

import openmap.symmetric
from openmap.landscape import (
    NetworkPoint,
    _expansion,
    _leading,
    admissible_width_pair,
    classify,
    counterexample_factory,
    objective,
)
from openmap.matrixio import matrices_from_payload, matrix_from_payload
from openmap.numcore import DEFAULT_TOL

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    assert targets
    for module_name, attr, _group, _opens_span in targets:
        obj = importlib.import_module(f"openmap.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"openmap.{module_name}.{attr}"


def test_sym_oracle_accepts_the_benchmark_call():
    sig = inspect.signature(openmap.symmetric.gauss_newton_sym_recover)
    sig.bind(np.eye(2), np.eye(2)[None], 1e-3, seed=1)


def _golden_escapes():
    """``(name, point, directions, step, order, exponents)`` of every
    classify and fixture golden."""
    inputs = {**_inputs(), **WEIGHT_LISTS}
    for name, (argv, code) in sorted(CASES.items()):
        if code or argv[:2] not in (["net", "classify"], ["net", "fixture"]):
            continue
        with open(GOLDEN_DIR / f"{name}.json") as fh:
            result = json.load(fh)["result"]
        if argv[1] == "fixture":
            point = NetworkPoint(matrices_from_payload(result["weights"]),
                                 matrix_from_payload(result["x"]), matrix_from_payload(result["y"]))
            result = result["classification"]
        else:
            args = {flag: inputs[value.strip("{}")] for flag, value in zip(argv[2::2], argv[3::2])}
            point = NetworkPoint(args["--weights"], args["--x"], args["--y"])
        d = result["descent_direction"]
        yield name, point, matrices_from_payload(d["directions"]), d["step"], d["order"], d["exponents"]


def _factory_escapes():
    for h in (3, 4):
        for dims in itertools.product((1, 2, 3), repeat=h + 1):
            if admissible_width_pair(dims) is not None:
                _, _, point = counterexample_factory(dims)
                d = classify(point).descent_direction
                yield dims, point, d.directions, d.step, d.order, d.exponents


@pytest.mark.parametrize("escapes, count", [(_golden_escapes, 10), (_factory_escapes, 60)])
def test_every_classify_escape_is_confirmed_and_leads_at_its_order(escapes, count):
    seen = 0
    for name, point, directions, step, order, exponents in escapes():
        seen += 1
        weights, x, y = point.weights, point.x, point.y
        moved = [w + step * d for w, d in zip(weights, directions)]
        assert objective(moved, x, y) < objective(weights, x, y) - DEFAULT_TOL.residual_abs, name
        curve = [(k, d / step ** (k - 1)) if k else (0, None)
                 for k, d in zip(exponents, directions)]
        coeffs = _expansion(weights, curve, x, y)
        assert _leading(coeffs, curve, DEFAULT_TOL.grad_abs) == order, name
        assert coeffs[order] < 0, name
    assert seen == count
