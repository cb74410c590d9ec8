"""What the benchmark under ``perfbench/`` needs from the package.

The tracer resolves every name in its ``TARGETS`` with ``getattr`` and no
default, and the realize workload calls the symmetric recovery oracle
as ``gauss_newton_sym_recover(w, targets, delta, seed=...)``.  A refactor
that drops or renames either breaks the benchmark, so both are checked
here against the tracer file itself.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import openmap.symmetric

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
