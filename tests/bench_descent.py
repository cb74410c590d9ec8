"""Timing harness for one step of the quasi-Newton descent.

Not collected by the test suite (the file name does not start with
``test_``); run it by its path:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/bench_descent.py

With ``pytest-benchmark`` installed its ``benchmark`` fixture times the
cases and ``--benchmark-json`` saves them; without it a stand-in below
prints the median of ``ROUNDS`` timed calls.  BLAS should run on one
thread (``OPENBLAS_NUM_THREADS=1``), as in the benchmark runs.
"""

import statistics
import time

import numpy as np
import pytest

from openmap import landscape
from openmap.landscape import NetworkPoint, run_gradient_descent
from openmap.numcore import Tolerances

# a descent of this many iterations is timed: its time over ITERATIONS is
# one iteration, the start-up and the result's point included
ITERATIONS = 100
# widths (3, 2, 3, 3, 3), output first: the first fixed-width sweep of
# the descent workload, without an admissible width pair
DIMS = (3, 2, 3, 3, 3)
SAMPLES = 6
ROUNDS = 200

try:
    import pytest_benchmark  # noqa: F401
except ImportError:
    @pytest.fixture
    def benchmark(request):
        def run(fn, *args):
            times = []
            for _ in range(ROUNDS):
                start = time.perf_counter()
                result = fn(*args)
                times.append(time.perf_counter() - start)
            print(f"\n{request.node.name}: median {1e6 * statistics.median(times):.2f} us "
                  f"over {ROUNDS} calls")
            return result
        return run


def _start():
    rng = np.random.default_rng(0)
    weights = [rng.uniform(-1, 1, size=(DIMS[i], DIMS[i + 1])) for i in range(len(DIMS) - 1)]
    x = rng.standard_normal((DIMS[-1], SAMPLES))
    y = rng.standard_normal((DIMS[0], SAMPLES))
    return NetworkPoint(weights, x, y)


def test_descent_iterations(benchmark):
    point, tol = _start(), Tolerances(grad_abs=1e-300)
    result = benchmark(run_gradient_descent, point, tol, ITERATIONS)
    assert result.iterations == ITERATIONS
    assert result.exit_reason == landscape.MAX_ITER


def test_direction_at_full_history(benchmark):
    # pairs y = A s of a seeded quadratic over as many parameters as the
    # descent above, one more than the history keeps
    rng = np.random.default_rng(1)
    n = sum(a * b for a, b in zip(DIMS, DIMS[1:]))
    b = rng.standard_normal((n, n))
    curv = b @ b.T + np.eye(n)
    history = landscape._History(n)
    for _ in range(landscape._HISTORY + 1):
        s = rng.standard_normal(n)
        history.add(s, curv @ s)
    assert history.size == landscape._HISTORY
    grad = rng.standard_normal(n)
    direction = benchmark(history.direction, grad)
    assert direction.dot(grad) < 0
