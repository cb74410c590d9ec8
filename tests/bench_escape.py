"""Timing harness for one expansion of the saddle escape.

Not collected by the test suite (the file name does not start with
``test_``); run it by its path:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -s tests/bench_escape.py

It times ``landscape._expansion`` on a full curve of widths
(3, 2, 3, 3, 3), every layer moved at exponent 1, and ``_forward`` at the
same point, in ``ROUNDS`` interleaved calls each, and prints both medians
and how many forward passes one expansion costs: an exact line search on
the expansion's polynomial only pays when that is about two.  BLAS
should run on one thread (``OPENBLAS_NUM_THREADS=1``), as in the
benchmark runs.
"""

import statistics
import time

import numpy as np

from openmap.landscape import _expansion, _forward

# widths output first: the first fixed-width sweep of the descent workload
DIMS = (3, 2, 3, 3, 3)
SAMPLES = 6
ROUNDS = 2000


def test_expansion_in_forward_passes():
    rng = np.random.default_rng(0)
    shapes = [(DIMS[i], DIMS[i + 1]) for i in range(len(DIMS) - 1)]
    weights = [rng.uniform(-1, 1, size=s) for s in shapes]
    curve = [(1, rng.uniform(-1, 1, size=s)) for s in shapes]
    x = rng.standard_normal((DIMS[-1], SAMPLES))
    y = rng.standard_normal((DIMS[0], SAMPLES))
    assert len(_expansion(weights, curve, x, y)) == 2 * len(weights) + 1
    calls = (lambda: _expansion(weights, curve, x, y), lambda: _forward(weights, x))
    times = ([], [])
    for _ in range(ROUNDS):
        for fn, seen in zip(calls, times):
            start = time.perf_counter()
            fn()
            seen.append(time.perf_counter() - start)
    expansion, forward = (statistics.median(t) for t in times)
    print(f"\nexpansion {1e6 * expansion:.2f} us, forward {1e6 * forward:.2f} us: "
          f"one expansion costs {expansion / forward:.1f} forward passes")
