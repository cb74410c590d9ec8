"""Benchmark of the openmap CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload probe --seed 1 --seconds 20 --trace 0

Workloads: probe, realize, descent, classify (see ``bench.WORKLOADS`` and
the reasons in ``BENCHMARK.json``).  Seed 4099 (``bench.HELD_OUT_SEED``)
was not used while the benchmark was tuned.  BLAS runs on one thread and
every command gets ``--jobs 1``, so a run is one single-threaded process.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.

The benchmark's own tests: ``python -m pytest perfbench``.
"""

import os
import sys

# before numpy is imported anywhere: one BLAS thread, and no environment
# defaults that would change the commands' seeds or start a process pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("OPENMAP_JOBS", "OPENMAP_SEED"):
    os.environ.pop(_var, None)

if __name__ == "__main__":
    from bench import main

    sys.exit(main(sys.argv[1:]))
