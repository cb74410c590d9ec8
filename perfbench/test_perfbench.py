"""Tests of the benchmark itself: tracer coverage, span rules, payload
determinism and the contract of the result line.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import tracer as tr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
bench.load_openmap(ROOT)

import openmap.landscape  # noqa: E402  (needs the path set by load_openmap)
import openmap.matrixio  # noqa: E402
import openmap.numcore  # noqa: E402
import openmap.selftest  # noqa: E402,F401  (one more namespace holding aliases)


def _openmap_values():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "openmap" or name.startswith("openmap.")):
            for key, value in vars(module).items():
                yield f"{name}.{key}", value
    yield "NetworkPoint.__post_init__", openmap.landscape.NetworkPoint.__dict__["__post_init__"]


def test_tracing_replaces_every_alias_and_restores_them():
    tracer = tr.Tracer()
    with tracer:
        originals = {id(f): name for name, f in tracer.originals.items()}
        unwrapped = [where for where, value in _openmap_values() if id(value) in originals]
        assert unwrapped == []
        # names imported from another module are wrapped too
        assert openmap.openness.truncated_svd is tracer.wrappers["numcore.truncated_svd"]
        assert openmap.realization.rank is tracer.wrappers["numcore.rank"]
        assert openmap.cli.classify is tracer.wrappers["landscape.classify"]
    left = [where for where, value in _openmap_values() if hasattr(value, "perfbench_target")]
    assert left == []
    assert openmap.openness.truncated_svd is openmap.numcore.truncated_svd
    assert openmap.openness.truncated_svd is tracer.originals["numcore.truncated_svd"]


def test_recursive_and_same_group_calls_open_one_span_but_count_every_call():
    tracer = tr.Tracer()
    with tracer:
        openmap.matrixio.to_jsonable({"a": [1, 2, {"b": np.float64(3.0)}]})
        openmap.numcore.rank(np.eye(3))
    names = [span[0] for span in tracer.spans]
    assert names == ["matrixio.to_jsonable", "numcore.rank"]
    calls = tracer.phases["program"].calls
    assert calls["matrixio.to_jsonable"] == 6
    assert calls["numcore.rank"] == 1 and calls["numcore.singular_values"] == 1
    assert all(span[2] is not None and span[2] >= span[1] for span in tracer.spans)


def test_self_times_add_up_to_the_outermost_span():
    point = openmap.landscape.counterexample_factory((2, 1, 1, 2))[2]
    tracer = tr.Tracer()
    with tracer:
        openmap.landscape.classify(point)
    total = sum(tracer.layer_self_times().values())
    (root,) = [s for s in tracer.spans if s[3] is None]
    assert total == pytest.approx(root[2] - root[1], rel=1e-9)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_same_seed_gives_the_same_payload_digest(name, tmp_path):
    spec = bench.WORKLOADS[name]
    digests = []
    for run in range(2):
        jobs = bench.build_jobs(name, 7, str(tmp_path / f"run{run}"))
        res = bench.measure(jobs, count=spec.digest_jobs, digest_jobs=spec.digest_jobs)
        assert res.outcomes[bench.wl.FAILED] == 0
        digests.append(res.digest)
    assert digests[0] == digests[1]
    other = bench.build_jobs(name, 8, str(tmp_path / "other"))
    res = bench.measure(other, count=spec.digest_jobs, digest_jobs=spec.digest_jobs)
    assert res.digest != digests[0]


def test_wall_clock_fields_do_not_enter_the_digest():
    payload = '{"result": {"records": [], "wall_clock_seconds": %s}}'
    outputs = [bench.wl.Output(0, payload % 0.5, ""), bench.wl.Output(0, payload % 0.7, "")]
    assert bench.canonical(outputs[:1]) == bench.canonical(outputs[1:])


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    res = bench.Measurement(program_s=1.0, latencies=[1.0])
    layer = bench.per_layer(tr.Tracer(), res, res)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "realize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_latency_keeps_ten_commands_beyond():
    p, value, beyond = bench.tail_latency(list(range(1, 401)))
    assert (p, value, beyond) == (95, 380, 20)
    p, value, beyond = bench.tail_latency(list(range(1, 100)))
    assert (p, beyond) == (75, 24)
