"""The CLI's command table, parser reuse and error contract."""

import argparse
import concurrent.futures
import json
import os
import warnings

import numpy as np
import pytest

from openmap import cli, landscape
from openmap.cli import COMMANDS, main
from openmap.landscape import global_value
from openmap.matrixio import matrix_to_payload
from openmap.numcore import Tolerances


def _error(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    return json.loads(err)


@pytest.mark.parametrize("argv", [
    ["net", "classify"],  # required flags missing
    ["openness", "probe", "--w1", "a.json", "--w2", "b.json", "--delta", "abc"],
    ["sym", "certify", "--w", "a.json", "--trials", "3"],  # runs no trials
    ["frobnicate", "--w", "a.json"],
    ["net"],  # a group, not a command
    ["realize", "--w1", "a.json", "--bogus", "1"],
])
def test_usage_errors_render_as_json_input_errors(argv, capsys):
    assert main(argv) == 2
    err = _error(capsys)
    assert err["error"] == "InputError"
    assert err["exit_code"] == 2


def test_a_directory_as_input_exits_2(tmp_path, capsys):
    assert main(["sym", "certify", "--w", str(tmp_path)]) == 2
    assert _error(capsys)["error"] == "IsADirectoryError"


def test_a_missing_input_keeps_its_error_name(tmp_path, capsys):
    assert main(["sym", "certify", "--w", str(tmp_path / "none.json")]) == 2
    assert _error(capsys)["error"] == "FileNotFoundError"


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"rows": 1, "cols": 1, "data": [1.0]} é'.encode("latin-1"))
    assert main(["sym", "certify", "--w", str(path)]) == 2
    err = _error(capsys)
    assert err["error"] == "InputError"
    assert "not UTF-8" in err["message"]


def test_environment_variables_set_no_defaults(monkeypatch, capsys):
    # --seed defaults to 0 and --jobs to the CPU count, whatever the
    # environment holds
    monkeypatch.setenv("OPENMAP_SEED", "5")
    monkeypatch.setenv("OPENMAP_JOBS", str((os.cpu_count() or 1) + 1))
    assert main(["net", "fixture", "--name", "intro"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["seed"] == 0
    assert config["jobs"] == (os.cpu_count() or 1)


# the commands that draw at random, and the default --trials of those
# that run trials; no other command takes either flag
SEEDED = {("openness", "probe"), ("realize", "ratio-sweep"), ("net", "classify"),
          ("net", "fixture"), ("net", "probe"), ("net", "gd-sweep")}
TRIALS = {("openness", "probe"): 50, ("realize", "ratio-sweep"): 5,
          ("net", "gd-sweep"): 20}


# flags that name files, which the config echo leaves out, and a value
# for each required flag that names none
FILE_FLAGS = {"w1", "w2", "target", "sigma", "r", "w", "weights", "x", "y", "out"}
TOL_FLAGS = {"tol_rank", "tol_grad", "tol_residual"}
VALUES = {"deltas": "1e-3", "dims": "2,1,2", "name": "intro"}
# the --tol-* flags of each command: those whose tolerance its handler reads
RANK_RESIDUAL = {"tol_rank", "tol_residual"}
TOLS = {("net", "classify"): TOL_FLAGS, ("net", "fixture"): TOL_FLAGS,
        ("net", "gd-sweep"): TOL_FLAGS,
        ("openness", "check"): RANK_RESIDUAL, ("realize",): RANK_RESIDUAL,
        ("realize", "ratio-sweep"): RANK_RESIDUAL, ("sym", "realize"): RANK_RESIDUAL,
        ("sym", "certify"): {"tol_rank"}, ("net", "counterexample"): {"tol_rank"},
        ("openness", "probe"): {"tol_residual"}, ("sym", "solve"): {"tol_residual"},
        ("net", "probe"): {"tol_residual"}, ("selftest",): set()}


@pytest.mark.parametrize("path", sorted(COMMANDS))
def test_seed_and_trials_go_only_to_the_commands_that_read_them(path):
    parser = cli._leaf_parser(path)
    actions = [action for action in parser._actions if action.dest != "help"]
    defaults = {action.dest: action.default for action in actions}
    assert ("seed" in defaults) == (path in SEEDED)
    assert defaults.get("trials") == TRIALS.get(path)
    assert {dest for dest in defaults if dest.startswith("tol_")} == TOLS[path]
    # every file flag gets a path, optional ones included
    argv, files = [], []
    for action in actions:
        if action.dest in FILE_FLAGS:
            files.append(f"{action.dest}.json")
            argv += [action.option_strings[0], files[-1]]
        elif action.required:
            argv += [action.option_strings[0], VALUES[action.dest]]
    args = parser.parse_args(argv)
    config = cli._config(path, args, cli._tolerances(args))
    head = ["command", *(key for key in ("seed", "trials") if key in defaults),
            "jobs", "tolerances"]
    assert list(config)[:len(head)] == head
    for dest in defaults:
        assert (dest in config) != (dest in FILE_FLAGS | TOL_FLAGS), dest
    assert not any(value in files for value in config.values())
    assert ("seed" in config) == (path in SEEDED)
    assert config.get("trials") == TRIALS.get(path)


def test_out_writes_the_line_stdout_would_hold(tmp_path, capsys):
    argv = ["net", "counterexample", "--dims", "2,1,1,2", "--jobs", "1"]
    assert main(argv) == 0
    line = capsys.readouterr().out
    out = tmp_path / "payload.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == line


@pytest.mark.parametrize("argv, message", [
    (["net", "counterexample", "--dims", "2,1,2", "--jobs", "0"],
     "--jobs must be at least 1"),
    (["realize", "ratio-sweep", "--w1", "a.json", "--w2", "b.json", "--deltas", "1e-3,x"],
     "--deltas must be comma-separated reals: could not convert string to float: 'x'"),
    (["net", "counterexample", "--dims", "2"], "--dims needs at least two widths"),
    (["net", "gd-sweep", "--dims", "2"], "--dims needs at least two widths"),
    (["net", "counterexample", "--dims", "a,b"],
     "--dims must be comma-separated integers: invalid literal for int() with base 10: 'a'"),
    (["net", "gd-sweep", "--dims", "a,b"],
     "--dims must be comma-separated integers: invalid literal for int() with base 10: 'a'"),
    (["openness", "probe", "--w1", "{w1}", "--w2", "{w2}", "--delta", "1e-5", "--trials", "0"],
     "trials must be a positive count"),
    (["realize", "ratio-sweep", "--w1", "{w1}", "--w2", "{w2}", "--deltas", "1e-3",
      "--trials", "0"], "trials must be a positive count"),
    (["net", "gd-sweep", "--dims", "2,1,2", "--trials", "0"], "trials must be a positive count"),
    (["realize", "ratio-sweep", "--w1", "{w1}", "--w2", "{w2}", "--deltas", ","],
     "--deltas needs at least one distance"),
])
def test_a_bad_flag_value_exits_2_with_its_message(argv, message, tmp_path, capsys):
    paths = _open_pair_paths(tmp_path)
    assert main([tok.format(**paths) for tok in argv]) == 2
    assert _error(capsys) == {"error": "InputError", "message": message, "exit_code": 2}


@pytest.mark.parametrize("argv", [
    ["openness", "check", "--w1", "a.json", "--w2", "b.json", "--seed", "1"],
    ["selftest", "--tol-grad", "1"],
    ["realize", "--w1", "a.json", "--w2", "b.json", "--target", "c.json",
     "--tol-grad", "1"],
    ["sym", "certify", "--w", "a.json", "--tol-residual", "1"],
    ["openness", "probe", "--w1", "a.json", "--w2", "b.json", "--tol-rank", "1"],
    # prefixes of a flag the command takes are not that flag
    ["openness", "probe", "--w1", "a.json", "--w2", "b.json", "--d", "1e-3"],
    ["sym", "certify", "--w", "a.json", "--tol", "1e-9"],
])
def test_a_flag_the_command_does_not_read_exits_2(argv, capsys):
    assert main(argv) == 2
    err = _error(capsys)
    assert err["error"] == "InputError"
    assert "unrecognized arguments" in err["message"]


@pytest.mark.parametrize("path", sorted(COMMANDS))
def test_every_command_prints_its_help(path, capsys):
    assert main([*path, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: openmap {' '.join(path)} ")


def test_top_level_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(" ".join(path) in out for path in COMMANDS)


def test_repeated_calls_build_each_parser_once(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._leaf_parser.cache_clear()
    missing = str(tmp_path / "none.json")
    for _ in range(3):
        assert main(["net", "counterexample", "--dims", "2,1,1,2", "--jobs", "1"]) == 0
        assert main(["realize", "--w1", missing, "--w2", missing,
                     "--target", missing]) == 2
    capsys.readouterr()
    assert built == ["openmap net counterexample", "openmap realize"]


def _net_files(tmp_path, entries, x=1.0):
    weights = [{"rows": 1, "cols": 1, "data": [v]} for v in entries]
    for name, obj in (("w", weights), ("x", {"rows": 1, "cols": 1, "data": [x]}),
                      ("y", {"rows": 1, "cols": 1, "data": [1.0]})):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return ["--weights", str(tmp_path / "w.json"), "--x", str(tmp_path / "x.json"),
            "--y", str(tmp_path / "y.json"), "--jobs", "1"]


@pytest.mark.parametrize("command, x", [
    pytest.param("probe", 1.0, id="probe"),
    pytest.param("classify", 1.0, id="classify"),
    # the objective and gradient are finite at x = 1e-300, but classify
    # also takes the rank of the product W2 W1 = 1e400
    pytest.param("classify", 1e-300, id="classify-product"),
])
def test_an_overflowing_objective_is_a_numerical_failure(command, x, tmp_path, capsys):
    # every input is finite, but W2 W1 = 1e400 is not
    assert main(["net", command, *_net_files(tmp_path, [1e200, 1e200], x)]) == 4
    err = _error(capsys)
    assert err["error"] == "NumericalFailure"
    assert "overflows" in err["message"]


@pytest.mark.parametrize("command", ["probe", "classify"])
def test_numpy_warnings_stay_off_stderr(command, tmp_path, capsys):
    # a RuntimeWarning would print ahead of the JSON error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["net", command, *_net_files(tmp_path, [1e200, 1e200])]) == 4
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert _error(capsys)["exit_code"] == 4


@pytest.mark.parametrize("command", ["probe", "classify"])
def test_an_empty_weight_list_is_an_input_error(command, tmp_path, capsys):
    assert main(["net", command, *_net_files(tmp_path, [])]) == 2
    assert _error(capsys)["error"] == "InputError"


def test_a_result_that_is_not_finite_is_a_numerical_failure(tmp_path, capsys):
    # the objective is finite at W2 W1 = 1, but every probe sample
    # overflows, so each radius reports an infinite least change
    argv = ["net", "probe", *_net_files(tmp_path, [1e200, 1e-200])]
    assert main(argv) == 4
    err = _error(capsys)
    assert err["error"] == "NumericalFailure"
    assert "not finite" in err["message"]


def _matrix_file(tmp_path, mat, name="data"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(matrix_to_payload(np.array(mat))))
    return str(path)


def test_gd_sweep_reads_the_sample_count_from_y(tmp_path, capsys):
    y = _matrix_file(tmp_path, [[1.0, 0.0, -1.0], [0.5, 2.0, 0.0]])
    argv = ["net", "gd-sweep", "--dims", "2,1,2", "--y", y, "--trials", "4",
            "--max-iter", "50", "--seed", "0", "--jobs", "1"]
    assert main(argv) == 0
    records = json.loads(capsys.readouterr().out)["result"]["records"]
    assert [rec["n_samples"] for rec in records] == [3] * 4


def test_an_overflowing_descent_is_a_numerical_failure(tmp_path, capsys):
    # the data is finite, but the objective overflows at the first
    # trial's start; the error names the trial and the overflow
    x = _matrix_file(tmp_path, [[1e160, -3e159]], "x")
    y = _matrix_file(tmp_path, [[1.0, 2.0]], "y")
    argv = ["net", "gd-sweep", "--dims", "1,1,1", "--x", x, "--y", y,
            "--trials", "2", "--max-iter", "50", "--jobs", "1"]
    assert main(argv) == 4
    err = _error(capsys)
    assert err["error"] == "NumericalFailure"
    assert err["message"].startswith("trial 0: the objective or its gradient overflows")


def test_gd_sweep_records_do_not_depend_on_jobs(capsys):
    results = []
    for jobs in ("1", "2"):
        argv = ["net", "gd-sweep", "--depth", "3", "--dim-cap", "3", "--trials", "20",
                "--max-iter", "300", "--seed", "4", "--jobs", jobs]
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        del result["wall_clock_seconds"]
        results.append(result)
    assert results[0] == results[1]


@pytest.mark.parametrize("trials, jobs, workers", [
    (2, 5000, None),  # one chunk of 8 trials runs in this process
    (8, 2, None),
    (9, 2, 2),
    (20, 5000, 3),
    (20, 2, 2),
])
def test_gd_sweep_starts_no_more_workers_than_chunks(monkeypatch, trials, jobs, workers):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    report = cli.gd_sweep(trials=trials, seed=0, tol=Tolerances(), depth=2, dim_cap=2,
                          jobs=jobs, max_iter=5)
    assert [rec["trial"] for rec in report.records] == list(range(trials))
    assert started == ([] if workers is None else [workers])


def test_gd_sweep_computes_one_global_value_per_trial(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return global_value(*args, **kwargs)

    monkeypatch.setattr(cli, "global_value", counted)
    monkeypatch.setattr(landscape, "global_value", counted)
    # at 10 iterations 9 of the 12 trials converge: both record paths run
    report = cli.gd_sweep(trials=12, seed=4, tol=Tolerances(), depth=2, dim_cap=3,
                          max_iter=10)
    assert sum(rec["converged"] for rec in report.records) == 9
    assert len(calls) == 12


def test_a_drift_along_the_rescaling_symmetry_stops_on_the_plateau():
    # criterion 7's seed-0 trial 176, widths (1, 1, 4): the steps drift
    # along (W_2, W_1) -> (c W_2, W_1 / c) while the gradient norm grows,
    # and only the plateau exit ends the run short of max_iter
    report = cli.gd_sweep(trials=177, seed=0, tol=Tolerances(grad_abs=1e-9), depth=2,
                          dim_cap=4, max_iter=100000)
    rec = report.records[176]
    assert rec["dims"] == [1, 1, 4]
    assert rec["exit_reason"] == "plateau"
    assert rec["iterations"] < 5000
    assert report.aggregates["exit_reasons"] == {
        "converged": 176, "max_iter": 0, "plateau": 1, "line_search": 0}


def test_a_step_that_moves_no_weight_ends_the_descent():
    # widths (3, 3, 1, 2), seed 213347265, trial 0: the accepted step
    # falls under the weights' rounding near gradient norm 2.6e-7, and
    # from then on every iteration would repeat the same state
    def sweep(max_iter):
        return cli.gd_sweep(trials=1, seed=213347265, tol=Tolerances(grad_abs=1e-7),
                            dims=(3, 3, 1, 2), max_iter=max_iter).records[0]

    rec = sweep(300)
    assert rec["exit_reason"] == "line_search"
    assert rec["iterations"] < 100
    capped = sweep(rec["iterations"])
    assert capped["exit_reason"] == "max_iter"
    for key in ("objective", "gradient_norm", "iterations", "status"):
        assert capped[key] == rec[key]


@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_gd_sweep_data_without_dims_is_an_input_error(flag, tmp_path, capsys):
    # with --dim-cap 1 every drawn width fits this 1 x 1 matrix; the
    # sweep must refuse anyway, not depend on the widths a seed draws
    path = _matrix_file(tmp_path, [[1.0]])
    argv = ["net", "gd-sweep", flag, path, "--trials", "4", "--max-iter", "50",
            "--dim-cap", "1", "--seed", "0", "--jobs", "1"]
    assert main(argv) == 2
    err = _error(capsys)
    assert err["error"] == "InputError"
    assert "--dims" in err["message"]


@pytest.mark.parametrize("flags", [
    ["--dims", "2,-1,2"],
    ["--depth", "0"],
    ["--depth", "-1"],
    ["--dim-cap", "0"],
    ["--max-iter", "-5"],
])
def test_gd_sweep_rejects_bad_flags_up_front(flags, capsys):
    argv = ["net", "gd-sweep", *flags, "--trials", "2", "--seed", "0", "--jobs", "1"]
    assert main(argv) == 2
    assert _error(capsys)["error"] == "InputError"


def _write(tmp_path, name, mat):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(matrix_to_payload(np.asarray(mat, dtype=float))))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["realize", "--w1", "{w1}", "--w2", "{w2}", "--target", "{target}"],
    ["sym", "realize", "--w", "{w1}", "--target", "{target}"],
])
def test_a_mis_shaped_target_exits_2(argv, tmp_path, capsys):
    # the products are 3x3; a 2x2 target is malformed input, not a refusal
    paths = {"w1": _write(tmp_path, "w1", np.ones((3, 1))),
             "w2": _write(tmp_path, "w2", np.ones((1, 3))),
             "target": _write(tmp_path, "target", np.eye(2))}
    assert main([tok.format(**paths) for tok in argv] + ["--jobs", "1"]) == 2
    err = _error(capsys)
    assert err["error"] == "InputError"
    assert err["exit_code"] == 2


@pytest.mark.parametrize("argv", [
    ["openness", "probe", "--w1", "{w1}", "--w2", "{w2}", "--delta", "1e-5"],
    ["net", "gd-sweep", "--dims", "2,1,2"],
    ["realize", "ratio-sweep", "--w1", "{w1}", "--w2", "{w2}", "--deltas", "1e-3"],
])
def test_a_negative_seed_exits_2(argv, tmp_path, capsys):
    paths = {"w1": _write(tmp_path, "w1", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
             "w2": _write(tmp_path, "w2", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])}
    argv = [tok.format(**paths) for tok in argv] + ["--trials", "2", "--jobs", "1"]
    assert main(argv + ["--seed", "-1"]) == 2
    assert _error(capsys) == {"error": "InputError",
                              "message": "--seed must be non-negative",
                              "exit_code": 2}


def test_a_negative_ratio_sweep_distance_exits_2(tmp_path, capsys):
    argv = ["realize", "ratio-sweep", "--w1", _write(tmp_path, "w1", np.ones((2, 1))),
            "--w2", _write(tmp_path, "w2", np.ones((1, 2))), "--deltas=-1e-3,1e-3",
            "--trials", "1", "--jobs", "1"]
    assert main(argv) == 2
    assert _error(capsys) == {"error": "InputError",
                              "message": "delta must be non-negative",
                              "exit_code": 2}


def _open_pair_paths(tmp_path):
    return {"w1": _write(tmp_path, "w1", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            "w2": _write(tmp_path, "w2", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])}


def test_a_singular_damped_system_exits_4(tmp_path, capsys):
    # at delta 1e308 the LM iterates overflow and a damped normal system
    # comes out exactly singular
    paths = _open_pair_paths(tmp_path)
    argv = ["openness", "probe", "--w1", paths["w1"], "--w2", paths["w2"],
            "--delta", "1e308", "--jobs", "1"]
    assert main(argv) == 4
    err = _error(capsys)
    assert err["error"] == "NumericalFailure"
    assert "singular" in err["message"]


def test_a_delta_whose_squared_cap_overflows_exits_4(tmp_path, capsys):
    # at delta 1e200 the LM iterates overflow as at 1e308, while twice the
    # factor-norm cap, 2e203, is finite and its square is not
    paths = _open_pair_paths(tmp_path)
    argv = ["openness", "probe", "--w1", paths["w1"], "--w2", paths["w2"],
            "--delta", "1e200", "--jobs", "1"]
    assert main(argv) == 4
    err = _error(capsys)
    assert (err["error"], err["exit_code"]) == ("NumericalFailure", 4)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-grad", "--tol-residual"])
def test_a_non_finite_tolerance_exits_2_naming_its_flag(flag, value, capsys):
    argv = ["net", "fixture", "--name", "intro", flag, value, "--jobs", "1"]
    assert main(argv) == 2
    assert _error(capsys) == {"error": "InputError",
                              "message": f"{flag} must be positive and finite, got {value}",
                              "exit_code": 2}


def test_valid_tolerance_flags_reach_the_run(tmp_path, capsys):
    tols = ["--tol-rank", "1e-12", "--tol-grad", "1e-6", "--tol-residual", "1e-9"]
    assert main(["net", "fixture", "--name", "intro", *tols, "--jobs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tolerances"] == {
        "rank_rel": 1e-12, "grad_abs": 1e-6, "residual_abs": 1e-9}
    # a scalar chain whose gradient norm, 1.4e-7, lies between the default
    # --tol-grad 1e-9 and 1e-6
    (tmp_path / "w.json").write_text(json.dumps([matrix_to_payload(np.ones((1, 1)))] * 2))
    argv = ["net", "classify", "--weights", str(tmp_path / "w.json"),
            "--x", _write(tmp_path, "x", [[1.0]]), "--y", _write(tmp_path, "y", [[1.0 + 1e-7]]),
            "--jobs", "1"]
    statuses = []
    for extra in ([], ["--tol-grad", "1e-6"]):
        assert main(argv + extra) == 0
        statuses.append(json.loads(capsys.readouterr().out)["result"]["status"])
    assert statuses[0] == "NotCritical" != statuses[1]


@pytest.mark.parametrize("argv, value", [
    (["openness", "probe", "--w1", "{w1}", "--w2", "{w2}", "--delta", "nan"], "nan"),
    (["openness", "probe", "--w1", "{w1}", "--w2", "{w2}", "--delta", "inf"], "inf"),
    (["realize", "ratio-sweep", "--w1", "{w1}", "--w2", "{w2}", "--deltas", "1e-3,nan"],
     "nan"),
    (["realize", "ratio-sweep", "--w1", "{w1}", "--w2", "{w2}", "--deltas", "inf"], "inf"),
])
def test_a_non_finite_distance_exits_2_naming_delta(argv, value, tmp_path, capsys):
    paths = _open_pair_paths(tmp_path)
    argv = [tok.format(**paths) for tok in argv] + ["--trials", "2", "--jobs", "1"]
    assert main(argv) == 2
    assert _error(capsys) == {"error": "InputError",
                              "message": f"delta must be finite, got {value}",
                              "exit_code": 2}


@pytest.mark.parametrize("shapes, message", [
    (((1, 2), (1, 1), (1, 1), (1, 1)), "weight chain dimensions do not compose"),
    (((1, 1), (2, 1), (1, 1)), "input row count does not match the first layer"),
    (((1, 1), (1, 1), (2, 1)), "target row count does not match the last layer"),
    (((1, 1), (1, 1), (1, 2)), "input and target sample counts differ"),
])
def test_a_network_whose_shapes_do_not_fit_exits_2(shapes, message, tmp_path, capsys):
    *weights, x, y = (np.ones(shape) for shape in shapes)
    (tmp_path / "w.json").write_text(json.dumps([matrix_to_payload(w) for w in weights]))
    argv = ["net", "classify", "--weights", str(tmp_path / "w.json"),
            "--x", _write(tmp_path, "x", x), "--y", _write(tmp_path, "y", y), "--jobs", "1"]
    assert main(argv) == 2
    assert _error(capsys) == {"error": "InputError", "message": message, "exit_code": 2}


def test_a_square_sigma_exits_2_naming_the_vector_forms(tmp_path, capsys):
    argv = ["sym", "solve", "--sigma", _write(tmp_path, "sigma", np.diag([1.0, 2.0])),
            "--r", _write(tmp_path, "r", np.zeros((2, 2))), "--jobs", "1"]
    assert main(argv) == 2
    err = _error(capsys)
    assert err["error"] == "InputError"
    assert "1 x n or n x 1" in err["message"]


@pytest.mark.parametrize("argv", [
    ["openness", "check", "--w1", "{w1}", "--w2", "{w2}"],
    ["openness", "probe", "--w1", "{w1}", "--w2", "{w2}", "--trials", "2"],
    ["realize", "--w1", "{w1}", "--w2", "{w2}", "--target", "{w1}"],
    ["realize", "ratio-sweep", "--w1", "{w1}", "--w2", "{w2}", "--deltas", "1e-3",
     "--trials", "2"],
])
def test_factors_whose_product_overflows_exit_4(argv, tmp_path, capsys):
    # both factors are finite, w1 @ w2 is not
    paths = {"w1": _write(tmp_path, "w1", [[1e200, 1.0], [1.0, 1.0]]),
             "w2": _write(tmp_path, "w2", [[1e200, 1.0], [0.0, 1.0]])}
    assert main([tok.format(**paths) for tok in argv] + ["--jobs", "1"]) == 4
    assert _error(capsys) == {"error": "NumericalFailure",
                              "message": "the product w1 @ w2 overflows",
                              "exit_code": 4}
