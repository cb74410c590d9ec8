"""The CLI's command table, parser reuse and error contract."""

import argparse
import json

import pytest

from openmap import cli
from openmap.cli import COMMANDS, main


def _error(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    return json.loads(err)


@pytest.mark.parametrize("argv", [
    ["net", "classify"],  # required flags missing
    ["openness", "probe", "--w1", "a.json", "--w2", "b.json", "--delta", "abc"],
    ["sym", "certify", "--w", "a.json", "--format", "xml"],
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
