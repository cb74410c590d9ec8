import json

import numpy as np
import pytest

from openmap.cli import main
from openmap.errors import InputError
from openmap.matrixio import (
    dump_json,
    matrices_from_payload,
    matrix_from_payload,
    matrix_to_payload,
    to_jsonable,
)


def test_round_trip_exact_doubles():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 4))
    m[0, 0] = 0.1
    m[0, 1] = -0.0
    payload = json.loads(json.dumps(matrix_to_payload(m)))
    back = matrix_from_payload(payload)
    assert back.shape == m.shape
    # bit-exact round trip, including signed zero
    assert all(
        np.float64(a).tobytes() == np.float64(b).tobytes()
        for a, b in zip(m.ravel(), back.ravel())
    )


def test_payload_schema():
    p = matrix_to_payload(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert p == {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}


def test_rejects_nan():
    with pytest.raises(InputError):
        matrix_to_payload(np.array([[np.inf]]))


def test_rejects_bad_length():
    with pytest.raises(InputError):
        matrix_from_payload({"rows": 2, "cols": 2, "data": [1.0]})


@pytest.mark.parametrize(
    "data",
    [
        ["a", "b"],  # non-numeric entries
        5,  # not a list
        [[1.0], [2.0]],  # nested lists, even with the right element count
        [True, False],  # JSON booleans are not numbers
        [1.0, 10**400],  # beyond the double range
    ],
)
def test_rejects_data_that_is_not_a_flat_list_of_numbers(data):
    with pytest.raises(InputError):
        matrix_from_payload({"rows": 1, "cols": 2, "data": data})


@pytest.mark.parametrize(
    "rows, cols",
    [
        (2.7, True),  # would load as 2x1 under int() coercion
        ("2", 1),  # strings are not integers
        (2.0, 1),  # nor are integral floats
        (2, None),
    ],
)
def test_rejects_rows_and_cols_that_are_not_json_integers(rows, cols):
    with pytest.raises(InputError):
        matrix_from_payload({"rows": rows, "cols": cols, "data": [1.0, 2.0]})


def test_cli_exits_2_on_a_malformed_matrix_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1, "cols": 2, "data": ["a", "b"]}')
    good = tmp_path / "good.json"
    good.write_text('{"rows": 2, "cols": 1, "data": [1.0, 2.0]}')
    code = main(["openness", "check", "--w1", str(good), "--w2", str(bad)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


def test_rejects_nonpositive_dims():
    with pytest.raises(InputError):
        matrix_from_payload({"rows": 0, "cols": 2, "data": []})


def test_matrix_list_round_trip():
    mats = [np.eye(2), np.zeros((1, 3))]
    back = matrices_from_payload(to_jsonable(mats))
    assert all(np.array_equal(a, b) for a, b in zip(mats, back))


def test_dump_json_refuses_inf():
    with pytest.raises(ValueError):
        dump_json({"x": float("inf")})


def test_to_jsonable_keeps_booleans_boolean():
    out = to_jsonable({"a": True, "b": np.bool_(False), "c": 1, "d": np.int64(2)})
    assert json.dumps(out) == '{"a": true, "b": false, "c": 1, "d": 2}'


def test_payload_data_equals_the_per_entry_floats_bit_for_bit():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 5)) * 10.0 ** rng.integers(-300, 300, size=(4, 5))
    m[0, :4] = [-0.0, 5e-324, -2.2e-308, np.finfo(float).max]
    data = matrix_to_payload(m)["data"]
    want = [float(x) for x in m.ravel()]
    assert all(type(x) is float for x in data)
    assert np.array(data).tobytes() == np.array(want).tobytes()


def test_dump_json_writes_one_compact_line():
    report = to_jsonable({"open": np.bool_(True), "w": np.eye(2), "n": np.int64(3),
                          "x": np.float32(0.5), "records": [{"ok": False}]})
    text = dump_json(report)
    assert "\n" not in text
    assert json.loads(text) == {"open": True, "w": {"rows": 2, "cols": 2,
                                                    "data": [1.0, 0.0, 0.0, 1.0]},
                                "n": 3, "x": 0.5, "records": [{"ok": False}]}
    assert '"open": true' in text


def test_dump_json_refuses_nan():
    with pytest.raises(ValueError):
        dump_json(to_jsonable({"x": np.float64("nan")}))


def test_cli_reports_and_errors_are_one_line(tmp_path, capsys):
    eye = tmp_path / "eye.json"
    eye.write_text(json.dumps(matrix_to_payload(np.eye(2))))
    assert main(["openness", "check", "--w1", str(eye), "--w2", str(eye)]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and out.endswith("\n") and not err
    assert main(["net", "fixture", "--name", "no-such-fixture"]) == 2
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and not out
    assert json.loads(err)["error"] == "InputError"
