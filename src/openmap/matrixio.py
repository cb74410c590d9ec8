"""Dense-matrix JSON interchange.

Every matrix crossing a process boundary uses the same payload::

    {"rows": m, "cols": n, "data": [row-major reals]}

``json`` emits shortest-representation decimals, so IEEE-754 doubles
round-trip bit-exactly.  NaN/Inf are rejected on both directions,
``rows`` and ``cols`` must be positive JSON integers, and ``data`` a flat
list of numbers.

Reports reach the wire through ``to_jsonable`` alone: a dataclass
instance becomes ``{field.name: value}`` in field order, so a field's
name is its wire name; arrays become matrix payloads; Python and numpy
booleans become JSON ``true``/``false``, never ``1``/``0``.

``dump_json`` writes one compact line with no indentation or newline,
so ``json`` runs its C encoder.  Every report on stdout, every error
object on stderr and the ``selftest --out`` file use this layout; a
parser reads the same keys and values as from an indented one.
"""

import dataclasses
import json

import numpy as np

from .errors import InputError


def as_matrix(obj, name="matrix"):
    """Coerce to a finite 2-D float array, copying only when needed.

    The package's one input check.  It runs where a matrix enters: in the
    loaders here, in the entry types (``FactorPair``, ``NetworkPoint``),
    and in the public functions of ``openness``, ``realization``,
    ``symmetric`` and ``landscape``; ``numcore`` checks nothing again."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name}: expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: non-finite entries are not admitted")
    return arr


def matrix_to_payload(arr):
    arr = as_matrix(arr)
    m, n = arr.shape
    return {"rows": int(m), "cols": int(n), "data": arr.ravel().tolist()}


def matrix_from_payload(obj, name="matrix"):
    if not isinstance(obj, dict):
        raise InputError(f"{name}: expected an object with rows/cols/data")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise InputError(f"{name}: malformed matrix payload: {exc}") from exc
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in (rows, cols)):
        raise InputError(f"{name}: rows and cols must be JSON integers")
    if rows <= 0 or cols <= 0:
        raise InputError(f"{name}: rows and cols must be positive")
    if not isinstance(data, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in data
    ):
        raise InputError(f"{name}: data must be a flat list of numbers")
    if len(data) != rows * cols:
        raise InputError(
            f"{name}: data length {len(data)} != rows*cols = {rows * cols}"
        )
    try:
        arr = np.array(data, dtype=float).reshape(rows, cols)
    except OverflowError as exc:
        raise InputError(f"{name}: entry out of floating-point range") from exc
    return as_matrix(arr, name=name)


def matrices_from_payload(obj, name="matrices"):
    if not isinstance(obj, list):
        raise InputError(f"{name}: expected a JSON array of matrix objects")
    return [matrix_from_payload(o, name=f"{name}[{i}]") for i, o in enumerate(obj)]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc


def load_matrix(path):
    return matrix_from_payload(_read_json(path), name=str(path))


def load_matrices(path):
    return matrices_from_payload(_read_json(path), name=str(path))


def dump_json(obj):
    """Serialize a report object as one compact line; refuses NaN/Inf
    rather than emitting non-standard JSON."""
    return json.dumps(obj, allow_nan=False)


def to_jsonable(value):
    """Recursively convert a report into plain JSON types: arrays become
    matrix payloads, dataclass instances dicts of their fields."""
    # exact builtin scalars, the common case, are already JSON values
    if value is None or type(value) in (float, int, str, bool):
        return value
    if isinstance(value, np.ndarray):
        return matrix_to_payload(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value
