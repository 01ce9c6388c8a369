"""Strict JSON numbers and arrays for input files.

``json.loads`` reads ``true`` as a bool, which Python counts as the int 1,
and ``int()``/``float()`` would quietly take ``2.5`` or ``"2"`` as a count.
It also reads the non-standard tokens ``Infinity``, ``-Infinity`` and
``NaN``, and an overflowing literal such as ``1e400``, as non-finite floats.
Input files must write counts, ranks and vertex indices as JSON integers and
utilities and weights as finite JSON integers or floats, every list (of
rows, edges, placement vertices or entries, and each row and edge) as a
JSON array and every side or entry as a JSON object: a JSON object would
iterate as its keys, and a string as its characters. A value of the wrong
type raises TypeError, and a non-finite one or a missing field ValueError;
the CLI reports any of them as a malformed input file (exit 65).
"""

from __future__ import annotations

import math

_INT = (int,)
_NUMBER = (int, float)
_INF = math.inf


def _require(value, types, what: str):
    if type(value) not in types:  # bool is a subclass of int, not int itself
        kind = "integer" if types is _INT else "number"
        raise TypeError(f"{what} must be a JSON {kind}, got {value!r:.40}")
    if type(value) is float and not -_INF < value < _INF:
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def json_field(data: dict, key: str):
    """``data[key]``; a missing key raises ValueError naming the field."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None


def json_int(value, what: str) -> int:
    return _require(value, _INT, what)


def json_number(value, what: str) -> float:
    return float(_require(value, _NUMBER, what))


def json_array(value, what: str, length: int | None = None) -> list:
    """``value`` if it is a JSON array, of ``length`` elements when given;
    anything else raises TypeError."""
    if type(value) is not list or length not in (None, len(value)):
        kind = "a JSON array" if length is None else f"a JSON array of {length} elements"
        raise TypeError(f"{what} must be {kind}, got {value!r:.40}")
    return value


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object; anything else raises TypeError."""
    if type(value) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {value!r:.40}")
    return value


def json_rows(rows, what: str, ints: bool) -> tuple[tuple, ...]:
    """A JSON matrix, an array of row arrays, as a tuple of row tuples, each
    entry checked to be a JSON integer (``ints``) or a finite JSON number."""
    types = _INT if ints else _NUMBER
    floats = not ints  # an integer is always finite
    row_what = f"{what} row"
    out = tuple(tuple(json_array(row, row_what)) for row in json_array(rows, f"{what} rows"))
    for row in out:
        for v in row:
            if type(v) not in types or (floats and not -_INF < v < _INF):
                _require(v, types, what)
    return out
