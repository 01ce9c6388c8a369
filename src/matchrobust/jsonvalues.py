"""Strict JSON numbers and arrays for input files.

``json.loads`` reads ``true`` as a bool, which Python counts as the int 1,
and ``int()``/``float()`` would quietly take ``2.5`` or ``"2"`` as a count.
It also reads the non-standard tokens ``Infinity``, ``-Infinity`` and
``NaN``, and an overflowing literal such as ``1e400``, as non-finite floats.
Input files must write counts, ranks and vertex indices as JSON integers and
utilities and weights as finite JSON integers or floats, and lists of
edges, placement vertices or entries as JSON arrays. A value of the
wrong type raises TypeError and a non-finite one ValueError; the CLI reports
either as a malformed input file (exit 65).
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


def json_int(value, what: str) -> int:
    return _require(value, _INT, what)


def json_number(value, what: str) -> float:
    return float(_require(value, _NUMBER, what))


def json_array(value, what: str) -> list:
    """``value`` if it is a JSON array; a JSON object would iterate as its
    keys, so anything else raises TypeError."""
    if type(value) is not list:
        raise TypeError(f"{what} must be a JSON array, got {value!r:.40}")
    return value


def json_rows(rows, what: str, ints: bool) -> tuple[tuple, ...]:
    """A JSON matrix as a tuple of row tuples, each entry checked to be a
    JSON integer (``ints``) or a finite JSON number."""
    types = _INT if ints else _NUMBER
    floats = not ints  # an integer is always finite
    out = tuple(tuple(row) for row in rows)
    for row in out:
        for v in row:
            if type(v) not in types or (floats and not -_INF < v < _INF):
                _require(v, types, what)
    return out
