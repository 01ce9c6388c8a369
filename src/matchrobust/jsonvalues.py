"""Strict JSON numbers for input files.

``json.loads`` reads ``true`` as a bool, which Python counts as the int 1,
and ``int()``/``float()`` would quietly take ``2.5`` or ``"2"`` as a count.
Input files must write counts, ranks and vertex indices as JSON integers and
utilities and weights as JSON integers or floats. Anything else raises
TypeError, which the CLI reports as a malformed input file (exit 65).
"""

from __future__ import annotations

_INT = (int,)
_NUMBER = (int, float)


def _require(value, types, what: str):
    if type(value) not in types:  # bool is a subclass of int, not int itself
        kind = "integer" if types is _INT else "number"
        raise TypeError(f"{what} must be a JSON {kind}, got {value!r:.40}")
    return value


def json_int(value, what: str) -> int:
    return _require(value, _INT, what)


def json_number(value, what: str) -> float:
    return float(_require(value, _NUMBER, what))


def json_rows(rows, what: str, ints: bool) -> tuple[tuple, ...]:
    """A JSON matrix as a tuple of row tuples, each entry checked to be a
    JSON integer (``ints``) or a JSON number."""
    types = _INT if ints else _NUMBER
    out = tuple(tuple(row) for row in rows)
    for row in out:
        for v in row:
            if type(v) not in types:
                _require(v, types, what)
    return out
