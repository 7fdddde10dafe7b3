"""Deterministic rendering of every report and table the package writes.

Reports must be byte-identical across runs with the same config and seed, so
this module pins the whole format rather than leaning on ``json.dumps``:
floats at 17 significant digits, insertion-ordered keys, a hard rejection of
non-finite numbers, and one trailing newline. One recursive emitter writes
both the two-space-indented report layout and the one-line CLI error object.
Strings go through the standard library's ASCII string encoder, so output is
pure ASCII, with surrogate pairs outside the Basic Multilingual Plane.

:func:`render_table` renders named columns of dict rows as CSV. CSV and
config text share ``format_real`` but not the JSON writer's normalization:
text keeps the sign of -0.0.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SCHEMA_VERSION = 1


def format_real(value: float) -> str:
    """A float at 17 significant digits, which round-trips exactly."""
    return format(float(value), ".17g")


def format_count(value: float) -> str:
    """A count: integer-valued counts as integers, real-valued rates (from
    noiseless scans) as :func:`format_real`."""
    if float(value).is_integer():
        return str(int(value))
    return format_real(value)


def render_csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of ready-made
    fields, with a trailing newline."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def render_table(columns, rows) -> str:
    """CSV text of the named columns of dict rows: floats as
    :func:`format_real`, everything else as ``str``. A row without one of
    the columns raises ``KeyError``."""
    return render_csv(
        ",".join(columns), ([_table_field(row[column]) for column in columns] for row in rows)
    )


def _table_field(value) -> str:
    return format_real(value) if isinstance(value, float) else str(value)


def _emit(node, indent: str | None, depth: int, pieces: list) -> None:
    if node is None:
        pieces.append("null")
    elif isinstance(node, bool):
        pieces.append("true" if node else "false")
    elif isinstance(node, int):
        pieces.append(str(node))
    elif isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"non-finite value {node!r} cannot be serialized")
        pieces.append(format_real(node if node else 0.0))  # normalize -0.0
    elif isinstance(node, str):
        pieces.append(json.dumps(node))
    elif isinstance(node, (dict, list, tuple)):
        is_dict = isinstance(node, dict)
        opening, closing = "{}" if is_dict else "[]"
        if not node:
            pieces.append(opening + closing)
            return
        inner = "" if indent is None else "\n" + indent * (depth + 1)
        outer = "" if indent is None else "\n" + indent * depth
        pieces.append(opening + inner)
        for i, item in enumerate(node.items() if is_dict else node):
            if i:
                pieces.append("," + (inner or " "))
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be strings, got {key!r}")
                pieces.append(json.dumps(key) + ": ")
            _emit(item, indent, depth + 1, pieces)
        pieces.append(outer + closing)
    else:
        # numpy scalars and anything else with an exact float/int view
        item = getattr(node, "item", None)
        if item is None:
            raise TypeError(f"cannot serialize {type(node).__name__} in a report")
        _emit(item(), indent, depth, pieces)


def render_json(payload, *, compact: bool = False) -> str:
    pieces: list = []
    _emit(payload, None if compact else "  ", 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_json(path, payload) -> None:
    Path(path).write_text(render_json(payload), encoding="ascii")


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
