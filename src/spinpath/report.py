"""Deterministic JSON serialization for run reports.

The stock ``json`` module reproduces floats via ``repr``, which is already
shortest-round-trip, but it makes no promise about NaN handling or key order
across inputs, and reports here must be byte-identical across runs with the
same config and seed. This writer pins the whole format: floats at 17
significant digits, insertion-ordered keys (reports are built in a fixed
order), ASCII output, two-space indent, one trailing newline, and a hard
rejection of non-finite numbers, which have no place in a report.

The CSV and config text share the float rendering, ``format_real``, but not
the JSON writer's normalization: text keeps the sign of -0.0.
"""

from __future__ import annotations

import hashlib
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


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot be serialized")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format_real(value)


def _escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20 or ord(ch) > 0x7E:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _emit(node, indent: int, pieces: list) -> None:
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if node is None:
        pieces.append("null")
    elif isinstance(node, bool):
        pieces.append("true" if node else "false")
    elif isinstance(node, int):
        pieces.append(str(node))
    elif isinstance(node, float):
        pieces.append(_format_float(node))
    elif isinstance(node, str):
        pieces.append(_escape(node))
    elif isinstance(node, dict):
        if not node:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(node.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            pieces.append(child_pad)
            pieces.append(_escape(key))
            pieces.append(": ")
            _emit(value, indent + 1, pieces)
            pieces.append(",\n" if i < len(node) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(node, (list, tuple)):
        items = list(node)
        if not items:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(items):
            pieces.append(child_pad)
            _emit(value, indent + 1, pieces)
            pieces.append(",\n" if i < len(items) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        # numpy scalars and anything else with an exact float/int view
        item = getattr(node, "item", None)
        if item is not None:
            _emit(item(), indent, pieces)
        else:
            raise TypeError(f"cannot serialize {type(node).__name__} in a report")


def _emit_compact(node, pieces: list) -> None:
    if node is None or isinstance(node, (bool, int, float, str)):
        _emit(node, 0, pieces)
    elif isinstance(node, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                pieces.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            pieces.append(_escape(key))
            pieces.append(": ")
            _emit_compact(value, pieces)
        pieces.append("}")
    elif isinstance(node, (list, tuple)):
        pieces.append("[")
        for i, value in enumerate(node):
            if i:
                pieces.append(", ")
            _emit_compact(value, pieces)
        pieces.append("]")
    else:
        _emit(node, 0, pieces)


def render_json(payload, *, compact: bool = False) -> str:
    pieces: list = []
    if compact:
        _emit_compact(payload, pieces)
    else:
        _emit(payload, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_json(path, payload) -> None:
    Path(path).write_text(render_json(payload), encoding="ascii")


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
