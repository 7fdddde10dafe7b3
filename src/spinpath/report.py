"""Deterministic rendering of every report and table the package writes.

Reports must be byte-identical across runs with the same config and seed, so
this module pins the whole format rather than leaning on ``json.dumps``:
floats at 17 significant digits, insertion-ordered keys, a hard rejection of
non-finite numbers, and one trailing newline. One recursive renderer writes
both the two-space-indented report layout and the one-line CLI error object.
Strings go through the standard library's ASCII string encoder, so output is
pure ASCII, with surrogate pairs outside the Basic Multilingual Plane.

:func:`render_table` renders named columns of dict rows as CSV, and
:func:`write_csv` streams large CSV files block by block. CSV and
config text share ``format_real`` but not the JSON writer's normalization:
text keeps the sign of -0.0. :func:`read_ascii` reads the text inputs (scan
CSVs, fit reports, config files), and :func:`non_ascii_byte` names the line
of a byte that is not ASCII.

Every artifact (JSON reports, CSV files, config files) goes to disk through
one binary writer, so each is ASCII bytes with ``\\n`` line endings on every
platform. The writer overwrites an existing file in place and cuts it only
when it was longer than the new bytes; it never opens with ``O_TRUNC``.
ext4 (with its default ``auto_da_alloc``) starts a data flush when a file
that was truncated to size 0 is closed, which costs more than writing a
small report into the same file.
"""

from __future__ import annotations

import hashlib
import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
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


def format_counts(counts) -> list[str]:
    """:func:`format_count` of every value of a 1-d count array; an integer
    array's values go straight through ``str``."""
    values = counts.tolist()
    return list(map(str if counts.dtype.kind in "iu" else format_count, values))


# No O_TRUNC (see the module docstring); O_BINARY exists only on Windows.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_chunks(path, chunks) -> None:
    """Write byte chunks to ``path``: a new file is created with mode 0o666
    less the umask, as ``open`` creates it; an existing one is overwritten
    from its start and cut to the bytes written only if it was longer. If a
    chunk raises, the file still ends after the bytes written before it."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    with os.fdopen(fd, "wb") as out:
        size = os.fstat(fd).st_size
        try:
            for chunk in chunks:
                out.write(chunk)
        finally:
            if out.tell() < size:
                out.truncate()


def write_ascii(path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII bytes, newlines untranslated."""
    _write_chunks(path, (text.encode("ascii"),))


def write_csv(path, header: str, blocks) -> None:
    """Write CSV text as ASCII bytes: the header line, then the rows of each
    block, every line ending in ``\\n``. A block holds at least one row and
    is a tuple of columns of ready-made fields, ``itertools.repeat`` for a
    constant one. Blocks are rendered, encoded and written one at a time, so
    only one block's text is held at once."""
    rows = (("\n".join(map(",".join, zip(*columns))) + "\n").encode("ascii") for columns in blocks)
    _write_chunks(path, chain((f"{header}\n".encode("ascii"),), rows))


def render_table(columns, rows) -> str:
    """CSV text of the named columns of dict rows: floats as
    :func:`format_real`, everything else as ``str``. A row without one of
    the columns raises ``KeyError``."""
    lines = [",".join(columns)]
    lines.extend(",".join([_table_field(row[column]) for column in columns]) for row in rows)
    return "\n".join(lines) + "\n"


def _table_field(value) -> str:
    return format_real(value) if isinstance(value, float) else str(value)


def _render(node, indent: str | None, depth: int) -> str:
    if isinstance(node, (dict, list, tuple)):
        is_dict = isinstance(node, dict)
        opening, closing = "{}" if is_dict else "[]"
        if not node:
            return opening + closing
        inner = "" if indent is None else "\n" + indent * (depth + 1)
        outer = "" if indent is None else "\n" + indent * depth
        fields = []
        for item in node.items() if is_dict else node:
            prefix = ""
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be strings, got {key!r}")
                prefix = encode_basestring_ascii(key) + ": "
            # Plain ints and finite non-zero floats, the bulk of a report,
            # are written here; every other leaf takes the branches below.
            kind = type(item)
            if kind is int:
                fields.append(prefix + str(item))
            elif kind is float and item and math.isfinite(item):
                fields.append(prefix + format(item, ".17g"))
            else:
                fields.append(prefix + _render(item, indent, depth + 1))
        return opening + inner + ("," + (inner or " ")).join(fields) + outer + closing
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return str(node)
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"non-finite value {node!r} cannot be serialized")
        return format_real(node if node else 0.0)  # normalize -0.0
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    # numpy scalars and anything else with an exact float/int view
    item = getattr(node, "item", None)
    if item is None:
        raise TypeError(f"cannot serialize {type(node).__name__} in a report")
    return _render(item(), indent, depth)


def render_json(payload, *, compact: bool = False) -> str:
    return _render(payload, None if compact else "  ", 0) + "\n"


def write_json(path, payload) -> None:
    write_ascii(path, render_json(payload))


def read_ascii(path) -> str:
    """The text of an ASCII file, with line endings translated as
    ``Path.read_text`` translates them. A non-ASCII byte raises
    ``UnicodeDecodeError`` over the whole file's bytes, which
    :func:`non_ascii_byte` locates."""
    text = Path(path).read_bytes().decode("ascii")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def non_ascii_byte(exc: UnicodeDecodeError) -> tuple[int, str]:
    """The line of the byte :func:`read_ascii` failed on, counted as
    ``str.splitlines`` counts lines, and a description of that byte."""
    line = len((exc.object[: exc.start].decode("ascii") + "x").splitlines())
    return line, f"non-ASCII byte 0x{exc.object[exc.start]:02x}"


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
