"""Deterministic rendering of every report and table the package writes.

Reports must be byte-identical across runs with the same config and seed, so
this module pins the whole format rather than leaning on ``json.dumps``:
floats at 17 significant digits, insertion-ordered keys, a hard rejection of
non-finite numbers, and one trailing newline, in one layout indented two
spaces per level (the CLI writes its one-line error object itself). The
recursive renderer appends every piece of the text to one list and joins it
once, so no level builds and re-joins a string of its own; a container's
line breaks and indents are built from its depth where it is written.
:func:`render_fragment` renders a value ahead of time, for a report that
holds it at a known depth: ``lhv.json``'s 16-row strategy table is rendered
once per sign convention and spliced into every report, with the same bytes
as rendering it in place. The renderer refuses a fragment at any other depth.
Strings go through the standard library's ASCII string encoder, so output is
pure ASCII, with surrogate pairs outside the Basic Multilingual Plane.

:func:`render_table` renders named columns of dict rows as CSV, and
:func:`write_csv` streams large CSV files block by block. CSV and
config text share ``format_real`` but not the JSON writer's normalization:
text keeps the sign of -0.0. :func:`read_ascii` reads the text inputs (scan
CSVs, fit reports, config files), each non-ASCII byte as a lone surrogate;
one rule refuses text that is not ``isascii()``, naming the first such byte
and its line as :func:`non_ascii_byte` finds them, in the reader's own error type.

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

from .errors import PreconditionError

SCHEMA_VERSION = 3  # 3: a scan's cells read consecutive blocks of one substream
LHV_SCHEMA_VERSION = 2  # the oracle's streams, and lhv.json's bytes, are those of 2


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
    chunk raises, the file still ends after the bytes written before it.
    Each chunk goes to the file descriptor by ``os.write`` calls, repeated
    on the rest of the chunk after a short write, with no buffer between."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        size = os.fstat(fd).st_size
        written = 0
        try:
            for chunk in chunks:
                while chunk:
                    done = os.write(fd, chunk)
                    written += done
                    chunk = chunk[done:]
        finally:
            if written < size:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


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


class _Fragment:
    """JSON text rendered ahead of time, nested ``depth`` containers deep.
    Not a ``str``, so it is never written as a JSON string."""

    __slots__ = ("text", "depth")

    def __init__(self, text: str, depth: int):
        self.text = text
        self.depth = depth


def render_fragment(node, depth: int) -> _Fragment:
    """The report text of ``node`` as it is written nested ``depth``
    containers deep in a report, to be placed there in a payload that
    :func:`write_json` writes: the bytes are those of ``node`` itself."""
    out: list[str] = []
    _emit(node, depth, out)
    return _Fragment("".join(out), depth)


def _emit(node, depth: int, out: list[str]) -> None:
    # Appends the JSON text of node, nested ``depth`` containers deep, to out.
    append = out.append
    if isinstance(node, (dict, list, tuple)):
        is_dict = isinstance(node, dict)
        opening, closing = "{}" if is_dict else "[]"
        if not node:
            append(opening + closing)
            return
        inner = "\n" + "  " * (depth + 1)  # the line break and indent of each item
        separator = "," + inner
        before = opening + inner  # the text that goes before the next item
        for item in node.items() if is_dict else node:
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be strings, got {key!r}")
                before += encode_basestring_ascii(key) + ": "
            # Plain ints and finite non-zero floats, the bulk of a report,
            # are written here; every other leaf takes the branches below.
            kind = type(item)
            if kind is int:
                append(before + str(item))
            elif kind is float and item and math.isfinite(item):
                append(before + format(item, ".17g"))
            else:
                append(before)
                _emit(item, depth + 1, out)
            before = separator
        append("\n" + "  " * depth + closing)
    elif node is None:
        append("null")
    elif isinstance(node, bool):
        append("true" if node else "false")
    elif isinstance(node, int):
        append(str(node))
    elif isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"non-finite value {node!r} cannot be serialized")
        append(format_real(node if node else 0.0))  # normalize -0.0
    elif isinstance(node, str):
        append(encode_basestring_ascii(node))
    elif type(node) is _Fragment:
        if node.depth != depth:
            raise ValueError(
                f"a fragment rendered at depth {node.depth} cannot go at depth {depth}"
            )
        append(node.text)
    else:
        # numpy scalars and anything else with an exact float/int view
        item = getattr(node, "item", None)
        if item is None:
            raise TypeError(f"cannot serialize {type(node).__name__} in a report")
        _emit(item(), depth, out)


def render_json(payload) -> str:
    out: list[str] = []
    _emit(payload, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, payload) -> None:
    write_ascii(path, render_json(payload))


def as_path(path) -> Path:
    """``path`` as a ``Path``; a ``str`` or an ``os.PathLike`` is a path,
    anything else is a ``PreconditionError`` naming its type."""
    if not isinstance(path, (str, os.PathLike)):
        raise PreconditionError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    return Path(path)


def read_ascii(path) -> str:
    """The text of a file read as ASCII, with line endings translated as
    ``Path.read_text`` translates them. ``path`` is read through
    :func:`as_path`. Each non-ASCII byte becomes one lone surrogate
    (``surrogateescape``), which :func:`non_ascii_byte` locates."""
    text = as_path(path).read_bytes().decode("ascii", "surrogateescape")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def non_ascii_byte(text: str) -> tuple[int, str]:
    """The line of the first non-ASCII byte of :func:`read_ascii`'s text,
    counted as ``str.splitlines`` counts lines, and a description of it."""
    start = next(index for index, char in enumerate(text) if char > "\x7f")
    line = len((text[:start] + "x").splitlines())
    return line, f"non-ASCII byte 0x{ord(text[start]) - 0xDC00:02x}"


def read_input(path, what: str, error: type[Exception]) -> str:
    """:func:`read_ascii` of ``path``; a file that cannot be read or holds a
    non-ASCII byte is an ``error`` naming ``what`` and the path."""
    try:
        text = read_ascii(path)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    if not text.isascii():
        line, byte = non_ascii_byte(text)
        raise error(f"{what} {path}: line {line}: {byte}")
    return text


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
