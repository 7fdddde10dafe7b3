"""Deterministic JSON writer."""

import json
import math
import os
import stat
import tempfile
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpath.report import (
    _write_chunks,
    format_count,
    format_counts,
    format_real,
    non_ascii_byte,
    read_ascii,
    render_fragment,
    render_json,
    render_table,
    sha256_of_text,
    write_csv,
    write_json,
)


def test_render_is_deterministic():
    payload = {"b": 1, "a": [1.5, {"x": True}], "c": None}
    assert render_json(payload) == render_json(payload)


def test_exact_layout():
    payload = {"name": "scan", "values": [1, 2.5], "flag": False, "nothing": None}
    want = (
        '{\n'
        '  "name": "scan",\n'
        '  "values": [\n'
        '    1,\n'
        '    2.5\n'
        '  ],\n'
        '  "flag": false,\n'
        '  "nothing": null\n'
        '}\n'
    )
    assert render_json(payload) == want


def test_insertion_order_is_preserved():
    assert render_json({"z": 1, "a": 2}).index('"z"') < render_json({"z": 1, "a": 2}).index('"a"')


def test_floats_use_17_significant_digits():
    assert '"x": 0.10000000000000001\n' in render_json({"x": 0.1})
    assert '"x": 0.5\n' in render_json({"x": 0.5})
    text = render_json({"s": 2.051})
    assert "2.0510000000000002" in text


def test_negative_zero_is_normalized():
    assert render_json({"x": -0.0}) == render_json({"x": 0.0})
    # only in JSON: text artifacts (scan CSVs, config text) keep the sign
    assert format_real(-0.0) == "-0"


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            render_json({"x": bad})


def test_string_escapes():
    out = render_json({"s": 'quote " backslash \\ newline \n tab \t'})
    assert '\\"' in out and "\\\\" in out and "\\n" in out and "\\t" in out
    out = render_json({"s": "café −"})
    assert "\\u00e9" in out
    assert "\\u2212" in out
    out.encode("ascii")  # must never need more than ascii
    # outside the BMP: a surrogate pair that decodes to the same text
    out = render_json({"s": "a\U0001F600b"})
    assert '"a\\ud83d\\ude00b"' in out
    assert json.loads(out) == {"s": "a\U0001F600b"}
    out = render_json({"s": "\b\f"})
    assert '"\\b\\f"' in out
    assert json.loads(out) == {"s": "\b\f"}
    out = render_json({"s": "\x7f"})
    assert '"\\u007f"' in out
    assert json.loads(out) == {"s": "\x7f"}


def test_empty_containers():
    assert render_json({}) == "{}\n"
    assert render_json([]) == "[]\n"
    assert render_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'


def test_numpy_scalars_serialize():
    out = render_json({"a": np.float64(0.25), "b": np.int64(7), "c": np.bool_(True)})
    assert '"a": 0.25' in out
    assert '"b": 7' in out
    assert '"c": true' in out


def test_bad_payloads_rejected():
    with pytest.raises(TypeError):
        render_json({1: "numeric key"})
    with pytest.raises(TypeError):
        render_json({"f": object()})


def _reference_render(node, indent, depth):
    """The recursive renderer that built and joined a string per container:
    the reference the one-buffer renderer must match byte for byte."""
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
            kind = type(item)
            if kind is int:
                fields.append(prefix + str(item))
            elif kind is float and item and math.isfinite(item):
                fields.append(prefix + format(item, ".17g"))
            else:
                fields.append(prefix + _reference_render(item, indent, depth + 1))
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
        return format_real(node if node else 0.0)
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    item = getattr(node, "item", None)
    if item is None:
        raise TypeError(f"cannot serialize {type(node).__name__} in a report")
    return _reference_render(item(), indent, depth)


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.inf, -math.nan])
    | st.text(max_size=4)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.booleans().map(np.bool_)
)
_KEYS = st.text(max_size=4) | st.integers(0, 3)
_PAYLOADS = st.recursive(
    _LEAVES | st.sampled_from([{}, [], (), object()]),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
    ),
    max_leaves=24,
)


def _outcome(render, *args, **kwargs):
    try:
        return render(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(payload=_PAYLOADS)
def test_one_buffer_renderer_equals_the_recursive_reference(payload):
    want = _outcome(_reference_render, payload, "  ", 0)
    if isinstance(want, str):
        want += "\n"
    assert _outcome(render_json, payload) == want


def test_render_table():
    rows = [
        {"x": -0.0, "n": 3, "name": "a", "unused": None},
        {"x": 0.1, "n": -2, "name": "b c", "unused": None},
    ]
    assert render_table(("name", "x", "n"), rows) == "name,x,n\na,-0,3\nb c,0.10000000000000001,-2\n"
    with pytest.raises(KeyError):
        render_table(("x", "missing"), rows)


def test_write_csv_renders_blocks_of_columns(tmp_path):
    path = tmp_path / "t.csv"
    blocks = [(["a", "b"], repeat("7"), format_counts(np.array([3, 12]))), (["c"], ["8"], ["-0"])]
    write_csv(path, "x,y,z", blocks)
    assert path.read_bytes() == b"x,y,z\na,7,3\nb,7,12\nc,8,-0\n"


def test_format_counts_matches_format_count():
    ints = np.array([0, 7, 2**53 + 1], dtype=np.int64)
    floats = np.array([0.0, -0.0, 2.5, 1e20, 12.0, 0.1])
    for counts in (ints, floats):
        assert format_counts(counts) == [format_count(value) for value in counts.tolist()]
    expected = ["0", "0", "2.5", "100000000000000000000", "12", "0.10000000000000001"]
    assert format_counts(floats) == expected


def test_write_json(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"x": 1.0})
    text = path.read_text(encoding="ascii")
    assert text.endswith("}\n")
    assert not text.endswith("\n\n")


CHUNKS = (b"line one\n", b"", b"two,2\n", b"3\n")
CONTENT = b"".join(CHUNKS)


@pytest.mark.parametrize(
    "before",
    [None, b"", b"\xff" * (len(CONTENT) + 4096), b"old\n"],
    ids=["no-file", "empty", "longer", "shorter"],
)
def test_writer_leaves_exactly_the_new_bytes(tmp_path, before):
    path = tmp_path / "artifact"
    if before is not None:
        path.write_bytes(before)
        inode = path.stat().st_ino
    _write_chunks(path, iter(CHUNKS))
    assert path.read_bytes() == CONTENT
    if before is not None:
        assert path.stat().st_ino == inode  # overwritten in place, not replaced


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_writer_creates_files_with_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "by_open", "w"):
            pass
        _write_chunks(tmp_path / "by_writer", [b"x\n"])
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "by_writer").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "by_open").stat().st_mode)
    if os.name == "posix":
        assert mode == 0o666 & ~umask


def test_writer_cuts_an_older_tail_when_a_chunk_fails(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"\xff" * 100)

    def chunks():
        yield b"head\n"
        raise UnicodeEncodeError("ascii", "\xe9", 0, 1, "not ASCII")

    with pytest.raises(UnicodeEncodeError):
        _write_chunks(path, chunks())
    assert path.read_bytes() == b"head\n"


@pytest.mark.parametrize(
    "before",
    [None, b"\xff" * (len(CONTENT) + 4096), b"old\n"],
    ids=["no-file", "longer", "shorter"],
)
def test_writer_finishes_every_chunk_after_short_writes(tmp_path, monkeypatch, before):
    # os.write may write fewer bytes than it is given; the writer writes the
    # rest of the chunk with further calls.
    path = tmp_path / "artifact"
    if before is not None:
        path.write_bytes(before)
    real_write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(real_write(fd, bytes(data[:7])))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    chunks = (*CHUNKS, b"x" * 100 + b"\n")
    _write_chunks(path, iter(chunks))
    assert path.read_bytes() == b"".join(chunks)
    assert max(sizes) == 7 and sum(sizes) == len(b"".join(chunks))


def test_sha256_helper():
    assert (
        sha256_of_text("abc")
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


_ASCII_TEXT = st.lists(
    st.sampled_from(["a", "0", ",", " ", "\n", "\r", "\r\n", "\x0b", "\x1c"])
).map("".join)


@given(_ASCII_TEXT, _ASCII_TEXT, st.integers(0x80, 0xFF), st.binary(max_size=3))
def test_read_ascii_reads_like_read_text_and_names_the_bad_line(head, tail, byte, rest):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes((head + tail).encode("ascii"))
        assert read_ascii(path) == path.read_text(encoding="ascii")
        path.write_bytes(head.encode("ascii") + bytes([byte]) + tail.encode("ascii") + rest)
        text = read_ascii(path)
    # the line holding the bad byte, as splitlines counts the lines of a file
    # whose bad bytes are escaped to lone surrogates
    bad = chr(0xDC00 + byte)
    lines = (head + bad + tail).splitlines()
    line = next(number for number, text in enumerate(lines, start=1) if bad in text)
    assert non_ascii_byte(text) == (line, f"non-ASCII byte 0x{byte:02x}")


FRAGMENT_VALUES = [
    [{"index": 0, "outcomes": [1, -1], "s": 2.0}, {"index": 1, "outcomes": [], "s": -0.0}],
    {"a": {"b": [0.1, None, True]}, "c": "text"},
    [],
    2.5,
]


@pytest.mark.parametrize("value", FRAGMENT_VALUES, ids=repr)
def test_a_fragment_renders_as_its_value_at_its_depth(tmp_path, value):
    assert not isinstance(render_fragment(value, 0), str)
    assert render_json(render_fragment(value, 0)) == render_json(value)
    payload = {"before": 1, "value": value, "after": [value]}
    spliced = {"before": 1, "value": render_fragment(value, 1), "after": [render_fragment(value, 2)]}
    assert render_json(spliced) == render_json(payload)
    write_json(tmp_path / "r.json", spliced)
    assert (tmp_path / "r.json").read_text() == render_json(payload)


@pytest.mark.parametrize("depth", [0, 2, 3])
def test_a_fragment_at_another_depth_is_refused(depth):
    with pytest.raises(ValueError, match=f"rendered at depth {depth} cannot go at depth 1"):
        render_json({"value": render_fragment(FRAGMENT_VALUES[0], depth)})
