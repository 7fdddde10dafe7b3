"""Deterministic JSON writer."""

import json
import math

import numpy as np
import pytest

from spinpath.report import format_real, render_json, render_table, sha256_of_text, write_json


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


def test_compact_mode_is_one_line():
    payload = {"error": {"type": "ConfigError", "message": "line 2: bad"}}
    out = render_json(payload, compact=True)
    assert out == '{"error": {"type": "ConfigError", "message": "line 2: bad"}}\n'
    assert out.count("\n") == 1


def test_render_table():
    rows = [
        {"x": -0.0, "n": 3, "name": "a", "unused": None},
        {"x": 0.1, "n": -2, "name": "b c", "unused": None},
    ]
    assert render_table(("name", "x", "n"), rows) == "name,x,n\na,-0,3\nb c,0.10000000000000001,-2\n"
    with pytest.raises(KeyError):
        render_table(("x", "missing"), rows)


def test_write_json(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"x": 1.0})
    text = path.read_text(encoding="ascii")
    assert text.endswith("}\n")
    assert not text.endswith("\n\n")


def test_sha256_helper():
    assert (
        sha256_of_text("abc")
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
