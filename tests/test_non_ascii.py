"""One non-ASCII rule for every text input, against the branch it replaced.

The references below re-implement the branch the readers took on a
non-ASCII byte before they read it as a lone surrogate: decode the file's
bytes as ASCII and, at the first byte that fails, count its line in the
bytes above it as ``str.splitlines`` counts lines. The scan-CSV reader then
checked the header and the data lines above that line, so a bad line above
the byte was reported first; the config and fit-report readers raised at
once. Every error's type, message and line number must equal the
reference's.
"""

import math
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpath import ConfigError, CsvFormatError, PreconditionError, load_config, read_scan_csv
from spinpath.montecarlo import CSV_HEADER, _check_lines
from spinpath.pipeline import load_fit_report
from spinpath.report import format_real


def _first_non_ascii(data: bytes) -> tuple[str, int, str]:
    # The ASCII text above the first non-ASCII byte, the byte's line and its description.
    try:
        data.decode("ascii")
    except UnicodeDecodeError as exc:
        above = data[: exc.start].decode("ascii")
        return above, len((above + "x").splitlines()), f"non-ASCII byte 0x{data[exc.start]:02x}"
    raise AssertionError("every generated file holds a non-ASCII byte")


def reference_scan_csv_error(path) -> CsvFormatError:
    above, line, byte = _first_non_ascii(Path(path).read_bytes())
    lines = above.splitlines()[: line - 1]
    if lines and lines[0].strip() != CSV_HEADER:
        return CsvFormatError(f"expected header {CSV_HEADER!r}", line_number=1)
    try:
        _check_lines(lines)
    except CsvFormatError as exc:
        return exc
    return CsvFormatError(byte, line_number=line)


def reference_input_error(path, what: str, error: type) -> Exception:
    _, line, byte = _first_non_ascii(Path(path).read_bytes())
    return error(f"{what} {path}: line {line}: {byte}")


def _described(exc: Exception):
    return type(exc), str(exc), getattr(exc, "line_number", None)


# Lines a data row can be replaced with, each bad on its own or next to the
# row (0.0, 0.0, 0) that every generated scan holds.
BAD_LINES = [
    "0.0,0.5,0,-2",
    "0.0,0.5,0",
    "0.0,x,0,2",
    "1.5,0.5,0,2",
    "0.0,0.0,0,7",
    "0.0,0.5,-1,2",
    "0.0,0.5,0,1e300",
]
WHERE = ["anywhere", "header", "line break", "blank line", "after a bad line", "data field"]


@st.composite
def files_with_one_byte(draw, lines, newline, bad_lines):
    """The lines joined by ``newline`` as ASCII bytes, with one non-ASCII byte
    inserted at a place of a drawn kind."""
    data = newline.join(lines).encode("ascii") + draw(st.sampled_from([b"", newline.encode()]))
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text) + len(newline))
    places = {
        "anywhere": range(len(data) + 1),
        "header": range(len(lines[0]) + 1),
        "line break": [i + d for i, b in enumerate(data) if b in b"\r\n" for d in (0, 1)],
        "blank line": [
            starts[k] + d
            for k, text in enumerate(lines)
            if not text.strip()
            for d in range(len(text) + 1)
        ],
        "after a bad line": [
            i
            for k, text in enumerate(lines)
            if text in bad_lines
            for i in range(starts[k + 1], len(data) + 1)
        ],
        "data field": [
            starts[k] + d
            for k, text in enumerate(lines[1:], 1)
            if "," in text or "=" in text
            for d in range(len(text) + 1)
        ],
    }
    where = draw(st.sampled_from([kind for kind in WHERE if places[kind]]))
    at = draw(st.sampled_from(list(places[where])))
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


@st.composite
def scan_csvs(draw):
    chis, reps = draw(st.integers(4, 6)), draw(st.integers(1, 3))
    lines = [CSV_HEADER] + [
        f"0.0,{format_real(2.0 * math.pi * c / chis)},{r},{c + r}"
        for r in range(reps)
        for c in range(chis)
    ]
    if draw(st.booleans()):
        lines[draw(st.integers(2, len(lines) - 1))] = draw(st.sampled_from(BAD_LINES))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return draw(files_with_one_byte(lines, newline, BAD_LINES))


# Config and fit-report lines, with the config's one bad line last. The
# readers refuse the byte before they parse a line, so any order will do.
CONFIG_LINES = ["seed = 4", "# a comment", "", "chi_points = 8", "alphas = 0, pi/2", "no equals"]
FIT_REPORT_LINES = ['{"command": "fit",', "", '  "fits": [],', '  "source": "scan.csv"', "}"]


@st.composite
def text_inputs(draw, lines):
    chosen = draw(st.lists(st.sampled_from(lines), min_size=1, max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return draw(files_with_one_byte(chosen, newline, lines[-1:]))


def _error_of(read, data: bytes, name: str, reference):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        expected = reference(path)
        with pytest.raises(type(expected)) as err:
            read(path)
    return _described(err.value), _described(expected)


@given(scan_csvs())
def test_a_scan_csv_byte_raises_what_the_old_branch_raised(data):
    got, expected = _error_of(read_scan_csv, data, "scan.csv", reference_scan_csv_error)
    assert got == expected


@given(text_inputs(CONFIG_LINES))
def test_a_config_byte_raises_what_the_old_branch_raised(data):
    reference = partial(reference_input_error, what="config", error=ConfigError)
    got, expected = _error_of(load_config, data, "run.cfg", reference)
    assert got == expected


@given(text_inputs(FIT_REPORT_LINES))
def test_a_fit_report_byte_raises_what_the_old_branch_raised(data):
    reference = partial(reference_input_error, what="fit report", error=PreconditionError)
    got, expected = _error_of(load_fit_report, data, "fits.json", reference)
    assert got == expected
