"""Scan-CSV reader against a per-row reference reader.

``reference_read_scan_csv`` is the straightforward reader: one loop over the
lines that parses and checks each row and fills a dict of cells. The
column-wise ``read_scan_csv`` must return an equal scan on every valid file
and raise the same ``CsvFormatError`` (message and line number) on every bad
one. Generated counts stay below 2**53, which the reference does not check.
Non-ASCII bytes are written from lone surrogates (``surrogateescape``).
"""

import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinpath import CsvFormatError, ScanPlan, ScanResult, montecarlo, read_scan_csv, write_scan_csv
from spinpath.montecarlo import _READ_BLOCK, CSV_HEADER, _block_fields, _codes, _run_codes
from spinpath.report import format_real


def _check_ascii(line: str, lineno: int) -> None:
    for char in line:
        if char >= "\x80":
            byte = ord(char) - 0xDC00
            raise CsvFormatError(f"non-ASCII byte 0x{byte:02x}", line_number=lineno)


def reference_read_scan_csv(path) -> ScanResult:
    text = Path(path).read_bytes().decode("ascii", errors="surrogateescape")
    lines = text.splitlines()
    if lines:
        _check_ascii(lines[0], 1)
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CsvFormatError(f"expected header {CSV_HEADER!r}", line_number=1)
    alpha = None
    cells: dict[tuple[float, int], float] = {}
    chi_order: dict[float, None] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        _check_ascii(line, lineno)
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise CsvFormatError(f"expected 4 fields, got {len(parts)}", line_number=lineno)
        try:
            row_alpha = float(parts[0])
            chi = float(parts[1])
            rep = int(parts[2])
            counts = float(parts[3])
        except ValueError as exc:
            raise CsvFormatError(str(exc), line_number=lineno) from None
        if not all(map(math.isfinite, (row_alpha, chi, counts))):
            raise CsvFormatError("angles and counts must be finite", line_number=lineno)
        if counts < 0:
            raise CsvFormatError(f"negative counts {parts[3]}", line_number=lineno)
        if rep < 0:
            raise CsvFormatError(f"negative repetition index {parts[2]}", line_number=lineno)
        alpha = row_alpha if alpha is None else alpha
        if row_alpha != alpha:
            raise CsvFormatError(
                f"scan file must hold a single alpha, found {format_real(alpha)} "
                f"and {format_real(row_alpha)}",
                line_number=lineno,
            )
        if (chi, rep) in cells:
            raise CsvFormatError(
                f"chi = {format_real(chi)}, repetition {rep} given twice", line_number=lineno
            )
        cells[(chi, rep)] = counts
        chi_order[chi] = None
    if not cells:
        raise CsvFormatError("no data rows")

    chis = tuple(chi_order)
    reps = sorted({rep for _, rep in cells})
    if len(cells) != len(chis) * len(reps):
        raise CsvFormatError(
            f"incomplete grid: {len(cells)} rows for {len(chis)} chi values x {len(reps)} repetitions"
        )
    grid = np.array([[cells[(chi, rep)] for chi in chis] for rep in reps])
    if np.all(grid == np.trunc(grid)) and grid.max() < 2.0**63:
        grid = grid.astype(np.int64)
    plan = ScanPlan(alpha=alpha, chi_values=chis, exposures=len(reps))
    return ScanResult(plan=plan, counts=grid, seed=None, repetitions=tuple(reps))


def _outcome(read, path):
    """What a reader makes of a file, with floats compared bit for bit."""
    try:
        scan = read(path)
    except CsvFormatError as exc:
        return ("error", str(exc), exc.line_number)
    return (
        "scan",
        np.float64(scan.plan.alpha).tobytes(),
        np.array(scan.plan.chi_values).tobytes(),
        scan.plan.exposures,
        scan.repetitions,
        scan.counts.dtype.str,
        scan.counts.shape,
        scan.counts.tobytes(),
        scan.seed,
    )


def _outcomes(text: str, newline: str = "\n"):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        path.write_bytes(text.replace("\n", newline).encode("ascii", errors="surrogateescape"))
        return _outcome(read_scan_csv, path), _outcome(reference_read_scan_csv, path)


def _spellings(value: float) -> list[str]:
    """Strings that parse to ``value``, the signed zeros of 0.0 included."""
    out = [format_real(value), repr(value), f"{value:.20e}", f" {value!r}"]
    if math.copysign(1.0, value) > 0.0:
        out.append("+" + repr(value))
    if value == 0.0:
        out += ["0", "-0", "-0.0", "0e5", "0.000"]
    if value == int(value):
        out.append(str(int(value)))
    return out


_ANGLE = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 0.1, 0.7853981633974483]
)
_INT_COUNT = st.integers(min_value=0, max_value=2**53 - 1) | st.integers(min_value=0, max_value=50)
_FLOAT_COUNT = st.floats(min_value=0.0, max_value=2.0**52, allow_nan=False)


@st.composite
def scan_rows(draw, counts=_INT_COUNT | _FLOAT_COUNT):
    """The rows of a complete grid, each [alpha, chi, repetition, count] as
    values."""
    alpha = draw(_ANGLE)
    chis = draw(st.lists(_ANGLE, min_size=1, max_size=5, unique=True))
    reps = draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=4, unique=True))
    return [[alpha, chi, rep, draw(counts)] for rep in reps for chi in chis]


def _line(row) -> str:
    alpha, chi, rep, count = row
    count = str(count) if isinstance(count, int) else format_real(count)
    return f"{format_real(alpha)},{format_real(chi)},{rep},{count}"


def _text(lines) -> str:
    return "\n".join([CSV_HEADER, *lines]) + "\n"


@given(scan_rows(counts=_INT_COUNT))
def test_reads_integer_grids_like_the_reference(rows):
    new, ref = _outcomes(_text(map(_line, rows)))
    assert ref[0] == "scan"
    assert new == ref


@given(scan_rows(counts=_FLOAT_COUNT))
def test_reads_float_grids_like_the_reference(rows):
    new, ref = _outcomes(_text(map(_line, rows)))
    assert ref[0] == "scan"
    assert new == ref


@given(scan_rows(), st.randoms(use_true_random=False), st.sampled_from(["\n", "\r\n", "\r"]))
def test_row_order_blank_lines_and_line_endings(rows, rnd, newline):
    lines = [_line(row) for row in rows]
    rnd.shuffle(lines)
    for _ in range(rnd.randrange(4)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "   ", "\t"]))
    new, ref = _outcomes(_text(lines), newline)
    assert ref[0] == "scan"
    assert new == ref


@given(scan_rows(), st.randoms(use_true_random=False))
def test_spellings_of_one_value_name_one_cell(rows, rnd):
    lines = []
    for alpha, chi, rep, count in rows:
        count = str(count) if isinstance(count, int) else format_real(count)
        lines.append(
            f"{rnd.choice(_spellings(alpha))},{rnd.choice(_spellings(chi))},"
            f"{rnd.choice([str(rep), f'+{rep}', f' {rep} ', f'0{rep}'])},{count}"
        )
    new, ref = _outcomes(_text(lines))
    assert ref[0] == "scan"
    assert new == ref


def _corrupt(rnd, lines, rows, kind):
    # One corruption of a random line; rows[i] holds the values line i was
    # written from, and stays aligned with lines.
    i = rnd.randrange(len(lines))
    alpha, chi, rep, _ = rows[i]
    fields = lines[i].split(",")
    field_edits = {
        "non_numeric": (rnd.randrange(4), rnd.choice(["x", "", "1.2.3", "0x10", "1e"])),
        "non_finite": (rnd.choice([0, 1, 3]), rnd.choice(["nan", "inf", "-inf", "NaN"])),
        "negative_count": (3, rnd.choice(["-1", "-3.5", "-1e-300"])),
        "negative_repetition": (2, rnd.choice(["-1", "-7"])),
        "second_alpha": (0, format_real(alpha + rnd.choice([1.0, 1e-9, -2.5]))),
    }
    if kind in field_edits:
        index, value = field_edits[kind]
        # an earlier corruption may have cut the line short
        fields[min(index, len(fields) - 1)] = value
        lines[i] = ",".join(fields)
    elif kind == "field_count":
        lines[i] = ",".join(fields[:-1] if rnd.random() < 0.5 else fields + ["1"])
    elif kind == "duplicate_cell":
        j = rnd.randrange(len(lines) + 1)
        lines.insert(j, f"{fields[0]},{format_real(chi)},{rep},{j}")
        rows.insert(j, [alpha, chi, rep, j])
    elif kind == "missing_cell":
        del lines[i]
        del rows[i]
    elif kind == "non_ascii":
        at = rnd.randrange(len(lines[i]) + 1)
        byte = chr(0xDC00 + rnd.choice([0x80, 0x85, 0xA0, 0xC3, 0xE9, 0xFF]))
        lines[i] = lines[i][:at] + byte + lines[i][at:]


_CORRUPTIONS = [
    "field_count",
    "non_numeric",
    "non_finite",
    "negative_count",
    "negative_repetition",
    "second_alpha",
    "duplicate_cell",
    "missing_cell",
    "non_ascii",
]


@given(
    scan_rows(),
    st.lists(st.sampled_from(_CORRUPTIONS), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_corrupt_files_raise_the_reference_error(rows, kinds, rnd, newline):
    lines = [_line(row) for row in rows]
    for kind in kinds:
        if lines:
            _corrupt(rnd, lines, rows, kind)
    new, ref = _outcomes(_text(lines), newline)
    assert new == ref


def test_every_corruption_kind_is_an_error():
    # each corruption alone, on a 2x2 grid, is caught by both readers
    rows = [[0.5, chi, rep, 10 + rep] for rep in (0, 1) for chi in (0.0, 1.0)]
    for kind in _CORRUPTIONS:
        rnd = random.Random(kind)
        case_rows = [list(row) for row in rows]
        lines = [_line(row) for row in case_rows]
        _corrupt(rnd, lines, case_rows, kind)
        new, ref = _outcomes(_text(lines))
        assert ref[0] == "error", kind
        assert new == ref, kind


def test_the_first_bad_line_of_a_long_file_is_reported():
    # files of several read blocks: the first bad line wins, whether its
    # fault shows in the line alone or only against the lines above it
    rows = [[0.0, 0.01 * c, r, c + r] for r in range(20) for c in range(60)]
    lines = [_line(row) for row in rows]
    negative, duplicate, second_alpha = "0.0,0.5,3,-2", "0.0,0.0,0,5", "1.0,0.5,3,2"
    cases = [
        ({1100: negative}, 1100),
        ({700: duplicate}, 700),
        ({1199: second_alpha}, 1199),
        ({700: duplicate, 1100: negative}, 700),
        ({300: negative, 900: second_alpha}, 300),
        ({900: negative, 301: second_alpha}, 301),
    ]
    for bad_lines, first in cases:
        corrupt = list(lines)
        for index, bad in bad_lines.items():
            corrupt[index] = bad
        new, ref = _outcomes(_text(corrupt))
        assert ref[0] == "error" and ref[2] == first + 2
        assert new == ref


def test_a_non_ascii_byte_names_its_line():
    rows = [[0.0, 0.01 * c, r, c + r] for r in range(20) for c in range(60)]
    lines = [_line(row) for row in rows]
    cases = [
        ({}, "\udcc3", 1),  # in the header
        ({0: "0.0,0.0,0,5\udce9"}, "", 2),
        ({1000: "0.0,\udcff0.5,3,2"}, "", 1002),
        ({300: "0.0,0.5,3,-2", 900: "\udc80"}, "", 302),  # a bad line above wins
        ({300: "\udc80", 900: "0.0,0.5,3,-2"}, "", 302),
    ]
    for bad_lines, header_byte, first in cases:
        corrupt = list(lines)
        for index, bad in bad_lines.items():
            corrupt[index] = bad
        for newline in ("\n", "\r\n"):
            new, ref = _outcomes(_text(corrupt).replace(CSV_HEADER, CSV_HEADER + header_byte), newline)
            assert ref[0] == "error" and ref[2] == first
            assert new == ref


def test_a_sparse_grid_is_rejected_without_building_it(tmp_path):
    # every row its own chi and repetition: the grid would have n * n cells,
    # far more memory than the rows, so the reader must not allocate by cell
    n = 3000
    path = tmp_path / "sparse.csv"
    path.write_text(_text(f"0,{k},{k},1" for k in range(n)))
    tracemalloc.start()
    try:
        with pytest.raises(CsvFormatError, match=f"{n} rows for {n} chi values x {n} repetitions"):
            read_scan_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


# Scans in write_scan_csv's layout, as (chi points, repetition labels): runs
# inside one read block, runs across block boundaries, runs that end on a
# block boundary, a first run longer than a block, and descending labels.
_WRITER_SHAPES = [
    (4, (0, 1, 2)),
    (7, tuple(range(9, -1, -1))),
    (64, (0, 1, 2, 3, 4)),
    (100, (0, 1, 2, 3, 4)),
    (300, (5, 2)),
]


def _writer_lines(chi_points, reps):
    """The data lines write_scan_csv writes for a scan of distinct counts."""
    chis = tuple(0.01 * c for c in range(chi_points))  # 0 and 0.1 among them
    counts = np.arange(chi_points * len(reps)).reshape(len(reps), chi_points)
    scan = ScanResult(ScanPlan(0.5, chis, len(reps)), counts, repetitions=reps)
    with tempfile.TemporaryDirectory() as tmp:
        write_scan_csv(scan, Path(tmp) / "scan.csv")
        return (Path(tmp) / "scan.csv").read_text().splitlines()[1:]


def _rows_at(lines, chi_points):
    # Rows to perturb: the first, inside the first run, at the first run's
    # end, on both sides of the first block boundary, and the last.
    rows = {0, 1, chi_points - 1, chi_points, _READ_BLOCK - 1, _READ_BLOCK, len(lines) - 2}
    return sorted(row for row in rows if 0 <= row < len(lines) - 1)


def _field_pair(lines, row):
    # 3 fields, then 5: the fields of both lines together are unchanged
    head, tail = lines[row].rsplit(",", 1)
    lines[row : row + 2] = [head, f"{tail},{lines[row + 1]}"]


def _respelled_chi(lines, row):
    alpha, chi, rep, count = lines[row].split(",")
    spellings = [s for s in _spellings(float(chi)) if s != chi]
    lines[row] = ",".join([alpha, spellings[row % len(spellings)], rep, count])


def _swapped_labels(lines, row, chi_points):
    # the rows of one chi in two runs trade repetition labels
    other = (row + chi_points) % len(lines)
    first, second = lines[row].split(","), lines[other].split(",")
    first[2], second[2] = second[2], first[2]
    lines[row], lines[other] = ",".join(first), ",".join(second)


def _near_writer_cases():
    for chi_points, reps in _WRITER_SHAPES:
        lines = _writer_lines(chi_points, reps)
        yield "writer layout", lines, "\n", "scan"
        for newline in ("\x0b", "\x0c", "\x1c", "\x1e"):
            yield f"{newline!r} line breaks", lines, newline, "scan"
        yield "missing last row", lines[:-1], "\n", "error"
        yield "repeated last run", lines + lines[-chi_points:], "\n", "error"
        yield "repeated block", lines + lines[:_READ_BLOCK], "\n", "error"
        twice = [line for k, line in enumerate(lines) for _ in range(1 + (k % chi_points == 0))]
        yield "first chi twice in every repetition", twice, "\n", "error"
        for row in _rows_at(lines, chi_points):
            for name, perturb, expect in (
                ("3 then 5 fields", _field_pair, "error"),
                ("re-spelled chi", _respelled_chi, "scan"),
                ("blank line", lambda ls, r: ls.insert(r, ""), "scan"),
                ("repeated row", lambda ls, r: ls.insert(r, ls[r]), "error"),
                ("swapped labels", lambda ls, r: _swapped_labels(ls, r, chi_points), "scan"),
            ):
                case = list(lines)
                perturb(case, row)
                yield f"{name} at row {row}", case, "\n", expect


def test_near_writer_layout_files_read_like_the_reference():
    # write_scan_csv's layout with one perturbation each, at rows on both
    # sides of a read block boundary in the larger shapes. Each case also
    # runs without its trailing newline.
    for name, lines, newline, expect in _near_writer_cases():
        text = _text(lines)
        for body in (text, text[:-1]):
            new, ref = _outcomes(body, newline)
            assert ref[0] == expect, name
            assert new == ref, name


def test_a_field_count_fault_hidden_by_the_next_line_names_its_line():
    # The fields of the two lines, joined, are those of two good rows.
    lines = ["0,0,0", "11,0,1.5,0,7"]
    assert _block_fields(lines) is None
    assert _block_fields(["0,0,0,11", "0,1.5,0,7"]) is not None
    new, ref = _outcomes(_text(lines))
    assert new == ref == ("error", "line 2: expected 4 fields, got 3", 2)


_LABEL = st.text(alphabet="01a", max_size=2)
_RUNS = st.lists(st.tuples(_LABEL, st.integers(1, 300)), min_size=1, max_size=6)


@given(st.lists(_LABEL, unique=True), _RUNS)
@example([], [("0", 1)])  # one row
@example(["1"], [("0", 1), ("1", 1)] * 3)  # alternating labels
@example([], [("0", 3), ("1", 2), ("0", 4)])  # a label again after a gap
@example(["a"], [("0", _READ_BLOCK - 1), ("1", 2), ("a", _READ_BLOCK + 1)])  # across blocks
def test_run_codes_equal_codes_block_by_block(seen, runs):
    # A repetition column read a block at a time: _run_codes gives each
    # block the codes _codes gives it, and enters new labels in the same order.
    column = [label for label, length in runs for _ in range(length)]
    known = {label: code for code, label in enumerate(seen)}
    known_copy = dict(known)
    for start in range(0, len(column), _READ_BLOCK):
        block = column[start : start + _READ_BLOCK]
        assert _run_codes(block, known).tolist() == _codes(block, known_copy).tolist()
        assert list(known.items()) == list(known_copy.items())


def test_a_writer_layout_file_codes_only_its_first_chi_column(tmp_path, monkeypatch):
    # A 64x64 scan in write_scan_csv's layout: every block after the first
    # repeats its chi column, and labels are coded by run, so the dictionary
    # coder runs once, on the first block's chi strings.
    chis = tuple(0.01 * c for c in range(64))
    scan = ScanResult(ScanPlan(0.5, chis, 64), np.arange(64 * 64).reshape(64, 64))
    write_scan_csv(scan, tmp_path / "scan.csv")
    columns = []

    def counted(column, known):
        columns.append(list(column))
        return _codes(column, known)

    monkeypatch.setattr(montecarlo, "_codes", counted)
    read = read_scan_csv(tmp_path / "scan.csv")
    assert read.counts.tolist() == scan.counts.tolist()
    assert columns == [list(map(format_real, chis)) * (_READ_BLOCK // 64)]


def test_a_block_of_only_blank_lines_is_skipped(tmp_path):
    # The first 256-line block after the header holds only blank lines (some
    # of them spaces): the file reads as the scan it holds without them.
    scan = ScanResult(ScanPlan(0.5, (0.0, 1.0, 2.0, 3.0), 2), np.arange(8).reshape(2, 4))
    write_scan_csv(scan, tmp_path / "scan.csv")
    header, *rows = (tmp_path / "scan.csv").read_text().splitlines()
    blank = [" " if k % 3 == 0 else "" for k in range(_READ_BLOCK)]
    (tmp_path / "blank.csv").write_text("\n".join([header, *blank, *rows]) + "\n")
    read = read_scan_csv(tmp_path / "blank.csv")
    assert read.plan == scan.plan
    assert read.repetitions == scan.repetitions
    assert read.counts.tolist() == scan.counts.tolist()
