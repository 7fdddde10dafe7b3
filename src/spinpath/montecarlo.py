"""Seeded count-data generation for phase scans.

Counts draw from counter-based Philox streams (Salmon et al., SC'11).
:func:`substream` keys Philox by (master seed, stream kind) and puts up to
three indices in counter words 1-3; numpy counts blocks in word 0. Cell c =
repetition * chi points + chi index of scan s reads doubles 4c..4c+3 of
``substream(seed, 0, s)``, its block c + 1, and any later uniforms from its
overflow lane ``substream(seed, 0, s, c + 1)``. No two cells share a block,
so counts do not depend on generation order and any cell can be regenerated
from :func:`substream` alone. Repetition r's drift offset reads doubles 2r
and 2r + 1 of ``substream(seed, 1, s)``. :func:`sample_scan` takes every
cell's first four uniforms in one call; a fifth moves the generator to the
cell's lane, with an empty buffer.

The Poisson sampler itself is pinned rather than delegated to the library:
inverse-CDF search below mean 30 and Hormann's transformed rejection with
squeeze (PTRS, 1993) above. Identical seeds give identical counts regardless
of platform or numpy release.

A single draw (``size=None``), the case of every scan cell, runs in plain
float arithmetic and equals the ``size=1`` array draw on an equal stream bit
for bit: ``rng.random()`` yields the doubles ``rng.random(n)`` does, in the
same order, and each step repeats the array form's IEEE operations. The PTRS
squeeze test keeps ``np.log`` on purpose, since ``math.log`` can differ from
numpy's vectorized log in the last ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby, repeat
from typing import Optional, Sequence

import numpy as np

from .apparatus import ApparatusModel, ScanPlan, predicted_rate
from .errors import CsvFormatError, DomainError, check_int, check_real, check_reals
from .report import format_counts, format_real, non_ascii_byte, read_ascii, write_csv
from .states import Setting

_U64_MAX = 2**64 - 1

# Stream kinds (the second Philox key word) and their counter indices: counts
# (scan) for every cell's first block and (scan, cell + 1) for a cell's
# overflow lane, drift (scan), and the hidden-variable oracle (setting pair).
_STREAM_COUNTS = 0
_STREAM_DRIFT = 1
_STREAM_LHV = 3

# Largest Poisson mean the sampler accepts. PTRS compares log-probabilities
# of size mean*log(mean), so the rounding error of its acceptance test grows
# with the mean: at most about 3e-9 at 1e6 and 5e-8 at this bound, against
# 8e-6 at 1e9 and 6e-3 at 1e12.
POISSON_MAX_MEAN = 1e7

CSV_HEADER = "alpha_rad,chi_rad,repetition,counts"

# Counts of a scan, and so of its CSV, must lie below this bound: every
# integer below it is exactly one float, so integer counts read back exactly.
_MAX_EXACT_COUNT = 2.0**53

# Data lines read_scan_csv splits at a time, with one join and one split, so
# only one block's fields are held at once.
_READ_BLOCK = 256

DEFAULT_ALPHAS = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
DEFAULT_CHI_POINTS = 32
DEFAULT_REPETITIONS = 16


def check_seed(seed: int) -> int:
    return check_int(seed, "seed", 0, _U64_MAX)


def substream(seed: int, kind: int, *cell: int) -> np.random.Generator:
    """Independent generator for one cell of one stream kind: Philox keyed by
    (seed, kind), with the cell's up to three indices in counter words 1-3 and
    zeros after them. Each part lies in [0, 2**64 - 1]."""
    seed = check_seed(seed)
    if len(cell) > 3:
        raise DomainError(f"a substream cell has at most 3 indices, got {len(cell)}")
    kind, *cell = (check_int(p, "substream key parts each", 0, _U64_MAX) for p in (kind, *cell))
    counter = sum(part << 64 * word for word, part in enumerate(cell, start=1))
    return np.random.Generator(np.random.Philox(key=seed | kind << 64, counter=counter))


class _ScanStream:
    """The uniform stream of each cell of a scan in turn, for :func:`poisson`.

    ``rng`` is a fresh ``substream(seed, 0, scan)``. Cell c reads doubles
    4c..4c+3 of ``rng``, taken for every cell at once; a fifth double moves
    ``rng`` to lane c + 1 through the saved fresh state, whose buffer is
    empty, so it and every later double are those of a fresh
    ``substream(seed, 0, scan, c + 1)``.
    """

    __slots__ = ("_rng", "_state", "_doubles", "_next", "_end")

    def __init__(self, rng: np.random.Generator, cells: int):
        self._rng = rng
        self._state = rng.bit_generator.state
        self._doubles = rng.random(4 * cells).tolist()

    def __iter__(self):
        for end in range(4, len(self._doubles) + 1, 4):
            self._next, self._end = end - 4, end
            yield self

    def random(self) -> float:
        index = self._next
        if index < self._end:
            self._next = index + 1
            return self._doubles[index]
        if index == self._end:
            self._next = index + 1
            self._state["state"]["counter"][2] = index // 4  # lane c + 1
            self._rng.bit_generator.state = self._state
        return self._rng.random()


def _counter_streams(rng: np.random.Generator, cells: list):
    # Yields rng, a fresh substream of cells[0], then moves its counter to each
    # later cell of its kind, with the empty buffer of its fresh state, read
    # before the first yield, so draws from one cell never reach the next.
    state = rng.bit_generator.state
    yield rng
    for cell in cells[1:]:
        state["state"]["counter"] = [0, *cell, 0, 0][:4]
        rng.bit_generator.state = state
        yield rng


def poisson(rng, mean: float, size: int | None = None):
    """Poisson draw(s) with a fixed, documented algorithm.

    Returns a plain int when ``size`` is None, else an int64 array. ``rng``
    is a ``np.random.Generator``; a scalar draw needs only an object whose
    ``random()`` returns the stream's next double. Uniforms are consumed in a
    deterministic order, so equal streams and arguments give equal output; a
    scalar draw equals ``int(poisson(rng, mean, 1)[0])`` on an equal stream.
    The mean must lie in [0, POISSON_MAX_MEAN] (1e7), where the rounding
    error of PTRS's acceptance test stays below about 1e-7.
    """
    mean = check_real(mean, "Poisson mean", 0.0, POISSON_MAX_MEAN)
    if size is None:
        if mean == 0.0:
            return 0
        return _poisson_inverse_one(rng, mean) if mean < 30.0 else _poisson_ptrs_one(rng, mean)
    n = check_int(size, "size", 0)
    if mean == 0.0:
        return np.zeros(n, dtype=np.int64)
    return _poisson_inverse(rng, mean, n) if mean < 30.0 else _poisson_ptrs(rng, mean, n)


def _inverse_cap(mean: float) -> int:
    # The CDF search stops here even if u is still above the CDF: summed in
    # floats, the CDF can level off just below 1, and a u in that gap would
    # otherwise never be reached. The cap sits ~60 sigma above the mean, so
    # only such a u can hit it; the draw then returns the cap itself.
    return int(mean + 60.0 * math.sqrt(mean) + 60.0)


def _poisson_inverse(rng: np.random.Generator, mean: float, n: int) -> np.ndarray:
    # Sequential CDF search, one uniform per draw.
    u = rng.random(n)
    k = np.zeros(n, dtype=np.int64)
    pmf = np.full(n, math.exp(-mean))
    cdf = pmf.copy()
    cap = _inverse_cap(mean)
    while True:
        active = u >= cdf
        if not active.any() or k.max() >= cap:
            break
        k[active] += 1
        pmf[active] *= mean / k[active]
        cdf[active] += pmf[active]
    return k


def _poisson_inverse_one(rng: np.random.Generator, mean: float) -> int:
    # _poisson_inverse for one draw, step for step in float arithmetic.
    u = rng.random()
    k = 0
    pmf = math.exp(-mean)
    cdf = pmf
    cap = _inverse_cap(mean)
    while u >= cdf and k < cap:
        k += 1
        pmf *= mean / k
        cdf += pmf
    return k


def _ptrs_constants(mean: float) -> tuple[float, float, float]:
    # Hormann's a, b and v_r, which every round needs; the squeeze test takes
    # its log(mean) and log(1/alpha) where it runs.
    b = 0.931 + 2.53 * math.sqrt(mean)
    return -0.059 + 0.02483 * b, b, 0.9277 - 3.6224 / (b - 2.0)


def _poisson_ptrs(rng: np.random.Generator, mean: float, n: int) -> np.ndarray:
    # Transformed rejection with squeeze; valid for mean >= 10.
    a, b, v_r = _ptrs_constants(mean)
    out = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        u = rng.random(m) - 0.5
        v = rng.random(m)
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            # us == 0 gives k = -inf, which the cast turns into INT64_MIN
            k = np.floor((2.0 * a / us + b) * u + mean + 0.43).astype(np.int64)

        accept = (us >= 0.07) & (v <= v_r)
        reject = (k < 0) | ((us < 0.013) & (v > us))
        undecided = ~(accept | reject)
        if undecided.any():
            ku = k[undecided]
            lgam = np.array([math.lgamma(x + 1.0) for x in ku])
            log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
            with np.errstate(divide="ignore"):
                # v == 0 gives lhs = -inf, which accepts
                lhs = np.log(v[undecided]) + log_inv_alpha - np.log(a / (us[undecided] ** 2) + b)
            rhs = -mean + ku * math.log(mean) - lgam
            slow = np.zeros(m, dtype=bool)
            slow[undecided] = lhs <= rhs
            accept |= slow
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return out


def _poisson_ptrs_one(rng: np.random.Generator, mean: float) -> int:
    # _poisson_ptrs for one draw: each round takes u, then v, as the array
    # form does for one pending draw. Three details keep it bit-identical:
    # us * us is what numpy computes for us ** 2; the squeeze test keeps
    # np.log, whose last ulp can differ from math.log; and a k outside int64
    # (us == 0 gives -inf) is rejected, as the array form's cast turns it
    # into INT64_MIN there.
    a, b, v_r = _ptrs_constants(mean)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if not 0 <= k < 2**63 or (us < 0.013 and v > us):
            continue
        if v == 0.0:
            return k  # log(v) = -inf accepts, without the log's warning
        log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
        lhs = float(np.log(v)) + log_inv_alpha - float(np.log(a / (us * us) + b))
        if lhs <= -mean + k * math.log(mean) - math.lgamma(k + 1.0):
            return k


def _standard_normal(u1: float, u2: float) -> float:
    # Box-Muller, pinned for the same reproducibility reason as the Poisson path.
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """The counts of one scan plan on a (repetition, chi) grid, plus the seed
    that produced them (None for scans imported from CSV, whose seed is not
    part of the schema).

    ``counts[r, c]`` is the exposure at ``plan.chi_values[c]`` in the row
    labelled ``repetitions[r]``. The grid is read-only: int64 for sampled
    data, float64 for noiseless scans, whose counts are the real-valued
    expected rates. Every count lies in [0, 2**53), where each integer is
    exactly one float, so whatever scan is written reads back.
    ``repetitions`` defaults to 0..exposures-1; CSV imports keep the labels
    of the file.
    """

    plan: ScanPlan
    counts: np.ndarray
    seed: Optional[int] = None
    repetitions: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        try:
            counts = np.asarray(self.counts)
            if counts.dtype.kind not in "iufO":  # no bools, strings or complex numbers
                raise ValueError
            counts = counts.astype(np.int64 if counts.dtype.kind in "iu" else np.float64)
        except (TypeError, ValueError, OverflowError):
            raise DomainError("counts must be a grid of real numbers") from None
        shape = (self.plan.exposures, len(self.plan.chi_values))
        if counts.shape != shape:
            raise DomainError(f"scan holds a {counts.shape} count grid, plan requires {shape}")
        if not np.all((counts >= 0) & (counts < _MAX_EXACT_COUNT)):  # NaN fails both
            if not np.all(np.isfinite(counts)) or np.any(counts < 0):
                raise DomainError("counts must be finite and non-negative")
            raise DomainError("counts must lie below 2**53, so that a scan CSV reads back exactly")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        reps = range(shape[0]) if self.repetitions is None else self.repetitions
        reps = tuple(check_int(r, "each repetition label", 0) for r in reps)
        if not len(set(reps)) == len(reps) == shape[0]:
            raise DomainError(f"repetitions must be {shape[0]} distinct labels, got {reps!r}")
        object.__setattr__(self, "repetitions", reps)


def _scan_rates(model: ApparatusModel, plan: ScanPlan, drift: float) -> list[float]:
    """Expected counts at each chi of the scan, fringe phase shifted by ``drift``.
    Undrifted rates read the plan's own settings, which fold -0.0 into 0.0 as
    ``chi + 0.0`` does."""
    if drift == 0.0:
        settings = plan._settings
    else:
        settings = [Setting(plan.alpha, chi + drift) for chi in plan.chi_values]
    return [predicted_rate(model, setting) for setting in settings]


def sample_scan(model: ApparatusModel, plan: ScanPlan, seed: int, scan_index: int = 0) -> ScanResult:
    """Draw Poisson counts for every (chi, repetition) pair of one scan.

    ``scan_index`` distinguishes substreams when several scans share a master
    seed (see :func:`sample_full_experiment`). The count at (ci, rep) is cell
    c = rep * chi points + ci: it reads doubles 4c..4c+3 of ``substream(seed,
    0, scan_index)``, then ``substream(seed, 0, scan_index, c + 1)``. With
    ``model.drift_sigma`` > 0 repetition rep's fringe phase offset is a
    Gaussian of doubles 2 rep and 2 rep + 1 of ``substream(seed, 1,
    scan_index)``, so count streams are unaffected.
    """
    rng = substream(seed, _STREAM_COUNTS, scan_index)
    streams = _ScanStream(rng, plan.exposures * len(plan.chi_values))
    if model.drift_sigma > 0.0:
        u = substream(seed, _STREAM_DRIFT, scan_index).random(2 * plan.exposures).tolist()
        drifts = [model.drift_sigma * _standard_normal(*pair) for pair in zip(u[0::2], u[1::2])]
        rates = [lam for drift in drifts for lam in _scan_rates(model, plan, drift)]
    else:
        rates = _scan_rates(model, plan, 0.0) * plan.exposures  # the same for every repetition
    counts = [poisson(stream, lam) for stream, lam in zip(streams, rates)]
    return ScanResult(plan=plan, counts=np.reshape(counts, (plan.exposures, -1)), seed=seed)


def sample_full_experiment(
    model: ApparatusModel,
    alphas: Sequence[float],
    chi_values: Sequence[float],
    exposures: int,
    seed: int,
) -> list[ScanResult]:
    """One sampled scan per spin-analyzer angle, all from one master seed."""
    alphas = check_reals(alphas, "alphas")
    if not alphas:
        raise DomainError("need at least one alpha")
    chi_values = check_reals(chi_values, "chi values")  # read once: it may be an iterator
    plans = [ScanPlan(alpha=a, chi_values=chi_values, exposures=exposures) for a in alphas]
    return [sample_scan(model, plan, seed, scan_index=i) for i, plan in enumerate(plans)]


def noiseless_scan(model: ApparatusModel, plan: ScanPlan) -> ScanResult:
    """Scan whose counts are the exact expected rates (no sampling)."""
    rates = _scan_rates(model, plan, 0.0)
    return ScanResult(plan=plan, counts=np.tile(rates, (plan.exposures, 1)), seed=None)


def split_repetitions(scan: ScanResult) -> list[ScanResult]:
    """Break a multi-exposure scan into single-exposure scans, one per grid
    row, preserving the original repetition labels."""
    plan = replace(scan.plan, exposures=1)
    return [
        ScanResult(plan=plan, counts=scan.counts[row : row + 1], seed=scan.seed, repetitions=(rep,))
        for row, rep in enumerate(scan.repetitions)
    ]


def write_scan_csv(scan: ScanResult, path) -> None:
    """Serialize a scan with the fixed four-column schema, one row per grid
    cell in repetition-major order. Floats carry 17 significant digits so
    re-imports are bit-exact."""
    alpha = repeat(format_real(scan.plan.alpha))
    chis = [format_real(chi) for chi in scan.plan.chi_values]
    blocks = (
        (alpha, chis, repeat(str(rep)), format_counts(line))
        for rep, line in zip(scan.repetitions, scan.counts)
    )
    write_csv(path, CSV_HEADER, blocks)


def read_scan_csv(path) -> ScanResult:
    """Parse a scan CSV, validating the header and field values, and that
    the rows give every (chi, repetition) cell of a single-alpha scan exactly
    once, in any order. Chi values keep the order of their first appearance;
    repetitions are sorted.

    Rows are read a block at a time into columns, with one join and split
    that also checks each line's field count. A block's chi strings and
    repetition labels are coded through dictionaries, in order of first
    appearance, with two shortcuts that give the same codes: a chi column
    equal to the previous block's reuses its codes, as every block after
    the first does in :func:`write_scan_csv`'s layout when the number of
    chi points divides 256, and labels are looked up once per run of equal
    labels. Each distinct alpha, chi and repetition string is parsed once;
    cells are keyed by the parsed values, so ``0.1``/``0.10`` and
    ``0.0``/``-0.0`` name one chi. On bad input the data lines are checked
    again in file order and the first bad one raises, with its line number.
    A line holding a non-ASCII byte, a lone surrogate that no field parses, is bad.
    """
    lines = read_ascii(path).splitlines()
    _check_ascii(lines[0] if lines else "", 1)
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CsvFormatError(f"expected header {CSV_HEADER!r}", line_number=1)
    # The distinct alpha strings, and chi and repetition strings with their
    # codes, in order of first appearance.
    alpha_strings: dict[str, None] = {}
    chi_strings: dict[str, int] = {}
    rep_strings: dict[str, int] = {}
    chi_blocks, rep_blocks, count_blocks = [], [], []
    last_chis: list[str] = []  # the chi column of the last block, with its codes
    try:
        for start in range(1, len(lines), _READ_BLOCK):
            block = lines[start : start + _READ_BLOCK]
            fields = _block_fields(block)
            if fields is None:  # blank lines, or a line that does not hold 4 fields
                block = [line for line in block if line.strip()]
                if not block:
                    continue
                fields = _block_fields(block)
                if fields is None:
                    raise ValueError
            alpha_column, chi_column, rep_column = fields[0::5], fields[1::5], fields[2::5]
            alpha_strings.update(dict.fromkeys(alpha_column))
            if chi_column != last_chis:  # an equal column has equal codes
                last_chis, last_codes = chi_column, _codes(chi_column, chi_strings)
            chi_blocks.append(last_codes)
            rep_blocks.append(_run_codes(rep_column, rep_strings))
            count_blocks.append(np.fromiter(map(float, fields[3::5]), float, len(block)))
        alphas = list(map(float, alpha_strings))
        chi_of_string = list(map(float, chi_strings))
        rep_of_string = list(map(int, rep_strings))
    except ValueError:
        _check_lines(lines)  # raises
    if not count_blocks:
        raise CsvFormatError("no data rows")
    chi_codes, rep_codes, counts = map(np.concatenate, (chi_blocks, rep_blocks, count_blocks))
    # Equal chi values merge into the first one's slot; repetitions are ranked.
    chi_slots: dict[float, int] = {}
    chi_slot = np.array([chi_slots.setdefault(chi, len(chi_slots)) for chi in chi_of_string])
    reps = sorted(set(rep_of_string))
    rank = {rep: index for index, rep in enumerate(reps)}
    rep_rank = np.array([rank[rep] for rep in rep_of_string])
    cells = rep_rank[rep_codes] * len(chi_slots) + chi_slot[chi_codes]
    size = len(reps) * len(chi_slots)
    rows_ok = (
        len(set(alphas)) == 1
        and all(map(math.isfinite, alphas + chi_of_string))
        and reps[0] >= 0
        and bool(np.all((counts >= 0.0) & (counts < _MAX_EXACT_COUNT)))
        and bool(np.all(np.diff(np.sort(cells))))  # no cell twice
    )
    if not rows_ok:
        _check_lines(lines)  # raises
    if len(cells) != size:
        raise CsvFormatError(
            f"incomplete grid: {len(cells)} rows for {len(chi_slots)} chi values "
            f"x {len(reps)} repetitions"
        )
    grid = np.empty(size)
    grid[cells] = counts
    grid = grid.reshape(len(reps), len(chi_slots))
    if np.all(grid == np.trunc(grid)):
        grid = grid.astype(np.int64)
    plan = ScanPlan(alpha=alphas[0], chi_values=tuple(chi_slots), exposures=len(reps))
    return ScanResult(plan=plan, counts=grid, seed=None, repetitions=tuple(reps))


def _block_fields(block: list[str]) -> Optional[list[str]]:
    """The fields of data lines, five to a line: its four, then a line break
    (none after the last line); None unless every line holds four fields.
    The lines are joined with a line-break field between them and split
    once, and a line with more or fewer fields moves a line break out of
    every fifth place."""
    fields = ",\n,".join(block).split(",")
    if len(fields) == 5 * len(block) - 1 and fields[4::5].count("\n") == len(block) - 1:
        return fields
    return None


def _codes(column: Sequence[str], known: dict[str, int]) -> np.ndarray:
    # Codes of a column's strings; strings not seen before get the next codes.
    for string in dict.fromkeys(column):
        known.setdefault(string, len(known))
    return np.fromiter(map(known.__getitem__, column), np.intp, len(column))


def _run_codes(column: list[str], known: dict[str, int]) -> np.ndarray:
    # _codes' codes of a non-empty column, looked up once per run of equal strings.
    runs = [(known.setdefault(label, len(known)), len(list(run))) for label, run in groupby(column)]
    codes, lengths = zip(*runs)
    return np.repeat(codes, lengths)


def _check_ascii(line: str, lineno: int) -> None:
    if not line.isascii():
        raise CsvFormatError(non_ascii_byte(line)[1], line_number=lineno)


def _check_lines(lines: list[str]) -> None:
    # Check every data line in file order; the first bad one raises.
    alpha = None
    cells: set[tuple[float, int]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            alpha, chi, rep = _check_line(line, lineno, alpha, cells)
            cells.add((chi, rep))


def _check_line(line: str, lineno: int, alpha: Optional[float], cells) -> tuple[float, float, int]:
    """The checks of one data line, in the order their errors are reported.

    ``alpha`` is the file's alpha (None on its first data line) and ``cells``
    holds the (chi, repetition) cells of the lines above. Returns the file's
    alpha and this line's cell.
    """
    _check_ascii(line, lineno)
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
    if counts >= _MAX_EXACT_COUNT:
        raise CsvFormatError(
            f"counts {parts[3]} are not below 2**53, so they do not read back exactly",
            line_number=lineno,
        )
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
    return alpha, chi, rep
