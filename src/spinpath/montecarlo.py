"""Seeded count-data generation for phase scans.

Every (scan, chi point, repetition) triple draws from its own counter-based
substream: a Philox generator keyed on (master seed, stream kind, scan index,
point index, repetition). Counts therefore do not depend on generation
order, so scans could be produced in parallel without changing a single
count, and any cell of a scan's grid can be regenerated in isolation.

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
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .apparatus import ApparatusModel, ScanPlan, predicted_rate
from .errors import CsvFormatError, DomainError
from .report import format_count, format_real, render_csv
from .states import Setting

_U64_MAX = 2**64 - 1

# Stream kinds keep count draws and drift draws from ever sharing a substream.
_STREAM_COUNTS = 0
_STREAM_DRIFT = 1

# Largest Poisson mean the sampler accepts; far larger means overflow the
# int64 draws. PTRS compares log-probabilities of size mean*log(mean), so the
# rounding error of its acceptance test grows with the mean: about 1e-5 at
# 1e9 and 6e-3 at this bound.
POISSON_MAX_MEAN = 1e12

CSV_HEADER = "alpha_rad,chi_rad,repetition,counts"

DEFAULT_ALPHAS = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
DEFAULT_CHI_POINTS = 32
DEFAULT_REPETITIONS = 16


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) <= _U64_MAX:
        raise DomainError(f"seed must fit in an unsigned 64-bit value, got {seed!r}")
    return int(seed)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (kind, scan, point, repetition) key."""
    entropy = [check_seed(seed), *[int(k) for k in key]]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def poisson(rng: np.random.Generator, mean: float, size: int | None = None):
    """Poisson draw(s) with a fixed, documented algorithm.

    Returns a plain int when ``size`` is None, else an int64 array. Uniforms
    are consumed in a deterministic order, so equal streams and arguments
    give equal output; a scalar draw equals ``int(poisson(rng, mean, 1)[0])``
    on an equal stream. The mean must lie in [0, POISSON_MAX_MEAN].
    """
    mean = float(mean)
    if not math.isfinite(mean) or mean < 0.0:
        raise DomainError(f"Poisson mean must be finite and non-negative, got {mean!r}")
    if mean > POISSON_MAX_MEAN:
        raise DomainError(f"Poisson mean must not exceed {POISSON_MAX_MEAN:g}, got {mean!r}")
    if size is None:
        if mean == 0.0:
            return 0
        return _poisson_inverse_one(rng, mean) if mean < 30.0 else _poisson_ptrs_one(rng, mean)
    n = int(size)
    if n < 0:
        raise DomainError(f"size must be non-negative, got {size!r}")
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


def _ptrs_constants(mean: float) -> tuple[float, float, float, float, float]:
    # Hormann's constants for one mean: log(mean), a, b, log(1/alpha), v_r.
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    return math.log(mean), a, b, log_inv_alpha, v_r


def _poisson_ptrs(rng: np.random.Generator, mean: float, n: int) -> np.ndarray:
    # Transformed rejection with squeeze; valid for mean >= 10.
    log_mean, a, b, log_inv_alpha, v_r = _ptrs_constants(mean)
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
            with np.errstate(divide="ignore"):
                # v == 0 gives lhs = -inf, which accepts
                lhs = np.log(v[undecided]) + log_inv_alpha - np.log(a / (us[undecided] ** 2) + b)
            rhs = -mean + ku * log_mean - lgam
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
    log_mean, a, b, log_inv_alpha, v_r = _ptrs_constants(mean)
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
        lhs = float(np.log(v)) + log_inv_alpha - float(np.log(a / (us * us) + b))
        if lhs <= -mean + k * log_mean - math.lgamma(k + 1.0):
            return k


def _standard_normal(rng: np.random.Generator) -> float:
    # Box-Muller, pinned for the same reproducibility reason as the Poisson path.
    u1 = rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """The counts of one scan plan on a (repetition, chi) grid, plus the seed
    that produced them (None for scans imported from CSV, whose seed is not
    part of the schema).

    ``counts[r, c]`` is the exposure at ``plan.chi_values[c]`` in the row
    labelled ``repetitions[r]``. The grid is read-only: int64 for sampled
    data, float64 for noiseless scans, whose counts are the real-valued
    expected rates. ``repetitions`` defaults to 0..exposures-1; CSV imports
    keep the labels of the file.
    """

    plan: ScanPlan
    counts: np.ndarray
    seed: Optional[int] = None
    repetitions: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        counts = np.asarray(self.counts)
        counts = counts.astype(np.int64 if counts.dtype.kind in "iu" else np.float64)
        shape = (self.plan.exposures, len(self.plan.chi_values))
        if counts.shape != shape:
            raise DomainError(f"scan holds a {counts.shape} count grid, plan requires {shape}")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise DomainError("counts must be finite and non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        reps = tuple(range(shape[0]) if self.repetitions is None else self.repetitions)
        distinct = len(set(reps)) == len(reps) == shape[0]
        if not distinct or not all(isinstance(r, int) and r >= 0 for r in reps):
            raise DomainError(
                f"repetitions must be {shape[0]} distinct non-negative integers, got {reps!r}"
            )
        object.__setattr__(self, "repetitions", reps)


def sample_scan(model: ApparatusModel, plan: ScanPlan, seed: int, scan_index: int = 0) -> ScanResult:
    """Draw Poisson counts for every (chi, repetition) pair of one scan.

    ``scan_index`` distinguishes substreams when several scans share a master
    seed (see :func:`sample_full_experiment`). With ``model.drift_sigma`` > 0
    each repetition gets its own Gaussian fringe phase offset, drawn from a
    dedicated substream so count streams are unaffected.
    """
    check_seed(seed)
    counts = np.empty((plan.exposures, len(plan.chi_values)), dtype=np.int64)
    for rep in range(plan.exposures):
        drift = 0.0
        if model.drift_sigma > 0.0:
            drift_rng = substream(seed, _STREAM_DRIFT, scan_index, rep)
            drift = model.drift_sigma * _standard_normal(drift_rng)
        for ci, chi in enumerate(plan.chi_values):
            lam = predicted_rate(model, Setting(plan.alpha, chi + drift))
            rng = substream(seed, _STREAM_COUNTS, scan_index, ci, rep)
            counts[rep, ci] = poisson(rng, lam)
    return ScanResult(plan=plan, counts=counts, seed=seed)


def sample_full_experiment(
    model: ApparatusModel,
    alphas: Sequence[float],
    chi_values: Sequence[float],
    exposures: int,
    seed: int,
) -> list[ScanResult]:
    """One sampled scan per spin-analyzer angle, all from one master seed."""
    if len(alphas) == 0:
        raise DomainError("need at least one alpha")
    plans = [ScanPlan(alpha=a, chi_values=tuple(chi_values), exposures=exposures) for a in alphas]
    return [sample_scan(model, plan, seed, scan_index=i) for i, plan in enumerate(plans)]


def noiseless_scan(model: ApparatusModel, plan: ScanPlan) -> ScanResult:
    """Scan whose counts are the exact expected rates (no sampling)."""
    rates = [predicted_rate(model, Setting(plan.alpha, chi)) for chi in plan.chi_values]
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
    alpha = format_real(scan.plan.alpha)
    chis = [format_real(chi) for chi in scan.plan.chi_values]
    rows = (
        (alpha, chi, str(rep), format_count(n))
        for rep, line in zip(scan.repetitions, scan.counts.tolist())
        for chi, n in zip(chis, line)
    )
    Path(path).write_text(render_csv(CSV_HEADER, rows), encoding="ascii")


def read_scan_csv(path) -> ScanResult:
    """Parse a scan CSV, validating the header and field values, and that
    the rows give every (chi, repetition) cell of a single-alpha scan exactly
    once, in any order. Chi values keep the order of their first appearance;
    repetitions are sorted."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CsvFormatError(f"expected header {CSV_HEADER!r}", line_number=1)
    alpha = None
    cells: dict[tuple[float, int], float] = {}
    chi_order: dict[float, None] = {}
    for lineno, line in enumerate(lines[1:], start=2):
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
