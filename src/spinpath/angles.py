"""Small angle helpers shared across the package.

All angles are radians. The canonical interval is [0, 2*pi); comparisons are
circular so that values just below 2*pi match 0. The uniform chi grid lives
here too, with the one bound on a scan's size: :data:`MAX_SCAN_CELLS`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _shown, check_int, check_real

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-9
# The most cells (chi values x exposures) one scan may hold. tracemalloc puts
# sample_scan's peak near 200 bytes a cell (201 on a drifted 32 x 16 scan),
# so the largest scan samples in under 1 GiB (README, "Library use").
MAX_SCAN_CELLS = 2**22


def canonical_angle(value: float) -> float:
    """Map an angle onto [0, 2*pi). The angle is read by ``check_real``, so
    a bool, a string or a non-finite value is a :class:`DomainError`. Zero
    comes back as +0.0, also for -0.0 and -2*pi."""
    if type(value) is not float or not math.isfinite(value):
        value = check_real(value, "angle")  # a plain float, or the typed error
    out = math.fmod(value, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    elif out == 0.0:
        return 0.0  # fmod keeps the sign of a zero
    if out >= TWO_PI:  # fmod can land exactly on the boundary
        out -= TWO_PI
    return out


def circular_distance(a: float, b: float) -> float:
    """Shortest distance between two angles around the circle."""
    d = abs(canonical_angle(a) - canonical_angle(b))
    return min(d, TWO_PI - d)


def angles_close(a: float, b: float) -> bool:
    """Whether two angles lie within ANGLE_TOL of each other on the circle."""
    return circular_distance(a, b) <= ANGLE_TOL


def find_by_angle(entries, alpha: float):
    """Value of the first ``(angle, value)`` entry whose angle matches
    ``alpha`` (:func:`angles_close`), or None."""
    for angle, value in entries:
        if angles_close(angle, alpha):
            return value
    return None


def distinct_phase_count(values) -> int:
    """Number of distinct phases after reduction onto [0, 2*pi) and rounding
    to 9 decimal places, counted on the circle: a phase that rounds to 2*pi
    is phase 0. Values must be finite."""
    canon = [canonical_angle(v) for v in np.asarray(values, dtype=float).tolist()]
    rounded = np.round(canon, 9)
    return len(np.unique(np.where(rounded == np.round(TWO_PI, 9), 0.0, rounded)))


def check_scan_cells(points: int, exposures: int, names: str) -> None:
    """Refuse a scan of ``points`` chi values x ``exposures`` (two checked
    ints, named ``names``) of more than :data:`MAX_SCAN_CELLS` cells."""
    if points * exposures > MAX_SCAN_CELLS:
        raise DomainError(
            f"{names} must not exceed {MAX_SCAN_CELLS} scan cells, "
            f"got {_shown(points)} x {_shown(exposures)}"
        )


def uniform_chi_grid(points: int) -> tuple[float, ...]:
    """``points`` equally spaced phases covering [0, 2*pi), at most
    :data:`MAX_SCAN_CELLS` of them."""
    points = check_int(points, "grid size", 1, MAX_SCAN_CELLS)
    return tuple(2.0 * math.pi * k / points for k in range(points))
