"""Phenomenological model of the interferometer as actually operated.

The exact algebra in :mod:`spinpath.states` predicts unit-contrast fringes.
A real instrument shows reduced, analyzer-dependent contrast and a global
fringe phase offset (the spin-turning element shifts every interference
pattern by about pi). The count rate behind the joint analyzer is modeled as

    rate(alpha, chi) = mean_rate * (1 + V(alpha) * cos(alpha + chi + phase_offset))

with V(alpha) looked up per spin-analyzer angle. Defaults reproduce the
reference experiment this package regression-tests against: contrast 0.76 on
the alpha = 0 curve, 0.73 on the other three, offset exactly pi.

A :class:`ScanPlan` builds the :class:`~spinpath.states.Setting` of each of
its chi values once, on first use, and keeps them (``ScanPlan._settings``,
private): every undrifted sampling of the plan, at any contrast or seed,
reads the same tuple. Its pooled chi grid, read by every fit of a scan of
the plan, is kept the same way (``ScanPlan._chi_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angles import canonical_angle, check_scan_cells, find_by_angle
from .errors import DomainError, check_int, check_real, check_reals
from .report import format_real
from .states import Setting

# Ideal entangled-state CHSH sum and the contrast-limited value 2*sqrt(2)*V.
IDEAL_S = 2.0 * math.sqrt(2.0)

# Reference experiment values used as regression comparators by the
# reproduction pipeline (see cmd_reproduce). Contrasts per spin-analyzer
# angle, fringe offset, the analyzer settings (alpha1, alpha2, chi1, chi2)
# the correlations were read at, the four published correlation values, and
# the published CHSH sum.
REFERENCE_CONTRASTS = (
    (0.0, 0.76),
    (math.pi / 2.0, 0.73),
    (math.pi, 0.73),
    (3.0 * math.pi / 2.0, 0.73),
)
REFERENCE_PHASE_OFFSET = math.pi
REFERENCE_SETTINGS = (0.0, math.pi / 2.0, 0.79 * math.pi, 1.29 * math.pi)


class ReferenceExpectation(NamedTuple):
    alpha: float
    chi: float
    value: float
    sigma: float


REFERENCE_EXPECTATIONS = (
    ReferenceExpectation(0.0, 0.79 * math.pi, 0.542, 0.007),
    ReferenceExpectation(0.0, 1.29 * math.pi, 0.4882, 0.012),
    ReferenceExpectation(math.pi / 2.0, 0.79 * math.pi, -0.538, 0.006),
    ReferenceExpectation(math.pi / 2.0, 1.29 * math.pi, 0.438, 0.012),
)
REFERENCE_S = 2.051
REFERENCE_S_SIGMA = 0.019
CONTRAST_LIMITED_S = IDEAL_S * 0.73

# Default counts per scan point. Calibrated, not measured: together with the
# default 32-point grid and 16 repetitions it puts the statistical error of a
# fully averaged correlation near 0.006 so the reproduced CHSH sum carries a
# sigma of roughly 0.012, comparable to the reference result.
DEFAULT_MEAN_RATE = 40.0


@dataclass(frozen=True)
class ApparatusModel:
    """Instrument parameters: mean rate, per-angle contrast, fringe offset.

    ``visibility_map`` holds (alpha, contrast) pairs; lookups match alpha
    within 1e-9 after reduction mod 2*pi and fall back to
    ``default_visibility``; two pairs whose angles match that way are a
    :class:`DomainError`. ``drift_sigma`` is the standard deviation of an
    optional per-repetition random fringe phase offset (radians, 0 = stable
    instrument) applied by the count sampler.
    """

    mean_rate: float
    visibility_map: tuple[tuple[float, float], ...] = ()
    default_visibility: float = 0.73
    phase_offset: float = 0.0
    drift_sigma: float = 0.0

    def __post_init__(self):
        mean_rate = check_real(self.mean_rate, "mean_rate")
        if not mean_rate > 0.0:
            raise DomainError(f"mean_rate must be positive, got {mean_rate!r}")
        object.__setattr__(self, "mean_rate", mean_rate)
        try:
            pairs = [(alpha, v) for alpha, v in self.visibility_map]
        except (TypeError, ValueError):
            raise DomainError("visibility_map must hold (angle, contrast) pairs") from None
        entries = []
        for alpha, v in pairs:
            alpha = canonical_angle(check_real(alpha, "visibility_map angle"))
            if find_by_angle(entries, alpha) is not None:
                raise DomainError(f"visibility_map gives two contrasts at {format_real(alpha)} rad")
            entries.append((alpha, check_real(v, "contrast", 0.0, 1.0)))
        object.__setattr__(self, "visibility_map", tuple(entries))
        default = check_real(self.default_visibility, "default_visibility", 0.0, 1.0)
        object.__setattr__(self, "default_visibility", default)
        phase_offset = canonical_angle(check_real(self.phase_offset, "phase_offset"))
        object.__setattr__(self, "phase_offset", phase_offset)
        object.__setattr__(self, "drift_sigma", check_real(self.drift_sigma, "drift_sigma", 0.0))

    def visibility(self, alpha: float) -> float:
        """Contrast of the fringe scanned at spin-analyzer angle ``alpha``."""
        v = find_by_angle(self.visibility_map, alpha)
        return self.default_visibility if v is None else v


@dataclass(frozen=True)
class ScanPlan:
    """One phase scan: fixed spin angle, chi sample points, repeat count."""

    alpha: float
    chi_values: tuple[float, ...]
    exposures: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", canonical_angle(self.alpha))
        chis = check_reals(self.chi_values, "chi values")
        if not chis:
            raise DomainError("scan plan needs at least one chi value")
        object.__setattr__(self, "chi_values", chis)
        object.__setattr__(self, "exposures", check_int(self.exposures, "exposures", 1))
        check_scan_cells(len(chis), self.exposures, "chi values x exposures")

    @cached_property
    def _settings(self) -> tuple[Setting, ...]:
        # Setting(alpha, chi) of each chi value, built on first use and kept
        # with the plan (outside its fields, so not in == or hash): a sweep
        # that samples one plan at many contrasts builds them once.
        return tuple(Setting(self.alpha, chi) for chi in self.chi_values)

    @cached_property
    def _chi_grid(self) -> np.ndarray:
        # The chi value of every count, exposure by exposure, as the
        # read-only float64 array a pooled fit reads: built once per plan.
        grid = np.tile(self.chi_values, self.exposures)
        grid.setflags(write=False)
        return grid


def predicted_rate(model: ApparatusModel, setting: Setting) -> float:
    """Expected counts per point at the given joint setting. Non-negative for
    any contrast in [0, 1]."""
    v = model.visibility(setting.alpha)
    phase = setting.alpha + setting.chi + model.phase_offset
    return model.mean_rate * (1.0 + v * math.cos(phase))


def reference_apparatus(mean_rate: float = DEFAULT_MEAN_RATE) -> ApparatusModel:
    """Model of the reference instrument: contrast 0.76 at alpha = 0, 0.73 at
    the other analyzer angles, fringe offset pi, stable phase."""
    return ApparatusModel(
        mean_rate=mean_rate,
        visibility_map=REFERENCE_CONTRASTS,
        default_visibility=0.73,
        phase_offset=REFERENCE_PHASE_OFFSET,
    )
