"""Phenomenological model of the interferometer as actually operated.

The exact algebra in :mod:`spinpath.states` predicts unit-contrast fringes.
A real instrument shows reduced, analyzer-dependent contrast and a global
fringe phase offset (the spin-turning element shifts every interference
pattern by about pi). The count rate behind the joint analyzer is modeled as

    rate(alpha, chi) = mean_rate * (1 + V(alpha) * cos(alpha + chi + phase_offset))

with V(alpha) looked up per spin-analyzer angle. Defaults reproduce the
reference experiment this package regression-tests against: contrast 0.76 on
the alpha = 0 curve, 0.73 on the other three, offset exactly pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .angles import canonical_angle, find_by_angle
from .errors import DomainError
from .report import format_real
from .states import Setting

# Ideal entangled-state CHSH sum and the contrast-limited value 2*sqrt(2)*V.
IDEAL_S = 2.0 * math.sqrt(2.0)

# Reference experiment values used as regression comparators by the
# reproduction pipeline (see cmd_reproduce). Contrasts per spin-analyzer
# angle, fringe offset, the chi positions the correlations were read at,
# the four published correlation values, and the published CHSH sum.
REFERENCE_CONTRASTS = (
    (0.0, 0.76),
    (math.pi / 2.0, 0.73),
    (math.pi, 0.73),
    (3.0 * math.pi / 2.0, 0.73),
)
REFERENCE_PHASE_OFFSET = math.pi
REFERENCE_CHI_POSITIONS = (0.79 * math.pi, 1.29 * math.pi)
REFERENCE_ALPHAS = (0.0, math.pi / 2.0)


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

# Instrument-check contrasts: plain single-degree-of-freedom scans of the
# same instrument resolve at least these visibilities.
REFERENCE_PATH_CONTRAST = 0.91
REFERENCE_SPIN_CONTRAST = 0.95

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
    ``default_visibility``. ``drift_sigma`` is the standard deviation of an
    optional per-repetition random fringe phase offset (radians, 0 = stable
    instrument) applied by the count sampler.
    """

    mean_rate: float
    visibility_map: tuple[tuple[float, float], ...] = ()
    default_visibility: float = 0.73
    phase_offset: float = 0.0
    drift_sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mean_rate) and self.mean_rate > 0.0):
            raise DomainError(
                f"mean_rate must be positive and finite, got {format_real(self.mean_rate)}"
            )
        entries = []
        for pair in self.visibility_map:
            alpha, v = pair
            alpha = canonical_angle(alpha)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise DomainError(f"contrast must lie in [0, 1], got {format_real(v)}")
            entries.append((alpha, float(v)))
        object.__setattr__(self, "visibility_map", tuple(entries))
        if not (math.isfinite(self.default_visibility) and 0.0 <= self.default_visibility <= 1.0):
            raise DomainError(
                "default_visibility must lie in [0, 1], "
                f"got {format_real(self.default_visibility)}"
            )
        object.__setattr__(self, "phase_offset", canonical_angle(self.phase_offset))
        if not (math.isfinite(self.drift_sigma) and self.drift_sigma >= 0.0):
            raise DomainError(
                f"drift_sigma must be non-negative, got {format_real(self.drift_sigma)}"
            )

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
        chis = tuple(float(c) for c in self.chi_values)
        if not chis:
            raise DomainError("scan plan needs at least one chi value")
        for c in chis:
            if not math.isfinite(c):
                raise DomainError(f"chi values must be finite, got {format_real(c)}")
        object.__setattr__(self, "chi_values", chis)
        if not isinstance(self.exposures, int) or self.exposures < 1:
            raise DomainError(f"exposures must be a positive integer, got {self.exposures!r}")


def predicted_rate(model: ApparatusModel, setting: Setting) -> float:
    """Expected counts per point at the given joint setting. Non-negative for
    any contrast in [0, 1]."""
    v = model.visibility(setting.alpha)
    phase = setting.alpha + setting.chi + model.phase_offset
    return model.mean_rate * (1.0 + v * math.cos(phase))


def ideal_expectation(model: ApparatusModel, setting: Setting) -> float:
    """Noiseless correlation the fitted pipeline recovers from a single
    contrast: V(alpha) * cos(alpha + chi + phase_offset)."""
    v = model.visibility(setting.alpha)
    return v * math.cos(setting.alpha + setting.chi + model.phase_offset)


def reference_apparatus(mean_rate: float = DEFAULT_MEAN_RATE) -> ApparatusModel:
    """Model of the reference instrument: contrast 0.76 at alpha = 0, 0.73 at
    the other analyzer angles, fringe offset pi, stable phase."""
    return ApparatusModel(
        mean_rate=mean_rate,
        visibility_map=REFERENCE_CONTRASTS,
        default_visibility=0.73,
        phase_offset=REFERENCE_PHASE_OFFSET,
    )
