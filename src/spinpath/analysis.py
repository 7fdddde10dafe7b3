"""Data reduction for phase scans: sinusoid fits, correlation estimates,
inverse-variance averaging, and the CHSH-style sum with propagated errors.

The fit model is ``counts = A * (1 + V * cos(chi + phi))``, linear in the
reparametrization (c0, c1, c2) = (A, A*V*cos(phi), -A*V*sin(phi)) against the
basis (1, cos(chi), sin(chi)) at fixed unit frequency. Weighted least squares
runs twice: the first pass weights by 1/max(counts, 1) (plain Poisson weights,
safe on empty bins), the second reweights by the first-pass fitted rates,
which removes the small count-correlated bias of raw Poisson weights at low
rates. The quoted chi-square keeps the plain Poisson weights.

Correlations come from four count channels as

    E = (n_pp + n_mm - n_pm - n_mp) / (n_pp + n_mm + n_pm + n_mp)

where the mixed channels are the same fringe read half a period away: the
(-,-), (+,-) and (-,+) channels at (alpha, chi) equal the (+,+) channel at
(alpha+pi, chi+pi), (alpha, chi+pi) and (alpha+pi, chi). ``e_obs_from_fits``
evaluates the fitted curves of the alpha and alpha+pi scans at chi and
chi+pi accordingly, so one pair of scans yields E at any chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .angles import angles_close, canonical_angle, distinct_phase_count
from .errors import DomainError, InsufficientDataError, SingularFitError
from .montecarlo import ScanResult, poisson, substream
from .report import format_real
from .states import Setting

_COND_LIMIT = 1e10

# Indices of the CHSH term that can carry the minus sign.
NEGATED_TERMS = (0, 1, 2, 3)


@dataclass(frozen=True)
class FitResult:
    """Fitted sinusoid A*(1 + V*cos(chi + phi)) for one scan.

    ``covariance`` is the 3x3 matrix of (A, V, phi). ``coeffs`` and
    ``coeff_covariance`` expose the linear parametrization (c0, c1, c2) that
    downstream curve evaluation uses; predictions linear in them stay
    unbiased. Noise can push V slightly above 1; it is reported as fitted.
    """

    amplitude: float
    visibility: float
    phase: float
    covariance: np.ndarray
    chi_square: float
    dof: int
    coeffs: np.ndarray
    coeff_covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        ccov = np.asarray(self.coeff_covariance, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if cov.shape != (3, 3) or ccov.shape != (3, 3) or coeffs.shape != (3,):
            raise DomainError("fit result matrices must be 3x3 with 3 coefficients")
        if self.dof < 1:
            raise DomainError(f"fit needs at least one degree of freedom, got {self.dof}")
        for arr in (cov, ccov, coeffs):
            arr.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "coeff_covariance", ccov)
        object.__setattr__(self, "coeffs", coeffs)

    def rate_at(self, chi: float) -> float:
        """Fitted count rate at phase ``chi``."""
        c0, c1, c2 = self.coeffs
        return float(c0 + c1 * math.cos(chi) + c2 * math.sin(chi))

    def reduced_chi_square(self) -> float:
        return self.chi_square / self.dof

    def to_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "visibility": self.visibility,
            "phase_rad": self.phase,
            "covariance_av_phi": [list(row) for row in self.covariance.tolist()],
            "chi_square": self.chi_square,
            "dof": self.dof,
            "reduced_chi_square": self.reduced_chi_square(),
            "coeffs": list(self.coeffs.tolist()),
            "coeff_covariance": [list(row) for row in self.coeff_covariance.tolist()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FitResult":
        return cls(
            amplitude=float(data["amplitude"]),
            visibility=float(data["visibility"]),
            phase=float(data["phase_rad"]),
            covariance=np.array(data["covariance_av_phi"], dtype=float),
            chi_square=float(data["chi_square"]),
            dof=int(data["dof"]),
            coeffs=np.array(data["coeffs"], dtype=float),
            coeff_covariance=np.array(data["coeff_covariance"], dtype=float),
        )


@dataclass(frozen=True)
class ExpectationEstimate:
    """A correlation value with its standard error.

    ``setting`` is optional because raw four-channel input does not identify
    the analyzer angles. ``clamped`` flags the (numerical) case where the
    propagated variance came out negative and was clamped to zero.
    """

    value: float
    sigma: float
    setting: Optional[Setting] = None
    clamped: bool = False

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"estimate value must be finite, got {format_real(self.value)}")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise DomainError(f"estimate sigma must be non-negative, got {format_real(self.sigma)}")


@dataclass(frozen=True)
class ChshResult:
    """CHSH-style sum of four correlations with propagated uncertainty.

    ``terms`` keeps the operand order (e11, e12, e21, e22);
    ``sign_convention`` is the index of the negated term.
    """

    s_value: float
    sigma: float
    terms: tuple[ExpectationEstimate, ...]
    sign_convention: int
    violated: bool

    def significance(self) -> float:
        """How many sigma |S| sits above the classical bound 2 (negative if
        below; infinite for an exact noiseless violation)."""
        excess = abs(self.s_value) - 2.0
        if self.sigma == 0.0:
            return math.inf if excess > 0 else -math.inf
        return excess / self.sigma


def _weighted_solve(design: np.ndarray, y: np.ndarray, weights: np.ndarray):
    wx = design * weights[:, None]
    m = design.T @ wx
    if not np.all(np.isfinite(m)) or np.linalg.cond(m) > _COND_LIMIT:
        raise SingularFitError(
            "degenerate phase coverage (all chi equal modulo pi leaves the "
            "cosine and sine columns collinear)"
        )
    b = wx.T @ y
    coeffs = np.linalg.solve(m, b)
    cov = np.linalg.inv(m)
    return coeffs, cov


def fit_rate_curve(chi: Sequence[float], counts: Sequence[float]) -> FitResult:
    """Weighted least-squares sinusoid fit on raw arrays. See module docstring
    for the two-pass weighting scheme."""
    chi = np.asarray(chi, dtype=float)
    y = np.asarray(counts, dtype=float)
    if chi.shape != y.shape or chi.ndim != 1:
        raise DomainError("chi and counts must be 1-d arrays of equal length")
    if y.size == 0:
        raise InsufficientDataError("empty scan")
    if np.any(y < 0) or not np.all(np.isfinite(y)) or not np.all(np.isfinite(chi)):
        raise DomainError("counts must be finite and non-negative, chi finite")
    distinct = distinct_phase_count(chi)
    if distinct < 4:
        raise InsufficientDataError(f"need at least 4 distinct chi values, got {distinct}")

    design = np.column_stack([np.ones_like(chi), np.cos(chi), np.sin(chi)])
    w_poisson = 1.0 / np.maximum(y, 1.0)
    coeffs1, _ = _weighted_solve(design, y, w_poisson)
    fitted1 = design @ coeffs1
    w_model = 1.0 / np.maximum(fitted1, 1.0)
    coeffs, cov_lin = _weighted_solve(design, y, w_model)

    c0, c1, c2 = coeffs
    if c0 <= 0.0:
        raise SingularFitError(f"fitted mean rate is not positive ({format_real(c0)})")
    fitted = design @ coeffs
    chi_square = float(np.sum(w_poisson * (y - fitted) ** 2))
    dof = y.size - 3
    if dof < 1:
        raise InsufficientDataError("need more points than parameters")

    r = math.hypot(c1, c2)
    visibility = r / c0
    phase = math.atan2(-c2, c1) if r > 0.0 else 0.0
    # Delta-method transform of the linear covariance to (A, V, phi).
    rr = max(r, 1e-300)
    jac = np.array(
        [
            [1.0, 0.0, 0.0],
            [-r / c0**2, c1 / (c0 * rr), c2 / (c0 * rr)],
            [0.0, c2 / rr**2, -c1 / rr**2],
        ]
    )
    cov_avp = jac @ cov_lin @ jac.T
    cov_avp = 0.5 * (cov_avp + cov_avp.T)

    return FitResult(
        amplitude=float(c0),
        visibility=float(visibility),
        phase=canonical_angle(phase),
        covariance=cov_avp,
        chi_square=chi_square,
        dof=int(dof),
        coeffs=np.array(coeffs, dtype=float),
        coeff_covariance=np.array(cov_lin, dtype=float),
    )


def fit_sinusoid(scan: ScanResult) -> FitResult:
    """Fit one scan's count grid (all repetitions pooled)."""
    return fit_rate_curve(np.tile(scan.plan.chi_values, scan.plan.exposures), scan.counts.ravel())


def e_obs_from_counts(
    n_pp: float,
    n_mm: float,
    n_pm: float,
    n_mp: float,
    *,
    setting: Optional[Setting] = None,
) -> ExpectationEstimate:
    """Correlation from the four outcome channels with Poisson delta-method
    error: Var(E) = ((1-E)^2 (n_pp+n_mm) + (1+E)^2 (n_pm+n_mp)) / total^2."""
    channels = (n_pp, n_mm, n_pm, n_mp)
    for c in channels:
        if not math.isfinite(c) or c < 0.0:
            raise DomainError(
                f"channel counts must be finite and non-negative, got {format_real(c)}"
            )
    total = float(sum(channels))
    if total <= 0.0:
        raise DomainError("all four channels are zero; correlation undefined")
    value = (n_pp + n_mm - n_pm - n_mp) / total
    var = ((1.0 - value) ** 2 * (n_pp + n_mm) + (1.0 + value) ** 2 * (n_pm + n_mp)) / total**2
    return ExpectationEstimate(value=value, sigma=math.sqrt(max(var, 0.0)), setting=setting)


def e_obs_bootstrap_sigma(
    n_pp: float,
    n_mm: float,
    n_pm: float,
    n_mp: float,
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Parametric bootstrap cross-check of the delta-method sigma: resample
    the four channels as Poisson variates around the observed counts."""
    if resamples < 2:
        raise DomainError("need at least 2 resamples")
    rng = substream(seed, 0)
    draws = np.column_stack([poisson(rng, c, size=resamples) for c in (n_pp, n_mm, n_pm, n_mp)])
    totals = draws.sum(axis=1)
    ok = totals > 0
    values = (draws[ok, 0] + draws[ok, 1] - draws[ok, 2] - draws[ok, 3]) / totals[ok]
    if values.size < 2:
        raise DomainError("bootstrap produced no usable resamples")
    return float(np.std(values, ddof=1))


def e_obs_from_fits(
    fit_a: FitResult,
    fit_a_pi: FitResult,
    chi: float,
    *,
    setting: Optional[Setting] = None,
) -> ExpectationEstimate:
    """Correlation at phase ``chi`` from the fitted curves of the scan at
    alpha (``fit_a``) and at alpha+pi (``fit_a_pi``).

    The four channels are the two curves read at chi and chi+pi. Errors
    propagate from both 3x3 linear-coefficient covariances; the two fits are
    treated as independent.
    """
    x = np.array([1.0, math.cos(chi), math.sin(chi)])
    xp = np.array([1.0, -x[1], -x[2]])  # chi + pi
    ca = fit_a.coeffs
    cb = fit_a_pi.coeffs
    n_pp = float(ca @ x)
    n_pm = float(ca @ xp)
    n_mm = float(cb @ xp)
    n_mp = float(cb @ x)
    total = n_pp + n_mm + n_pm + n_mp
    if total <= 0.0:
        raise DomainError("fitted curves sum to a non-positive total rate")
    value = (n_pp + n_mm - n_pm - n_mp) / total

    dx = x - xp
    sx = x + xp
    ga = (dx - value * sx) / total
    gb = (-dx - value * sx) / total
    var = float(ga @ fit_a.coeff_covariance @ ga + gb @ fit_a_pi.coeff_covariance @ gb)
    clamped = var < 0.0
    return ExpectationEstimate(
        value=value,
        sigma=math.sqrt(max(var, 0.0)),
        setting=setting,
        clamped=clamped,
    )


def _settings_consistent(estimates: Sequence[ExpectationEstimate]) -> bool:
    first = estimates[0].setting
    for est in estimates[1:]:
        other = est.setting
        if (first is None) != (other is None):
            return False
        if first is not None and not (
            angles_close(first.alpha, other.alpha) and angles_close(first.chi, other.chi)
        ):
            return False
    return True


def weighted_average(estimates: Sequence[ExpectationEstimate]) -> ExpectationEstimate:
    """Inverse-variance weighted mean; combined sigma is (sum 1/sigma_i^2)^-1/2.

    All estimates must refer to the same setting (within 1e-9 circularly) and
    carry positive sigma. A single estimate is returned unchanged.
    """
    estimates = list(estimates)
    if not estimates:
        raise DomainError("nothing to average")
    if not _settings_consistent(estimates):
        raise DomainError("estimates refer to different settings")
    if len(estimates) == 1:
        return estimates[0]
    for est in estimates:
        if est.sigma <= 0.0:
            raise DomainError("weighted average needs positive sigmas")
    weights = np.array([1.0 / est.sigma**2 for est in estimates])
    values = np.array([est.value for est in estimates])
    total = float(weights.sum())
    return ExpectationEstimate(
        value=float(weights @ values / total),
        sigma=1.0 / math.sqrt(total),
        setting=estimates[0].setting,
        clamped=any(est.clamped for est in estimates),
    )


def check_negated_term(negated_term: int) -> int:
    """The negated CHSH term index, if it is one of :data:`NEGATED_TERMS`."""
    if negated_term not in NEGATED_TERMS:
        raise DomainError(f"negated term index must be 0..3, got {negated_term!r}")
    return negated_term


def term_signs(negated_term: int) -> tuple[int, int, int, int]:
    """Signs of the four CHSH terms for a given negated-term index."""
    signs = [1, 1, 1, 1]
    signs[check_negated_term(negated_term)] = -1
    return tuple(signs)


def chsh_sum(values: Sequence[float], negated_term: int = 1) -> float:
    """Plain CHSH combination of four correlation values."""
    if len(values) != 4:
        raise DomainError(f"CHSH needs exactly 4 values, got {len(values)}")
    signs = term_signs(negated_term)
    return float(sum(s * v for s, v in zip(signs, values)))


def s_prime(
    e11: ExpectationEstimate,
    e12: ExpectationEstimate,
    e21: ExpectationEstimate,
    e22: ExpectationEstimate,
    negated_term: int = 1,
) -> ChshResult:
    """CHSH sum of four correlation estimates.

    The default sign convention negates the (alpha1, chi2) term, index 1.
    Any single term may carry the minus sign instead; all four conventions
    admit the same maximal violation at suitably shifted settings.
    """
    terms = (e11, e12, e21, e22)
    s = chsh_sum([t.value for t in terms], negated_term)
    sigma = math.sqrt(sum(t.sigma**2 for t in terms))
    return ChshResult(
        s_value=s,
        sigma=sigma,
        terms=terms,
        sign_convention=negated_term,
        violated=abs(s) > 2.0,
    )


def max_violation_settings() -> tuple[float, float, float, float]:
    """(alpha1, alpha2, chi1, chi2) of the maximal ideal violation 2*sqrt(2)
    under the default sign convention: (pi/2, 0, -pi/4, pi/4)."""
    return (math.pi / 2.0, 0.0, -math.pi / 4.0, math.pi / 4.0)


def visibility_threshold() -> float:
    """Contrast above which the contrast-limited CHSH sum exceeds 2."""
    return math.sqrt(2.0) / 2.0


def s_of_visibility(visibility: float) -> float:
    """Contrast-limited CHSH maximum 2*sqrt(2)*V for uniform contrast V."""
    v = float(visibility)
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        raise DomainError(f"visibility must lie in [0, 1], got {format_real(v)}")
    return 2.0 * math.sqrt(2.0) * v
