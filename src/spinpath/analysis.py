"""Data reduction for phase scans: sinusoid fits, correlation estimates,
inverse-variance averaging, and the CHSH-style sum with propagated errors.

The fit model is ``counts = A * (1 + V * cos(chi + phi))``, linear in the
reparametrization (c0, c1, c2) = (A, A*V*cos(phi), -A*V*sin(phi)) against the
basis (1, cos(chi), sin(chi)) at fixed unit frequency. Weighted least squares
runs twice: the first pass weights by 1/max(counts, 1) (plain Poisson weights,
safe on empty bins), the second reweights by the first-pass fitted rates,
which removes the small count-correlated bias of raw Poisson weights at low
rates. The quoted chi-square keeps the plain Poisson weights. What a fit needs
of the chi grid alone is cached per grid; a pass skips its SVD condition check
when the bound cond(X'X) * max(w) / min(w) on cond(X'WX) is at most 1e8.
Each solve and the inverse call the LAPACK gufuncs behind ``np.linalg.solve``
and ``np.linalg.inv`` directly (``numpy.linalg._umath_linalg``, private numpy
API, measured on numpy 2.4.6): the same routines on the same operands,
without the wrappers' per-call conversions and error state. The condition
check before them keeps a singular matrix out.

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
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .angles import angles_close, canonical_angle, distinct_phase_count
from .errors import DomainError, InsufficientDataError, SingularFitError
from .errors import check_array, check_int, check_real
from .montecarlo import ScanResult
from .report import format_real
from .states import Setting

_COND_LIMIT = 1e10
_COND_CERTIFIED = 1e8  # a condition bound this low passes without an SVD
MIN_PHASES = 4  # distinct chi values: three coefficients and one degree of freedom
_FIT_OVERFLOW = "counts too large: the fit's chi-square or phase covariance overflows a float"


@dataclass(frozen=True)
class FitResult:
    """Fitted sinusoid A*(1 + V*cos(chi + phi)) for one scan.

    ``covariance`` is the 3x3 matrix of (A, V, phi). ``coeffs`` and
    ``coeff_covariance`` expose the linear parametrization (c0, c1, c2) that
    downstream curve evaluation uses; predictions linear in them stay
    unbiased. Noise can push V slightly above 1; it is reported as fitted.

    The three array fields are read-only. A writeable array passed in is
    copied, so the caller's array stays writeable and its later changes do
    not reach the fit; a read-only array is kept as given, so a read-only
    view of a writeable array still shows that array's later changes.
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
        cov = _read_only(self.covariance)
        ccov = _read_only(self.coeff_covariance)
        coeffs = _read_only(self.coeffs)
        if cov.shape != (3, 3) or ccov.shape != (3, 3) or coeffs.shape != (3,):
            raise DomainError("fit result matrices must be 3x3 with 3 coefficients")
        object.__setattr__(self, "dof", check_int(self.dof, "dof", 1))
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
        """Rebuild a fit from a :meth:`to_dict` entry read back from JSON.
        Every number goes through :func:`check_real`, so a string, a boolean
        or a non-finite value raises :class:`DomainError`, as does a ``dof``
        that is not an integer of at least 1."""
        return cls(
            amplitude=check_real(data["amplitude"], "amplitude"),
            visibility=check_real(data["visibility"], "visibility"),
            phase=check_real(data["phase_rad"], "phase_rad"),
            covariance=_array_from_json(data["covariance_av_phi"], "covariance_av_phi"),
            chi_square=check_real(data["chi_square"], "chi_square"),
            dof=data["dof"],
            coeffs=_array_from_json(data["coeffs"], "coeffs"),
            coeff_covariance=_array_from_json(data["coeff_covariance"], "coeff_covariance"),
        )


def _read_only(values) -> np.ndarray:
    # A fit result's matrix as a read-only float array. A writeable array is
    # copied first, so the caller's own array stays writeable and a later
    # change to it does not reach the fit; a read-only one is kept as given.
    array = check_array(values, "fit result matrices must hold real numbers")
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


def _array_from_json(value, name: str) -> np.ndarray:
    # Nested JSON lists of numbers as a read-only float array, which
    # FitResult keeps without a copy; each entry goes through check_real,
    # since np.array(..., dtype=float) takes strings and NaN.
    entries = np.array(value, dtype=object)
    array = np.array([check_real(x, name) for x in entries.flat]).reshape(entries.shape)
    array.setflags(write=False)
    return array


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
        object.__setattr__(self, "value", check_real(self.value, "estimate value"))
        object.__setattr__(self, "sigma", check_real(self.sigma, "estimate sigma", 0.0))


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


def _weighted_solve(design: np.ndarray, grid_cond: float, y: np.ndarray, weights: np.ndarray):
    # One weighted normal-equation solve per row of ``y``; returns the
    # coefficient rows and the normal matrices.
    wx = design * weights[:, :, None]
    m = design.T @ wx
    ok = np.isfinite(m).all()
    # For positive weights cond(X'WX) <= cond(X'X) * max(w) / min(w). A bound
    # 100 times below the limit passes without the SVD; a NaN bound does not.
    low = float(weights.min()) if weights.size else 0.0
    if ok and not (low > 0.0 and grid_cond * float(weights.max()) / low <= _COND_CERTIFIED):
        # The 2-norm condition number as np.linalg.cond takes it; a zero
        # singular value gives inf or nan, and both fail.
        with np.errstate(all="ignore"):
            s = np.linalg.svd(m, compute_uv=False)
            ok = (s[:, 0] / s[:, -1] <= _COND_LIMIT).all()
    if not ok:
        raise SingularFitError(
            "degenerate phase coverage (all chi equal modulo pi leaves the "
            "cosine and sine columns collinear)"
        )
    b = wx.transpose(0, 2, 1) @ y[:, :, None]
    return _umath_linalg.solve(m, b, signature="dd->d")[:, :, 0], m


@lru_cache(maxsize=16)
def _grid(chi_bytes: bytes) -> tuple[bool, int, Optional[np.ndarray], float]:
    # A float64 chi grid's finiteness, distinct phase count, read-only design
    # (1, cos chi, sin chi) and cond(X'X), once per grid: a threshold sweep fits one 44 times.
    chi = np.frombuffer(chi_bytes).copy()
    if not np.isfinite(chi).all():
        return False, 0, None, math.nan
    design = np.column_stack([np.ones_like(chi), np.cos(chi), np.sin(chi)])
    design.setflags(write=False)
    return True, distinct_phase_count(chi), design, float(np.linalg.cond(design.T @ design))


def check_phase_count(count: int) -> None:
    """Refuse a chi grid of fewer distinct phases than a sinusoid fit takes."""
    if count < MIN_PHASES:
        raise InsufficientDataError(f"need at least {MIN_PHASES} distinct chi values, got {count}")


def _solve_rows(chi: np.ndarray, y: np.ndarray):
    # The two-pass fit of every row of ``y``, all rows at once: coefficient
    # rows as lists, their radii hypot(c1, c2), the rows as an array, their
    # covariances of (c0, c1, c2) and of (A, V, phi), and the chi-squares.
    # Raises on the first failed check, whichever row fails it.
    if y.shape[1] == 0:
        raise InsufficientDataError("empty scan")
    finite, distinct, design, grid_cond = _grid(chi.tobytes())
    if (y < 0).any() or not np.isfinite(y).all() or not finite:
        raise DomainError("counts must be finite and non-negative, chi finite")
    check_phase_count(distinct)

    w_poisson = 1.0 / np.maximum(y, 1.0)
    with np.errstate(all="ignore"):  # an overflow is refused below
        coeffs1, _ = _weighted_solve(design, grid_cond, y, w_poisson)
        w_model = 1.0 / np.maximum((design @ coeffs1[:, :, None])[:, :, 0], 1.0)
        coeffs, m = _weighted_solve(design, grid_cond, y, w_model)
        not_positive = coeffs[:, 0] <= 0.0
        # Coefficients that are not finite (counts near the float range) are
        # left to the chi-square check, which they fail as an overflow.
        if not_positive.any() and np.isfinite(coeffs).all():
            c0 = coeffs[not_positive.argmax(), 0]
            raise SingularFitError(f"fitted mean rate is not positive ({format_real(c0)})")
        cov_lin = _umath_linalg.inv(m, signature="d->d")
        # The per-row scalars stay in Python math: numpy's hypot and arctan2
        # can differ from it in the last ulp.
        rows = coeffs.tolist()
        radii = [math.hypot(c1, c2) for _, c1, c2 in rows]
        fitted = (design @ coeffs[:, :, None])[:, :, 0]
        chi_square = (w_poisson * (y - fitted) ** 2).sum(axis=1)
        try:  # a Python float's square beyond the float range raises
            jac = np.array([_jacobian(*row, r) for row, r in zip(coeffs, radii)]).reshape(-1, 3, 3)
        except OverflowError:
            raise DomainError(_FIT_OVERFLOW) from None
        cov_avp = jac @ cov_lin @ jac.transpose(0, 2, 1)
        cov_avp = 0.5 * (cov_avp + cov_avp.transpose(0, 2, 1))
    if not np.isfinite(cov_avp).all() and np.isfinite(coeffs).all():
        # r == 0, or an r or c0 so small that the Jacobian overflows
        raise SingularFitError("fitted modulation is zero or vanishing: the phase is undefined")
    if not np.isfinite(chi_square).all():
        raise DomainError(_FIT_OVERFLOW)
    return rows, radii, coeffs, cov_lin, cov_avp, chi_square


def _jacobian(c0, c1, c2, r: float) -> list:
    # The delta method's d(A, V, phi) / d(c0, c1, c2), row by row. A numpy
    # scalar's power that underflows to 0 or overflows gives inf or nan; the
    # square of ``rr``, a Python float, raises OverflowError.
    rr = max(r, 1e-300)
    return [1.0, 0.0, 0.0, -r / c0**2, c1 / (c0 * rr), c2 / (c0 * rr), 0.0, c2 / rr**2, -c1 / rr**2]


def _real_arrays(chi, counts) -> tuple[np.ndarray, np.ndarray]:
    message = "chi and counts must be arrays of real numbers"
    return check_array(chi, message), check_array(counts, message)


def fit_rate_curves(chi: Sequence[float], counts) -> list[FitResult]:
    """Sinusoid fits of every row of a ``(k, n)`` count grid against one
    shared grid of ``n`` phases, one :class:`FitResult` per row.

    Each row gets the two-pass weighted fit of :func:`fit_rate_curve`, bit
    for bit: the rows run stacked, through one matrix product, condition
    check and solve per pass, one inverse and one covariance transform. If
    any row fails, the rows are fitted one at a time in order, so the error
    raised is the one the first failing row raises on its own. A row whose
    fitted modulation is zero or vanishing, so that its phase covariance is
    not finite, raises :class:`SingularFitError`.
    """
    chi, y = _real_arrays(chi, counts)
    if chi.ndim != 1 or y.ndim != 2 or y.shape[1] != chi.size:
        raise DomainError("counts must be a 2-d grid with one column per chi value")
    try:
        rows, radii, coeffs, cov_lin, cov_avp, chi_square = _solve_rows(chi, y)
    except (DomainError, InsufficientDataError, SingularFitError):
        for row in y:
            _solve_rows(chi, row[None, :])
        raise
    dof = y.shape[1] - 3  # at least 4 distinct phases leave dof >= 1
    for array in (coeffs, cov_lin, cov_avp):
        array.setflags(write=False)
    return [
        FitResult(
            amplitude=c0,
            visibility=r / c0,
            phase=canonical_angle(math.atan2(-c2, c1) if r > 0.0 else 0.0),
            covariance=cov_avp_row,
            chi_square=chi_square_row,
            dof=dof,
            coeffs=c_row,
            coeff_covariance=cov_row,
        )
        for (c0, c1, c2), r, c_row, cov_row, cov_avp_row, chi_square_row in zip(
            rows, radii, coeffs, cov_lin, cov_avp, chi_square.tolist()
        )
    ]


def fit_rate_curve(chi: Sequence[float], counts: Sequence[float]) -> FitResult:
    """Weighted least-squares sinusoid fit on raw arrays. See module docstring
    for the two-pass weighting scheme."""
    chi, y = _real_arrays(chi, counts)
    if chi.shape != y.shape or chi.ndim != 1:
        raise DomainError("chi and counts must be 1-d arrays of equal length")
    return fit_rate_curves(chi, y[None, :])[0]


def fit_sinusoid(scan: ScanResult) -> FitResult:
    """Fit one scan's count grid (all repetitions pooled)."""
    return fit_rate_curve(scan.plan._chi_grid, scan.counts.ravel())


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
    value, sigma = _correlation(n_pp, n_mm, n_pm, n_mp)
    return ExpectationEstimate(value=value, sigma=sigma, setting=setting)


def _correlation(n_pp, n_mm, n_pm, n_mp) -> tuple[float, float]:
    """The (value, sigma) of :func:`e_obs_from_counts`, without the estimate
    object; a non-finite value or sigma is the :class:`DomainError` that
    :class:`ExpectationEstimate` raises for it."""
    return _counts_correlation(*[_channel_count(c) for c in (n_pp, n_mm, n_pm, n_mp)])


def _channel_count(count):
    # A count checked as a finite real of at least 0. Python ints and floats
    # are used as passed. numpy integers become Python ints, whose sums
    # cannot overflow, and numpy reals floats.
    check_real(count, "each channel count", 0.0)
    if isinstance(count, np.integer):
        return int(count)
    if isinstance(count, np.floating):
        return float(count)
    return count


def _counts_correlation(n_pp, n_mm, n_pm, n_mp) -> tuple[float, float]:
    # The arithmetic of _correlation on four counts that _channel_count
    # returns, or would return unchanged.
    channels = (n_pp, n_mm, n_pm, n_mp)
    try:  # an int sum beyond the float range, and a float power, raise
        total = float(sum(channels))
        total_squared = total**2
    except OverflowError:
        raise DomainError("channel counts too large: their variance overflows a float") from None
    if total <= 0.0:
        raise DomainError("all four channels are zero; correlation undefined")
    value = (n_pp + n_mm - n_pm - n_mp) / total
    var = ((1.0 - value) ** 2 * (n_pp + n_mm) + (1.0 + value) ** 2 * (n_pm + n_mp)) / total_squared
    sigma = math.sqrt(max(var, 0.0))
    return check_real(value, "estimate value"), check_real(sigma, "estimate sigma", 0.0)


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
    chi = check_real(chi, "chi")
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
        if other is first:
            continue
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
    """The index 0..3 of the CHSH term that carries the minus sign, as an int."""
    return check_int(negated_term, "negated term index", 0, 3)


def term_signs(negated_term: int) -> tuple[int, int, int, int]:
    """Signs of the four CHSH terms for a given negated-term index."""
    signs = [1, 1, 1, 1]
    signs[check_negated_term(negated_term)] = -1
    return tuple(signs)


def chsh_sum(values: Sequence[float], negated_term: int = 1) -> float:
    """Plain CHSH combination of four correlation values."""
    values = check_array(values, "CHSH values must be real numbers")
    if values.shape != (4,):
        raise DomainError(f"CHSH needs exactly 4 values, got shape {values.shape}")
    return _signed_sum(values.tolist(), negated_term)


def _signed_sum(values: Sequence[float], negated_term: int) -> float:
    # Four Python numbers, the negated term's sign flipped, added in operand order.
    terms = list(values)
    terms[check_negated_term(negated_term)] *= -1
    return float(sum(terms))


def _chsh(values: Sequence[float], sigmas: Sequence[float], negated_term: int) -> tuple[float, float]:
    """The (S, sigma) of :func:`s_prime` from four checked Python floats and
    their sigmas: the signed sum of :func:`chsh_sum` and the root sum of
    squares, both finite or a :class:`DomainError`."""
    s = _signed_sum(values, negated_term)
    try:  # a float square beyond the float range raises
        sigma = math.sqrt(sum(x**2 for x in sigmas))
    except OverflowError:
        sigma = math.inf
    if not (math.isfinite(s) and math.isfinite(sigma)):
        raise DomainError("the CHSH sum of these terms overflows")
    return s, sigma


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
    s, sigma = _chsh([t.value for t in terms], [t.sigma for t in terms], negated_term)
    return ChshResult(
        s_value=s,
        sigma=sigma,
        terms=terms,
        sign_convention=check_negated_term(negated_term),
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
    return 2.0 * math.sqrt(2.0) * check_real(visibility, "visibility", 0.0, 1.0)
