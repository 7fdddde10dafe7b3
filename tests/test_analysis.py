"""Estimator layer: sinusoid fits, correlation estimates, CHSH combination."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinpath import (
    ApparatusModel,
    ChshResult,
    DomainError,
    ExpectationEstimate,
    FitResult,
    InsufficientDataError,
    JointState,
    ScanPlan,
    Setting,
    SingularFitError,
    bell_state,
    chsh_sum,
    e_obs_from_counts,
    e_obs_from_fits,
    expectation,
    fit_rate_curve,
    fit_sinusoid,
    joint_probability,
    max_violation_settings,
    noiseless_scan,
    reference_apparatus,
    s_of_visibility,
    s_prime,
    sample_scan,
    term_signs,
    visibility_threshold,
    weighted_average,
)
from spinpath.analysis import _array_from_json, _signed_sum, fit_rate_curves
from spinpath.angles import TWO_PI, canonical_angle, circular_distance, distinct_phase_count
from spinpath.apparatus import IDEAL_S
from spinpath.montecarlo import poisson, substream

GRID_32 = tuple(2.0 * math.pi * i / 32 for i in range(32))


def sinusoid_counts(chi, amplitude, visibility, phase):
    chi = np.asarray(chi, dtype=float)
    return amplitude * (1.0 + visibility * np.cos(chi + phase))


def test_fit_recovers_noiseless_sinusoid_exactly():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = rng.uniform(20.0, 5000.0)
        v = rng.uniform(0.05, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        n_points = rng.integers(8, 40)
        chi = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n_points))
        fit = fit_rate_curve(chi, sinusoid_counts(chi, a, v, phi))
        assert abs(fit.amplitude - a) / a < 1e-9
        assert abs(fit.visibility - v) < 1e-9
        assert min(abs(fit.phase - phi), 2.0 * math.pi - abs(fit.phase - phi)) < 1e-9
        assert fit.chi_square < 1e-12
        for c in rng.uniform(0.0, 2.0 * math.pi, size=5):
            want = a * (1.0 + v * math.cos(c + phi))
            assert abs(fit.rate_at(c) - want) < 1e-9 * a


@given(
    st.integers(4, 64),
    st.floats(0.0, 0.45),
    st.floats(20.0, 1e5),
    st.floats(0.05, 1.0),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-20.0, 20.0),
    st.randoms(use_true_random=False),
)
def test_fit_phase_shifts_with_the_chi_grid(points, jitter, a, v, phi, delta, rnd):
    # The same noiseless counts read on a grid shifted by delta fit a phase
    # shifted by -delta, with the same amplitude and visibility.
    spacing = 2.0 * math.pi / points
    chi = np.array([spacing * (k + jitter * rnd.uniform(-1.0, 1.0)) for k in range(points)])
    counts = sinusoid_counts(chi, a, v, phi)
    fit = fit_rate_curve(chi, counts)
    shifted = fit_rate_curve(chi + delta, counts)
    assert abs(shifted.amplitude - fit.amplitude) <= 1e-9 * fit.amplitude
    assert abs(shifted.visibility - fit.visibility) <= 1e-9
    assert circular_distance(shifted.phase, fit.phase - delta) <= 1e-9
    assert circular_distance(fit.phase, phi) <= 1e-9


def test_fit_flat_scan_gives_zero_visibility():
    chi = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    fit = fit_rate_curve(chi, np.full(12, 130.0))
    assert abs(fit.visibility) < 1e-12
    assert abs(fit.amplitude - 130.0) < 1e-9


def test_fit_requires_four_distinct_phases():
    with pytest.raises(InsufficientDataError):
        fit_rate_curve([0.0, 1.0, 2.0], [10.0, 12.0, 9.0])
    # repeats of three values do not help
    with pytest.raises(InsufficientDataError):
        fit_rate_curve([0.0, 1.0, 2.0, 0.0, 1.0, 2.0], [10.0, 12.0, 9.0, 11.0, 12.0, 8.0])
    # 2*pi aliases collapse onto one canonical value
    with pytest.raises(InsufficientDataError):
        fit_rate_curve([0.0, 2.0 * math.pi, 1.0, 1.0 + 2.0 * math.pi], [5.0, 5.0, 5.0, 5.0])
    with pytest.raises(InsufficientDataError):
        fit_rate_curve([], [])


def test_distinct_phase_count_matches_scalar_reference():
    # the count must agree with canonical_angle applied one value at a time,
    # including the branches for negative input and for results that land
    # on 2*pi
    rng = np.random.default_rng(3)
    base = rng.uniform(-20.0, 20.0, 50)
    values = np.concatenate(
        [base + 2.0 * math.pi * k for k in range(-3, 4)] + [[-0.0, -1e-300, 2.0 * math.pi]]
    )
    reference = len(np.unique(np.round([canonical_angle(v) for v in values], 9)))
    assert distinct_phase_count(values) == reference == 51


def _vectorized_phase_count(values):
    """distinct_phase_count as once written, canonical_angle's steps
    elementwise in numpy: fmod is exact, so the phases match the scalar path
    bit for bit, but for the sign of a zero, which the count does not see."""
    canon = np.fmod(np.asarray(values, dtype=float), TWO_PI)
    canon = np.where(canon < 0.0, canon + TWO_PI, canon)
    canon = np.where(canon >= TWO_PI, canon - TWO_PI, canon)
    rounded = np.round(canon, 9)
    return len(np.unique(np.where(rounded == np.round(TWO_PI, 9), 0.0, rounded)))


_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)
_PHASE = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, TWO_PI, -TWO_PI, _BELOW_TWO_PI, -_BELOW_TWO_PI, 1e-300, -1e-300]),
)
# Phases on and halfway between neighbouring multiples of 1e-9, where the
# rounding rule decides which phases coincide.
_ROUNDING_CLUSTER = st.builds(
    lambda k, steps: [(k + j / 2) / 1e9 for j in steps],
    st.integers(-(10**15), 10**15),
    st.lists(st.integers(-4, 4), max_size=8),
)


@given(
    values=st.builds(list.__add__, st.lists(_PHASE, max_size=40), _ROUNDING_CLUSTER),
    container=st.sampled_from([list, tuple, np.array]),
)
@example(values=[0.0012345675, 0.001234567], container=list)
@example(values=[0.0, _BELOW_TWO_PI, -0.0, 1.0], container=tuple)
def test_distinct_phase_count_equals_the_vectorized_reference(values, container):
    assert distinct_phase_count(container(values)) == _vectorized_phase_count(values)


def test_fit_counts_phases_on_the_circle():
    # a phase just below 2*pi is phase 0, so only three phases were measured
    with pytest.raises(InsufficientDataError):
        fit_rate_curve([0.0, 2.0 * math.pi - 1e-12, 1.0, 2.0], [5.0, 5.0, 6.0, 4.0])
    assert distinct_phase_count([0.0, 2.0 * math.pi - 1e-12, 1.0, 2.0]) == 3


def test_fit_rejects_degenerate_phase_cluster():
    # four formally distinct but nearly identical phases: singular geometry
    chi = np.array([0.0, 2e-9, 4e-9, 6e-9])
    with pytest.raises(SingularFitError):
        fit_rate_curve(chi, np.array([10.0, 10.0, 10.0, 10.0]))


def test_fit_input_validation():
    chi = np.linspace(0.0, 6.0, 8)
    with pytest.raises(DomainError):
        fit_rate_curve(chi, -np.ones(8))
    with pytest.raises(DomainError):
        fit_rate_curve(chi, np.full(8, math.nan))
    with pytest.raises(DomainError):
        fit_rate_curve(chi[:4], np.ones(8))


def test_fit_sinusoid_matches_raw_arrays():
    scan = sample_scan(reference_apparatus(80.0), ScanPlan(0.0, GRID_32, 4), seed=41)
    a = fit_sinusoid(scan)
    chi = [c for _ in range(scan.plan.exposures) for c in scan.plan.chi_values]
    b = fit_rate_curve(chi, [float(n) for row in scan.counts for n in row])
    assert a.amplitude == b.amplitude
    assert a.visibility == b.visibility
    assert a.phase == b.phase


def test_fit_result_dict_round_trip():
    scan = sample_scan(reference_apparatus(60.0), ScanPlan(0.0, GRID_32, 2), seed=42)
    fit = fit_sinusoid(scan)
    back = FitResult.from_dict(fit.to_dict())
    assert back.amplitude == fit.amplitude
    assert back.visibility == fit.visibility
    assert back.phase == fit.phase
    assert np.array_equal(back.coeffs, fit.coeffs)
    assert np.array_equal(back.coeff_covariance, fit.coeff_covariance)


def test_fit_visibility_pulls_are_calibrated():
    # (V_hat - V) / sigma_V over independent scans: centered, unit variance.
    # High rate keeps the nonlinear V = |c|/c0 transform in its linear regime.
    model = ApparatusModel(mean_rate=2500.0, default_visibility=0.73)
    plan = ScanPlan(alpha=0.0, chi_values=GRID_32, exposures=4)
    pulls = []
    for seed in range(60):
        fit = fit_sinusoid(sample_scan(model, plan, seed=seed))
        sigma_v = math.sqrt(fit.covariance[1, 1])
        pulls.append((fit.visibility - 0.73) / sigma_v)
    pulls = np.array(pulls)
    assert abs(pulls.mean()) < 0.3
    assert 0.6 < pulls.var(ddof=1) < 1.5


def test_fit_reduced_chi_square_near_one():
    model = reference_apparatus(90.0)
    values = []
    for seed in range(25):
        fit = fit_sinusoid(sample_scan(model, ScanPlan(0.0, GRID_32, 4), seed=seed))
        values.append(fit.reduced_chi_square())
    mean = float(np.mean(values))
    assert 0.85 < mean < 1.15


def test_fit_recovers_instrument_check_contrasts():
    # plain one-degree-of-freedom scans at the contrasts the reference
    # instrument reports for its path-only and spin-only checks
    for contrast in (0.91, 0.95):
        model = ApparatusModel(mean_rate=3000.0, default_visibility=contrast)
        fit = fit_sinusoid(sample_scan(model, ScanPlan(0.0, GRID_32, 2), seed=17))
        sigma_v = math.sqrt(fit.covariance[1, 1])
        assert abs(fit.visibility - contrast) < 4.0 * sigma_v


def test_e_obs_perfect_correlation():
    est = e_obs_from_counts(100.0, 100.0, 0.0, 0.0)
    assert est.value == 1.0
    assert est.sigma == 0.0
    est = e_obs_from_counts(0.0, 0.0, 60.0, 40.0)
    assert est.value == -1.0


def test_e_obs_balanced_channels():
    est = e_obs_from_counts(50.0, 50.0, 50.0, 50.0, setting=Setting(0.0, 1.0))
    assert est.value == 0.0
    assert abs(est.sigma - 1.0 / math.sqrt(200.0)) < 1e-15
    assert est.setting == Setting(0.0, 1.0)
    assert not est.clamped


def test_e_obs_validation():
    with pytest.raises(DomainError):
        e_obs_from_counts(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        e_obs_from_counts(-1.0, 5.0, 5.0, 5.0)
    with pytest.raises(DomainError):
        e_obs_from_counts(math.nan, 5.0, 5.0, 5.0)


@pytest.mark.parametrize(
    "channels",
    [(1e200, 0.0, 0.0, 0.0), (1e154, 1e154, 0.0, 0.0), (10**308, 10**308, 0, 0), (1e308,) * 4],
    ids=["square", "sum_square", "int_sum", "float_sum"],
)
def test_e_obs_of_overflowing_counts_is_a_domain_error(channels):
    # The total's square, or a sum of ints, overflowed as a bare OverflowError.
    with pytest.raises(DomainError):
        e_obs_from_counts(*channels)


def test_e_obs_of_numpy_channels_equals_python_channels():
    # int64 channels were summed as int64 and overflowed (a RuntimeWarning,
    # which pyproject turns into an error) with a wrong correlation.
    big = 2**62
    numpy_ints = e_obs_from_counts(np.int64(big), np.int64(big), np.int64(1), np.int64(1))
    assert numpy_ints == e_obs_from_counts(big, big, 1, 1)
    assert numpy_ints.value == (2 * big - 2) / (2 * big + 2)
    numpy_reals = e_obs_from_counts(*map(np.float32, (0.1, 0.2, 0.3, 0.4)))
    assert numpy_reals == e_obs_from_counts(*map(float, map(np.float32, (0.1, 0.2, 0.3, 0.4))))
    assert type(numpy_reals.value) is float


def e_obs_bootstrap_sigma(n_pp, n_mm, n_pm, n_mp, resamples, seed):
    """Parametric bootstrap of E: resample the four channels as Poisson
    variates around the observed counts."""
    rng = substream(seed, 0)
    draws = np.column_stack([poisson(rng, c, size=resamples) for c in (n_pp, n_mm, n_pm, n_mp)])
    totals = draws.sum(axis=1)
    ok = totals > 0
    values = (draws[ok, 0] + draws[ok, 1] - draws[ok, 2] - draws[ok, 3]) / totals[ok]
    return float(np.std(values, ddof=1))


def test_e_obs_sigma_matches_bootstrap():
    channels = (400.0, 380.0, 120.0, 100.0)
    delta = e_obs_from_counts(*channels).sigma
    boot = e_obs_bootstrap_sigma(*channels, resamples=20_000, seed=3)
    assert abs(delta - boot) / delta < 0.1


def test_e_obs_from_quantum_probabilities():
    # four channels read off the exact state reproduce the exact correlation
    state = bell_state()
    rng = np.random.default_rng(33)
    for _ in range(50):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        chi = rng.uniform(0.0, 2.0 * math.pi)
        scale = 1e6
        n_pp = scale * joint_probability(state, Setting(alpha, chi), +1, +1)
        n_mm = scale * joint_probability(state, Setting(alpha, chi), -1, -1)
        n_pm = scale * joint_probability(state, Setting(alpha, chi), +1, -1)
        n_mp = scale * joint_probability(state, Setting(alpha, chi), -1, +1)
        est = e_obs_from_counts(n_pp, n_mm, n_pm, n_mp)
        assert abs(est.value - expectation(state, Setting(alpha, chi))) < 1e-12


def test_e_obs_from_fits_noiseless_reference():
    model = reference_apparatus(1000.0)
    fit_a = fit_sinusoid(noiseless_scan(model, ScanPlan(0.0, GRID_32)))
    fit_b = fit_sinusoid(noiseless_scan(model, ScanPlan(math.pi, GRID_32)))
    est = e_obs_from_fits(fit_a, fit_b, 0.79 * math.pi)
    # both fringes average into (0.76 + 0.73)/2 of the full correlation
    want = -0.745 * math.cos(0.79 * math.pi)
    assert abs(est.value - want) < 1e-9
    assert not est.clamped


def test_e_obs_from_fits_matches_channel_rates():
    model = reference_apparatus(500.0)
    fit_a = fit_sinusoid(noiseless_scan(model, ScanPlan(0.0, GRID_32)))
    fit_b = fit_sinusoid(noiseless_scan(model, ScanPlan(math.pi, GRID_32)))
    for chi in (0.3, 0.79 * math.pi, 1.29 * math.pi, 5.9):
        est = e_obs_from_fits(fit_a, fit_b, chi)
        manual = e_obs_from_counts(
            fit_a.rate_at(chi),
            fit_b.rate_at(chi + math.pi),
            fit_a.rate_at(chi + math.pi),
            fit_b.rate_at(chi),
        )
        assert abs(est.value - manual.value) < 1e-12


def test_e_obs_from_fits_sigma_tracks_counts():
    # quadrupled statistics halve the propagated error
    model_lo = reference_apparatus(40.0)
    model_hi = reference_apparatus(160.0)
    lo_a = fit_sinusoid(sample_scan(model_lo, ScanPlan(0.0, GRID_32, 16), seed=51))
    lo_b = fit_sinusoid(sample_scan(model_lo, ScanPlan(math.pi, GRID_32, 16), seed=52, scan_index=1))
    hi_a = fit_sinusoid(sample_scan(model_hi, ScanPlan(0.0, GRID_32, 16), seed=53))
    hi_b = fit_sinusoid(sample_scan(model_hi, ScanPlan(math.pi, GRID_32, 16), seed=54, scan_index=1))
    s_lo = e_obs_from_fits(lo_a, lo_b, 0.79 * math.pi).sigma
    s_hi = e_obs_from_fits(hi_a, hi_b, 0.79 * math.pi).sigma
    assert 1.6 < s_lo / s_hi < 2.4


def test_e_obs_from_fits_at_a_nan_chi_is_a_domain_error():
    fit = FitResult(1.0, 0.5, 0.0, np.eye(3), 1.0, 1, np.array([10.0, 1.0, 1.0]), np.eye(3))
    for chi in (math.nan, math.inf, -math.inf, "x", 1j):
        with pytest.raises(DomainError, match="chi must be"):
            e_obs_from_fits(fit, fit, chi)


def test_fit_result_leaves_the_callers_arrays_writeable():
    cov = np.eye(3)
    coeffs = np.array([10.0, 1.0, 1.0])
    fit = FitResult(1.0, 0.5, 0.0, cov, 1.0, 1, coeffs, cov)
    assert cov.flags.writeable and coeffs.flags.writeable
    cov[0, 0] = 2.0
    coeffs[0] = 20.0
    assert fit.covariance[0, 0] == fit.coeff_covariance[0, 0] == 1.0
    assert fit.coeffs.tolist() == [10.0, 1.0, 1.0]
    for array in (fit.covariance, fit.coeff_covariance, fit.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_fit_result_keeps_a_read_only_array_as_given():
    # fit_rate_curves hands each fit read-only rows, which need no copy
    cov = np.eye(3)
    cov.setflags(write=False)
    fit = FitResult(1.0, 0.5, 0.0, cov, 1.0, 1, np.ones(3), cov)
    assert fit.covariance is cov and fit.coeff_covariance is cov
    first, second = fit_rate_curves(np.linspace(0.0, 6.0, 8), np.full((2, 8), 100.0))
    for name in ("coeffs", "covariance", "coeff_covariance"):
        assert getattr(first, name).base is getattr(second, name).base is not None
    # from_dict's arrays are read-only as built, so they are kept too
    assert not _array_from_json([[1.0, 2.0]], "coeffs").flags.writeable
    again = FitResult.from_dict(first.to_dict())
    for name in ("coeffs", "covariance", "coeff_covariance"):
        array = getattr(again, name)
        assert not array.flags.writeable
        assert array.tobytes() == getattr(first, name).tobytes()


def test_weighted_average_two_estimates():
    a = ExpectationEstimate(0.5, 0.01)
    b = ExpectationEstimate(0.7, 0.03)
    avg = weighted_average([a, b])
    assert abs(avg.value - 0.52) < 1e-15
    assert abs(avg.sigma - 0.009486832980505138) < 1e-15


def test_weighted_average_equal_sigmas():
    parts = [ExpectationEstimate(0.3, 0.01) for _ in range(16)]
    avg = weighted_average(parts)
    assert abs(avg.value - 0.3) < 1e-15
    assert abs(avg.sigma - 0.0025) < 1e-15


def test_weighted_average_checks_every_setting_after_a_shared_one():
    shared = Setting(0.0, 1.0)
    parts = [ExpectationEstimate(0.1 * k, 0.1, setting=shared) for k in range(3)]
    assert weighted_average(parts).setting is shared
    for odd in (Setting(0.0, 2.0), None):
        with pytest.raises(DomainError, match="^estimates refer to different settings$"):
            weighted_average([*parts, ExpectationEstimate(0.2, 0.1, setting=odd)])


def test_weighted_average_single_and_errors():
    single = ExpectationEstimate(0.4, 0.02, setting=Setting(0.0, 1.0))
    assert weighted_average([single]) is single
    with pytest.raises(DomainError):
        weighted_average([])
    with pytest.raises(DomainError):
        weighted_average([ExpectationEstimate(0.1, 0.0), ExpectationEstimate(0.2, 0.1)])
    with pytest.raises(DomainError):
        weighted_average(
            [
                ExpectationEstimate(0.1, 0.1, setting=Setting(0.0, 1.0)),
                ExpectationEstimate(0.2, 0.1, setting=Setting(0.0, 2.0)),
            ]
        )
    with pytest.raises(DomainError):
        weighted_average(
            [
                ExpectationEstimate(0.1, 0.1, setting=Setting(0.0, 1.0)),
                ExpectationEstimate(0.2, 0.1),
            ]
        )


def test_estimate_validation():
    with pytest.raises(DomainError):
        ExpectationEstimate(math.nan, 0.1)
    with pytest.raises(DomainError):
        ExpectationEstimate(0.5, -0.1)


def test_term_signs_and_chsh_sum():
    assert term_signs(0) == (-1, 1, 1, 1)
    assert term_signs(1) == (1, -1, 1, 1)
    assert term_signs(3) == (1, 1, 1, -1)
    with pytest.raises(DomainError):
        term_signs(4)
    assert chsh_sum([0.5, 0.5, 0.5, 0.5], 1) == 1.0
    assert chsh_sum([0.5, -0.5, 0.5, 0.5], 1) == 2.0
    with pytest.raises(DomainError):
        chsh_sum([1.0, 1.0, 1.0], 1)


@given(st.lists(st.floats(-1e308, 1e308), min_size=4, max_size=4), st.integers(0, 3))
def test_s_prime_and_chsh_sum_form_one_signed_sum(values, negated):
    # s_prime adds its checked floats without chsh_sum's array round trip;
    # the sum is the same, bit for bit, or an overflow that s_prime refuses.
    s = chsh_sum(values, negated)
    terms = [ExpectationEstimate(v, 0.1) for v in values]
    if math.isfinite(s):
        assert np.float64(s_prime(*terms, negated).s_value).tobytes() == np.float64(s).tobytes()
    else:
        with pytest.raises(DomainError, match="overflows"):
            s_prime(*terms, negated)


_SIGNED_SUM_TERMS = st.one_of(
    st.floats(-1e308, 1e308),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308]),
    st.sampled_from([1, -1]),
)


@given(st.lists(_SIGNED_SUM_TERMS, min_size=4, max_size=4), st.integers(0, 3))
@example([-0.0, -0.0, 0.0, -0.0], 2)
@example([1e308, 1e308, -math.inf, math.inf], 1)
@example([1, -1, -1, 1], 0)
def test_signed_sum_flips_one_term_as_the_sign_products_did(values, negated):
    # The sum with its one term negated in a copy equals the sum of the four
    # sign products it replaced, by repr: signed zeros, infinities and the
    # nan of inf - inf included. The caller's list is left as it was.
    given_values = list(values)
    products = float(sum(s * v for s, v in zip(term_signs(negated), values)))
    assert repr(_signed_sum(values, negated)) == repr(products)
    assert values == given_values


def test_s_prime_reference_quadruple():
    # the reference experiment's four correlations, with its one negative
    # term carrying the minus sign, give S = 2.0062 +- 0.0193
    e11 = ExpectationEstimate(0.542, 0.007)
    e12 = ExpectationEstimate(0.4882, 0.012)
    e21 = ExpectationEstimate(-0.538, 0.006)
    e22 = ExpectationEstimate(0.438, 0.012)
    result = s_prime(e11, e12, e21, e22, negated_term=2)
    assert abs(result.s_value - 2.0062) < 1e-12
    assert abs(result.sigma - math.sqrt(0.000373)) < 1e-15
    assert result.violated
    assert abs(result.significance() - (result.s_value - 2.0) / result.sigma) < 1e-12


def test_s_prime_ideal_maximum():
    alpha1, alpha2, chi1, chi2 = max_violation_settings()
    state = bell_state()
    estimates = [
        ExpectationEstimate(expectation(state, Setting(a, c)), 0.0)
        for a, c in ((alpha1, chi1), (alpha1, chi2), (alpha2, chi1), (alpha2, chi2))
    ]
    result = s_prime(*estimates, negated_term=1)
    assert abs(result.s_value - IDEAL_S) < 1e-12
    assert result.violated
    assert result.significance() == math.inf


def test_s_prime_each_convention_reaches_the_maximum():
    state = bell_state()
    quadruples = {
        0: (1.5 * math.pi, 0.0, -math.pi / 4.0, math.pi / 4.0),
        1: (math.pi / 2.0, 0.0, -math.pi / 4.0, math.pi / 4.0),
        2: (math.pi / 2.0, math.pi, -math.pi / 4.0, 1.25 * math.pi),
        3: (math.pi / 2.0, 0.0, -math.pi / 4.0, 1.25 * math.pi),
    }
    for negated, (a1, a2, c1, c2) in quadruples.items():
        estimates = [
            ExpectationEstimate(expectation(state, Setting(a, c)), 0.0)
            for a, c in ((a1, c1), (a1, c2), (a2, c1), (a2, c2))
        ]
        result = s_prime(*estimates, negated_term=negated)
        assert abs(result.s_value - IDEAL_S) < 1e-12, f"convention {negated}"


def test_s_prime_zero_estimates():
    zero = ExpectationEstimate(0.0, 0.0)
    result = s_prime(zero, zero, zero, zero)
    assert result.s_value == 0.0
    assert not result.violated
    assert result.significance() == -math.inf


def test_s_prime_sigma_adds_in_quadrature():
    parts = [ExpectationEstimate(0.5, s) for s in (0.01, 0.02, 0.02, 0.04)]
    result = s_prime(*parts)
    want = math.sqrt(0.01**2 + 0.02**2 + 0.02**2 + 0.04**2)
    assert abs(result.sigma - want) < 1e-15


def test_s_prime_refuses_an_overflowing_sum():
    huge = ExpectationEstimate(1e308, 0.1)
    with pytest.raises(DomainError, match="overflows"):
        s_prime(huge, ExpectationEstimate(-1e308, 0.1), huge, huge)
    # A sigma whose square passes the float range raised a bare OverflowError.
    for sigma in (1e154, 1e155, 1e300):
        wide = ExpectationEstimate(0.5, sigma)
        with pytest.raises(DomainError, match="overflows"):
            s_prime(wide, wide, wide, wide)


def test_product_states_never_violate():
    # separable preparations keep every sign convention at or below 2
    rng = np.random.default_rng(34)
    for _ in range(250):
        spin = rng.normal(size=2) + 1j * rng.normal(size=2)
        path = rng.normal(size=2) + 1j * rng.normal(size=2)
        spin /= np.linalg.norm(spin)
        path /= np.linalg.norm(path)
        state = JointState(tuple(np.kron(spin, path)))
        a1, a2, c1, c2 = rng.uniform(0.0, 2.0 * math.pi, size=4)
        values = [
            expectation(state, Setting(a, c))
            for a, c in ((a1, c1), (a1, c2), (a2, c1), (a2, c2))
        ]
        for negated in range(4):
            assert abs(chsh_sum(values, negated)) <= 2.0 + 1e-9


def test_visibility_threshold_value():
    t = visibility_threshold()
    assert abs(t - math.sqrt(2.0) / 2.0) < 1e-15
    assert abs(s_of_visibility(t) - 2.0) < 1e-9


def test_s_of_visibility():
    assert abs(s_of_visibility(0.73) - 2.064751801064719) < 1e-12
    assert s_of_visibility(0.0) == 0.0
    assert abs(s_of_visibility(1.0) - IDEAL_S) < 1e-15
    assert s_of_visibility(0.6) < 2.0 < s_of_visibility(0.8)
    with pytest.raises(DomainError):
        s_of_visibility(1.1)
    with pytest.raises(DomainError):
        s_of_visibility(-0.01)


def test_chsh_result_is_plain_dataclass():
    result = s_prime(
        ExpectationEstimate(0.6, 0.01),
        ExpectationEstimate(-0.6, 0.01),
        ExpectationEstimate(0.6, 0.01),
        ExpectationEstimate(0.6, 0.01),
    )
    assert isinstance(result, ChshResult)
    assert result.sign_convention == 1
    assert len(result.terms) == 4
    assert abs(result.s_value - 2.4) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_fit_on_a_non_finite_chi_is_a_domain_error(bad):
    chi = [0.0, 1.0, 2.0, bad, 4.0]
    with pytest.raises(DomainError, match="^counts must be finite and non-negative, chi finite$"):
        fit_rate_curve(chi, [5.0, 6.0, 7.0, 8.0, 9.0])
