"""Stacked sinusoid fits against the per-fit reference.

``looped_fit_rate_curve`` is the one-fit-at-a-time two-pass fit that
``fit_rate_curves`` replaced: 2-d arrays, ``np.linalg.cond`` and an inverse
in each pass. The stacked fits keep the arithmetic of each row, so every row
must equal the reference bit for bit, and a grid with a failing row must
raise what fitting the rows one at a time in order raises first. Both refuse
a fit whose phase covariance is not finite (zero or vanishing modulation). Bit
equality is a property of this numpy and LAPACK build, which these tests pin.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpath import (
    ApparatusModel,
    DomainError,
    FitResult,
    InsufficientDataError,
    RunConfig,
    ScanPlan,
    SingularFitError,
    fit_rate_curve,
    fit_rate_curves,
    fit_sinusoid,
    noiseless_scan,
    read_scan_csv,
    reproduce_pipeline,
    run_threshold,
    sample_scan,
    write_scan_csv,
)
from spinpath.analysis import _COND_CERTIFIED, _COND_LIMIT, _grid, _umath_linalg
from spinpath.angles import canonical_angle, distinct_phase_count
from spinpath.report import format_real


def _looped_weighted_solve(design, y, weights):
    wx = design * weights[:, None]
    m = design.T @ wx
    if not np.all(np.isfinite(m)) or np.linalg.cond(m) > 1e10:
        raise SingularFitError(
            "degenerate phase coverage (all chi equal modulo pi leaves the "
            "cosine and sine columns collinear)"
        )
    b = wx.T @ y
    coeffs = np.linalg.solve(m, b)
    cov = np.linalg.inv(m)
    return coeffs, cov


def looped_fit_rate_curve(chi, counts) -> FitResult:
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
    coeffs1, _ = _looped_weighted_solve(design, y, w_poisson)
    fitted1 = design @ coeffs1
    w_model = 1.0 / np.maximum(fitted1, 1.0)
    coeffs, cov_lin = _looped_weighted_solve(design, y, w_model)

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
    rr = max(r, 1e-300)
    with np.errstate(all="ignore"):
        jac = np.array(
            [
                [1.0, 0.0, 0.0],
                [-r / c0**2, c1 / (c0 * rr), c2 / (c0 * rr)],
                [0.0, c2 / rr**2, -c1 / rr**2],
            ]
        )
        cov_avp = jac @ cov_lin @ jac.T
        cov_avp = 0.5 * (cov_avp + cov_avp.T)
    if not np.all(np.isfinite(cov_avp)):
        raise SingularFitError("fitted modulation is zero or vanishing: the phase is undefined")
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


def _bits(fit: FitResult):
    """Every field of a fit, floats as their exact bytes."""
    return (
        np.array([fit.amplitude, fit.visibility, fit.phase, fit.chi_square]).tobytes(),
        fit.dof,
        fit.covariance.tobytes(),
        fit.coeffs.tobytes(),
        fit.coeff_covariance.tobytes(),
    )


def _outcome(fit, *args):
    try:
        return ("fits", [_bits(f) for f in fit(*args)])
    except (DomainError, InsufficientDataError, SingularFitError) as exc:
        return ("error", type(exc), str(exc))


def _looped(chi, grid):
    return [looped_fit_rate_curve(chi, row) for row in grid]


@st.composite
def chi_grids(draw):
    """A chi grid of 4 to 4096 points: uniform, uniform and shifted, a
    uniform grid tiled over repetitions, or irregular."""
    kind = draw(st.sampled_from(["uniform", "shifted", "tiled", "irregular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tiled":
        points = draw(st.sampled_from([4, 32, 64]) | st.integers(4, 64))
        grid = 2.0 * np.pi * np.arange(points) / points
        return np.tile(grid, draw(st.integers(1, 4096 // points)))
    points = draw(st.sampled_from([4, 5, 8, 32, 257, 1024, 4096]) | st.integers(4, 4096))
    if kind == "irregular":
        return rng.uniform(-20.0, 20.0, size=points)
    grid = 2.0 * np.pi * np.arange(points) / points
    if kind == "shifted":
        grid = grid + draw(st.floats(-100.0, 100.0, allow_nan=False))
    return grid


@st.composite
def count_grids(draw, chi):
    """A grid of 1 to 5 rows, or of 64 (the four scans times 16 repetitions
    of one stacked reproduce fit), over ``chi``: Poisson counts (int), or
    noisy or exact real-valued rates (float), about sinusoids of one random
    mean and contrast."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 5) | st.just(64))
    mean = draw(st.sampled_from([0.5, 5.0, 60.0, 2500.0, 1e5]))
    visibility = draw(st.floats(0.0, 1.0))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(rows, 1))
    rates = mean * (1.0 + visibility * np.cos(chi + phases))
    kind = draw(st.sampled_from(["int", "float", "noiseless"]))
    if kind == "int":
        return rng.poisson(rates)
    if kind == "float":
        return rates * rng.uniform(0.9, 1.1, size=rates.shape)
    return rates


@st.composite
def clustered_grids(draw, decades=(-6.0, -4.0)):
    """4 to 40 phases spread over an arc of 1e-6 to 1e-4 rad (by default),
    plus one point 0.5 to 3 rad away: the cosine and sine columns are nearly
    collinear, and cond(X'X) is about 2e9 or more."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = draw(st.integers(4, 40))
    centre = draw(st.floats(-10.0, 10.0))
    chi = centre + 10.0 ** draw(st.floats(*decades)) * rng.uniform(0.0, 1.0, size=points)
    chi[draw(st.integers(0, points - 1))] = centre + draw(st.floats(0.5, 3.0))
    return chi


@st.composite
def wide_range_counts(draw, chi):
    """1 to 5 rows of Poisson counts about a sinusoid, with zeros next to
    1e12 in a few cells of every row: the weights span twelve decades."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 5))
    mean = draw(st.sampled_from([5.0, 1e3, 1e6]))
    grid = rng.poisson(mean * (1.0 + 0.5 * np.cos(chi + rng.uniform(0.0, 6.0, size=(rows, 1)))))
    grid = grid.astype(float)
    cells = rng.permutation(chi.size)
    few = draw(st.integers(1, chi.size // 4))
    grid[:, cells[:few]] = 0.0
    grid[:, cells[few : 2 * few]] = 1e12
    return grid


@given(st.data())
def test_every_row_equals_the_looped_fit_bit_for_bit(data):
    chi = data.draw(chi_grids())
    grid = data.draw(count_grids(chi))
    looped = _outcome(_looped, chi, grid)
    assert _outcome(fit_rate_curves, chi, grid) == looped
    assert _outcome(lambda c, g: [fit_rate_curve(c, row) for row in g], chi, grid) == looped


@given(st.data())
def test_fits_the_bound_cannot_certify_equal_the_looped_fit(data):
    # Every input here has a condition bound above the certified 1e8 in its
    # first pass, so that pass takes the SVD check, and it must accept and
    # refuse what np.linalg.cond does: a fit or the same error.
    if data.draw(st.booleans()):
        chi = data.draw(clustered_grids())
        grid = data.draw(count_grids(chi) | wide_range_counts(chi))
    else:
        chi = data.draw(chi_grids())
        grid = data.draw(wide_range_counts(chi))
    weights = 1.0 / np.maximum(grid, 1.0)
    assert _grid(chi.tobytes())[3] * weights.max() / weights.min() > _COND_CERTIFIED
    looped = _outcome(_looped, chi, grid)
    assert _outcome(fit_rate_curves, chi, grid) == looped


@given(st.data())
def test_a_certified_condition_bound_holds(data):
    # For positive weights cond(X'WX) <= cond(X'X) * max(w) / min(w); where
    # that bound is at most 1e8 the fit skips the SVD, so the condition
    # number must then be within the bound and far within the limit.
    chi = data.draw(chi_grids() | clustered_grids(decades=(-4.0, -1.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = 10.0 ** rng.uniform(-data.draw(st.floats(0.0, 12.0)), 0.0, size=chi.size)
    _, _, design, grid_cond = _grid(chi.tobytes())
    bound = grid_cond * weights.max() / weights.min()
    if bound <= _COND_CERTIFIED:
        cond = np.linalg.cond(design.T @ (design * weights[:, None]))
        assert cond <= bound * (1.0 + 1e-6)
        assert cond <= _COND_LIMIT


def test_pooled_refit_sized_scans_equal_the_looped_fit():
    # the shape of a refit scan: 64 repetitions of a 64-point grid, pooled
    rng = np.random.default_rng(8)
    chi = np.tile(2.0 * np.pi * np.arange(64) / 64, 64)
    for mean in (3.0, 1000.0):
        counts = rng.poisson(mean * (1.0 + 0.8 * np.cos(chi + 0.3)))
        want = _bits(looped_fit_rate_curve(chi, counts))
        assert _bits(fit_rate_curve(chi, counts)) == want
        assert [_bits(fit) for fit in fit_rate_curves(chi, counts[None, :])] == [want]


GRID_16 = 2.0 * np.pi * np.arange(16) / 16


def _good_row(phase):
    return np.rint(100.0 * (1.0 + 0.5 * np.cos(GRID_16 + phase)))


@pytest.mark.parametrize(
    "bad_rows, kind, message",
    [
        # the third row alone fails
        ({2: np.zeros(16)}, SingularFitError, "fitted mean rate is not positive (0)"),
        # row 1 fails in the fit, row 3 already in the input checks; the
        # looped order reports row 1
        (
            {1: np.zeros(16), 3: np.full(16, -1.0)},
            SingularFitError,
            "fitted mean rate is not positive (0)",
        ),
        ({3: np.full(16, np.nan)}, DomainError, "counts must be finite and non-negative, chi finite"),
    ],
    ids=["third_row_zeros", "fit_error_before_input_error", "nan_row"],
)
def test_a_failing_row_raises_what_the_looped_fits_raise_first(bad_rows, kind, message):
    grid = np.array([_good_row(0.3 * k) for k in range(5)])
    for index, row in bad_rows.items():
        grid[index] = row
    looped = _outcome(_looped, GRID_16, grid)
    assert looped == ("error", kind, message)
    assert _outcome(fit_rate_curves, GRID_16, grid) == looped


def test_zero_or_vanishing_modulation_raises_without_a_warning():
    # Equal counts at four irregular phases fit exactly with c1 = c2 = 0: the
    # phase's delta-method variance is 0/0. A tiny c0 next to a large
    # modulation overflows the Jacobian instead.
    chi = np.array([-7.699, -5.035, 7.811, -7.326])
    flat = np.full(4, 2.0)
    message = "fitted modulation is zero or vanishing: the phase is undefined"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (fit_rate_curve, looped_fit_rate_curve):
            with pytest.raises(SingularFitError, match=message):
                fit(chi, flat)
        # in a stack, the flat row fails where the other rows fit
        grid = np.rint(100.0 * (1.0 + 0.5 * np.cos(chi + np.array([[0.3], [1.1], [0.0], [2.0]]))))
        grid[2] = flat
        looped = _outcome(_looped, chi, grid)
        assert looped == ("error", SingularFitError, message)
        assert _outcome(fit_rate_curves, chi, grid) == looped
        assert _outcome(fit_rate_curves, chi, grid[[0, 1, 3]])[0] == "fits"
        # the flat row comes before a row whose fitted mean is 0: the
        # stacked fit fails on the later row, and the looped order reports the flat one
        grid[3] = 0.0
        assert _outcome(_looped, chi, grid) == looped
        assert _outcome(fit_rate_curves, chi, grid) == looped
        # c0 about 1e-300: c0**2 underflows to 0 and r / c0**2 overflows
        with pytest.raises(SingularFitError, match=message):
            fit_rate_curve(GRID_16, 1e-300 * (1.0 + 0.5 * np.cos(GRID_16)))


def test_an_overflowing_fit_is_one_domain_error_without_a_warning():
    # A modulation above about 1.3e154 squares past the float range in the
    # phase's Jacobian, which raised a bare OverflowError; counts that
    # alternate about 1e155 have no modulation, but their residuals' squares
    # overflow the chi-square, which came back inf. Both warned first.
    message = "counts too large: the fit's chi-square or phase covariance overflows a float"
    sinusoid = 1.0 + 0.5 * np.cos(GRID_16)
    alternating = 1.0 + 0.9 * np.cos(np.pi * np.arange(16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for counts in (1e160 * sinusoid, 1e200 * sinusoid, 1e300 * sinusoid, 1e155 * alternating):
            with pytest.raises(DomainError) as err:
                fit_rate_curve(GRID_16, counts)
            assert str(err.value) == message
        assert math.isfinite(fit_rate_curve(GRID_16, 2e154 * sinusoid).chi_square)
        assert math.isfinite(fit_rate_curve(GRID_16, 1e150 * alternating).chi_square)
        # in a stack, the first failing row's own error is raised
        good, empty = _good_row(0.3), np.zeros(16)
        for rows, kind in (
            ([good, 1e200 * sinusoid, 1e155 * alternating], DomainError),
            ([good, 1e155 * alternating, 1e200 * sinusoid], DomainError),
            ([empty, 1e200 * sinusoid], SingularFitError),
        ):
            with pytest.raises(kind):
                fit_rate_curves(GRID_16, np.array(rows))


def test_grid_shape_and_degenerate_grids():
    assert fit_rate_curves(GRID_16, np.empty((0, 16))) == []
    shapes = [(GRID_16, np.ones(16)), (GRID_16, np.ones((2, 15))), (GRID_16[:, None], np.ones((1, 16)))]
    for chi, counts in shapes:
        with pytest.raises(DomainError, match="one column per chi value"):
            fit_rate_curves(chi, counts)
    with pytest.raises(InsufficientDataError, match="empty scan"):
        fit_rate_curves([], np.empty((2, 0)))
    with pytest.raises(InsufficientDataError, match="got 2"):
        fit_rate_curves(np.tile([0.0, 1.0], 4), np.ones((3, 8)))
    with pytest.raises(SingularFitError, match="degenerate phase coverage"):
        fit_rate_curves([0.0, 2e-9, 4e-9, 6e-9], np.full((2, 4), 10.0))


def test_grid_cache_is_read_only_small_and_order_free():
    # Fits on one grid, on another, and on the first again give the bits of
    # a cold cache, whether or not a pass takes the SVD check.
    assert 0 < _grid.cache_info().maxsize <= 16
    chi_b = np.linspace(0.1, 6.0, 24)
    wide = np.rint(100.0 * (1.0 + 0.5 * np.cos(chi_b + np.array([[0.0], [2.0]]))))
    wide[:, ::5] = 0.0  # zeros next to 1e12: no certified bound
    wide[:, 1::7] = 1e12
    calls = [
        lambda: _outcome(fit_rate_curves, GRID_16, [_good_row(0.3), _good_row(1.1)]),
        lambda: _outcome(fit_rate_curves, chi_b, wide),
    ]
    cold = []
    for call in calls:
        _grid.cache_clear()
        cold.append(call())
    assert [call() for call in calls + calls[::-1]] == cold + cold[::-1]
    assert cold[0][0] == cold[1][0] == "fits"
    with pytest.raises(ValueError, match="read-only"):
        _grid(GRID_16.tobytes())[2][0, 0] = 2.0


@given(st.data())
def test_the_lapack_gufuncs_equal_numpy_linalg_bit_for_bit(data):
    # The fits call the gufuncs behind np.linalg.solve and np.linalg.inv
    # directly, a private numpy API: a numpy release that changes either
    # function, or what it calls, shows here first.
    chi = data.draw(chi_grids())
    rows = data.draw(st.integers(1, 5) | st.just(64))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = 10.0 ** rng.uniform(-data.draw(st.floats(0.0, 12.0)), 0.0, size=(rows, chi.size))
    design = _grid(chi.tobytes())[2]
    wx = design * weights[:, :, None]
    m = design.T @ wx
    b = wx.transpose(0, 2, 1) @ rng.uniform(0.0, 1e5, size=(rows, chi.size, 1))
    assert _umath_linalg.solve(m, b, signature="dd->d").tobytes() == np.linalg.solve(m, b).tobytes()
    assert _umath_linalg.inv(m, signature="d->d").tobytes() == np.linalg.inv(m).tobytes()


@pytest.mark.parametrize("exposures", [1, 3])
@pytest.mark.parametrize("source", ["tuple", "csv", "noiseless"])
def test_fit_sinusoid_fits_the_tiled_chi_grid(tmp_path, exposures, source):
    # fit_sinusoid reads its plan's cached pooled grid; the fit must be the
    # one of the grid tiled afresh, for a plan built from a tuple and one
    # read back from a scan CSV.
    chi = tuple(2.0 * math.pi * k / 12 + 0.1 for k in range(12))
    plan = ScanPlan(alpha=0.5, chi_values=chi, exposures=exposures)
    model = ApparatusModel(2000.0, default_visibility=0.7, phase_offset=0.4)
    if source == "noiseless":
        scan = noiseless_scan(model, plan)
    else:
        scan = sample_scan(model, plan, seed=5, scan_index=exposures)
    if source == "csv":
        write_scan_csv(scan, tmp_path / "scan.csv")
        scan = read_scan_csv(tmp_path / "scan.csv")
    tiled = np.tile(np.array(scan.plan.chi_values), exposures)
    want = _bits(fit_rate_curve(tiled, scan.counts.ravel()))
    assert _bits(fit_sinusoid(scan)) == want
    assert _bits(fit_sinusoid(scan)) == want  # the grid is now cached
    grid = scan.plan._chi_grid
    assert grid.dtype == np.float64 and grid.tobytes() == tiled.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 1.0


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


RUNS = {
    "reproduce-drift0": lambda out: reproduce_pipeline(RunConfig(seed=3), out),
    "reproduce-drift0.05": lambda out: reproduce_pipeline(RunConfig(seed=3, drift_sigma=0.05), out),
    "threshold": lambda out: run_threshold(out, counts_per_point=1e5, seed=3),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_runs_write_the_same_bytes_when_every_float_error_raises(tmp_path, name):
    # The direct gufunc calls run under the caller's error state, which
    # np.linalg's wrappers replaced with their own: no solve or inverse of a
    # run may raise a floating-point flag that the wrappers would have hidden.
    RUNS[name](tmp_path / "plain")
    with np.errstate(all="raise"):
        RUNS[name](tmp_path / "raise")
    plain = _tree_bytes(tmp_path / "plain")
    assert plain and _tree_bytes(tmp_path / "raise") == plain
