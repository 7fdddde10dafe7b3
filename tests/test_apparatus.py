"""Instrument model: rate law, contrast lookup, reference parameters."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpath import (
    CONTRAST_LIMITED_S,
    IDEAL_S,
    REFERENCE_EXPECTATIONS,
    REFERENCE_S,
    ApparatusModel,
    DomainError,
    ScanPlan,
    Setting,
    bell_state,
    chsh_sum,
    dephase_path,
    expectation_mixed,
    max_violation_settings,
    path_projector,
    predicted_rate,
    reference_apparatus,
    s_of_visibility,
    spin_projector,
)
from spinpath.angles import MAX_SCAN_CELLS, uniform_chi_grid
from spinpath.apparatus import REFERENCE_PHASE_OFFSET, REFERENCE_SETTINGS


def test_predicted_rate_uniform_contrast():
    model = ApparatusModel(mean_rate=1000.0, default_visibility=0.73, phase_offset=math.pi)
    got = predicted_rate(model, Setting(0.0, 0.79 * math.pi))
    want = 1000.0 * (1.0 + 0.73 * math.cos(1.79 * math.pi))
    assert abs(got - want) < 1e-9
    assert abs(got - 1576.8) < 0.1


def test_predicted_rate_at_quadrature_is_mean_rate():
    model = ApparatusModel(mean_rate=250.0, default_visibility=0.9)
    got = predicted_rate(model, Setting(math.pi / 2.0, 0.0))
    assert abs(got - 250.0) < 1e-9


def test_predicted_rate_never_negative():
    model = ApparatusModel(mean_rate=5.0, default_visibility=1.0, phase_offset=2.2)
    rng = np.random.default_rng(21)
    for _ in range(10_000):
        rate = predicted_rate(model, Setting(rng.uniform(0.0, 7.0), rng.uniform(0.0, 7.0)))
        assert rate >= 0.0


def test_rate_periodic_in_both_angles():
    model = reference_apparatus(100.0)
    rng = np.random.default_rng(22)
    for _ in range(50):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        chi = rng.uniform(0.0, 2.0 * math.pi)
        base = predicted_rate(model, Setting(alpha, chi))
        assert abs(predicted_rate(model, Setting(alpha + 2.0 * math.pi, chi)) - base) < 1e-9
        assert abs(predicted_rate(model, Setting(alpha, chi - 4.0 * math.pi)) - base) < 1e-9


def test_visibility_lookup():
    model = reference_apparatus()
    assert model.visibility(0.0) == 0.76
    assert model.visibility(math.pi / 2.0) == 0.73
    assert model.visibility(math.pi) == 0.73
    assert model.visibility(2.0 * math.pi) == 0.76  # circular match
    assert model.visibility(1.3) == 0.73  # falls back to the default


def test_modeled_correlations_match_reference_magnitudes():
    # the four-channel estimator on this instrument gives the noiseless
    # correlation -Vbar * cos(alpha + chi), averaging the contrasts of the
    # alpha and alpha + pi fringes
    model = reference_apparatus()

    def modeled(alpha, chi):
        vbar = 0.5 * (model.visibility(alpha) + model.visibility(alpha + math.pi))
        return -vbar * math.cos(alpha + chi)

    # alpha = 0 group: both values positive, like the reference pair
    assert abs(modeled(0.0, 0.79 * math.pi) - 0.542) < 0.06
    assert abs(modeled(0.0, 1.29 * math.pi) - 0.4882) < 0.06
    # alpha = pi/2 group: one of each sign on both sides, but the negative
    # value sits at the other phase position, so compare by sign
    a = modeled(math.pi / 2.0, 0.79 * math.pi)
    b = modeled(math.pi / 2.0, 1.29 * math.pi)
    assert a > 0.0 > b
    assert abs(a - 0.438) < 0.06
    assert abs(abs(b) - 0.538) < 0.06


_ANGLE = st.floats(min_value=-20.0, max_value=20.0)
_CONTRAST = st.floats(min_value=0.0, max_value=1.0)


@given(
    mean_rate=st.floats(min_value=1e-3, max_value=1e6),
    visibility=_CONTRAST,
    alpha=_ANGLE,
    chi=_ANGLE,
    offset=_ANGLE,
)
def test_rate_law_is_the_path_dephased_bell_state(mean_rate, visibility, alpha, chi, offset):
    # rate = 4 * mean_rate * Tr[rho P_spin(alpha, +1) P_path(chi + offset, +1)]
    # with rho the Bell state whose path coherence is scaled by V(alpha)
    model = ApparatusModel(mean_rate=mean_rate, default_visibility=visibility, phase_offset=offset)
    rho = dephase_path(bell_state(), model.visibility(alpha)).matrix
    joint = spin_projector(alpha, +1) @ path_projector(chi + offset, +1)
    want = 4.0 * mean_rate * np.trace(rho @ joint).real
    assert abs(predicted_rate(model, Setting(alpha, chi)) - want) <= 1e-12 * mean_rate


@given(visibility=_CONTRAST)
def test_contrast_limited_s_is_the_path_dephased_bell_chsh_sum(visibility):
    rho = dephase_path(bell_state(), visibility)
    a1, a2, c1, c2 = max_violation_settings()
    values = [expectation_mixed(rho, Setting(a, c)) for a in (a1, a2) for c in (c1, c2)]
    assert abs(s_of_visibility(visibility) - chsh_sum(values)) <= 1e-12


def test_model_validation():
    with pytest.raises(DomainError):
        ApparatusModel(mean_rate=0.0)
    with pytest.raises(DomainError):
        ApparatusModel(mean_rate=-3.0)
    with pytest.raises(DomainError):
        ApparatusModel(mean_rate=10.0, default_visibility=1.5)
    with pytest.raises(DomainError):
        ApparatusModel(mean_rate=10.0, visibility_map=((0.0, -0.2),))
    with pytest.raises(DomainError):
        ApparatusModel(mean_rate=10.0, drift_sigma=-0.1)
    with pytest.raises(DomainError):
        ApparatusModel(mean_rate=math.inf)


def test_visibility_map_refuses_two_entries_at_one_angle():
    for second in (0.0, 2.0 * math.pi, -2.0 * math.pi, 1e-10):
        with pytest.raises(DomainError, match="two contrasts at"):
            ApparatusModel(mean_rate=10.0, visibility_map=((0.0, 0.5), (second, 0.9)))
    model = ApparatusModel(mean_rate=10.0, visibility_map=((0.0, 0.5), (1e-8, 0.9)))
    assert (model.visibility(0.0), model.visibility(1e-8)) == (0.5, 0.9)


def test_scan_plan_validation():
    with pytest.raises(DomainError):
        ScanPlan(alpha=0.0, chi_values=())
    with pytest.raises(DomainError):
        ScanPlan(alpha=0.0, chi_values=(0.0, math.nan))
    with pytest.raises(DomainError):
        ScanPlan(alpha=0.0, chi_values=(0.0, 1.0), exposures=0)
    with pytest.raises(DomainError):
        ScanPlan(alpha=0.0, chi_values=(0.0, 1.0), exposures=2.0)
    plan = ScanPlan(alpha=-math.pi, chi_values=(0.5,))
    assert abs(plan.alpha - math.pi) < 1e-12


def test_a_scan_of_more_cells_than_the_bound_is_refused_before_it_is_built():
    # Such a plan sampled as numpy's "Maximum allowed dimension exceeded"
    # ValueError, or without bound below that. Only sizes that build nothing
    # when the check is missing are tried: the plan and the grid are refused
    # one past the bound.
    assert ScanPlan(0.0, (0.0, 1.0), MAX_SCAN_CELLS // 2).exposures == MAX_SCAN_CELLS // 2
    bound = f"chi values x exposures must not exceed {MAX_SCAN_CELLS} scan cells, got 2 x "
    for exposures, shown in ((MAX_SCAN_CELLS // 2 + 1, "2097153"), (10**5000, "an integer of 5001 digits")):
        with pytest.raises(DomainError) as err:
            ScanPlan(0.0, (0.0, 1.0), exposures)
        assert str(err.value) == bound + shown
    with pytest.raises(DomainError) as err:
        uniform_chi_grid(MAX_SCAN_CELLS + 1)
    assert str(err.value) == f"grid size must not exceed {MAX_SCAN_CELLS}, got {MAX_SCAN_CELLS + 1}"


def test_reference_constants():
    assert abs(IDEAL_S - 2.0 * math.sqrt(2.0)) < 1e-15
    assert abs(CONTRAST_LIMITED_S - 2.0 * math.sqrt(2.0) * 0.73) < 1e-12
    assert REFERENCE_S == 2.051
    assert REFERENCE_PHASE_OFFSET == math.pi
    assert REFERENCE_SETTINGS == (0.0, math.pi / 2.0, 0.79 * math.pi, 1.29 * math.pi)
    # the published correlations were read at the four reference settings
    a1, a2, c1, c2 = REFERENCE_SETTINGS
    assert [(r.alpha, r.chi) for r in REFERENCE_EXPECTATIONS] == [
        (a, c) for a in (a1, a2) for c in (c1, c2)
    ]
    values = [r.value for r in REFERENCE_EXPECTATIONS]
    assert values == [0.542, 0.4882, -0.538, 0.438]


def test_reference_table_reproduces_published_sum():
    # negating the one negative term combines the published correlations
    # into their published CHSH sum
    total = sum(abs(r.value) for r in REFERENCE_EXPECTATIONS)
    assert abs(total - 2.0062) < 1e-12
    sigma = math.sqrt(sum(r.sigma**2 for r in REFERENCE_EXPECTATIONS))
    assert abs(sigma - 0.019) < 5e-4
    assert abs(total - REFERENCE_S) < 3.0 * 0.019
