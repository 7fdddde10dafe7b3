"""One rule for scalar arguments: an integer argument takes a Python or numpy
integer and never a bool; a real argument takes a finite int, float or numpy
real and never a bool or a string. Every site stores or returns a plain
``int`` or ``float``, and anything else ends as the site's typed error."""

import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinpath.analysis import (
    ExpectationEstimate,
    FitResult,
    check_negated_term,
    chsh_sum,
    e_obs_from_counts,
    fit_rate_curve,
    fit_rate_curves,
    s_of_visibility,
    s_prime,
)
from spinpath.angles import TWO_PI, canonical_angle, uniform_chi_grid
from spinpath.apparatus import ApparatusModel, ScanPlan
from spinpath.config import RunConfig, load_config
from spinpath.errors import (
    ConfigError,
    DomainError,
    PreconditionError,
    check_array,
    check_int,
    check_real,
    check_reals,
)
from spinpath.lhv import (
    empirical_s,
    ensemble_s,
    enumerate_strategies,
    sample_ensemble_counts,
    strategy_s,
)
from spinpath.montecarlo import (
    ScanResult,
    check_seed,
    poisson,
    read_scan_csv,
    sample_full_experiment,
    substream,
)
from spinpath.pipeline import load_fit_report, run_fit, run_lhv, run_threshold
from spinpath.report import format_real
from spinpath.states import (
    DensityOperator,
    JointState,
    Setting,
    bell_state,
    dephase_path,
    joint_probability,
    spin_projector,
)

_ESTIMATE = ExpectationEstimate(0.5, 0.1)
_POINT = np.eye(16)[0]
_EYE = np.eye(3)


def _nothing(_result):
    return None


def _fit(dof):
    return FitResult(1.0, 0.5, 0.0, _EYE, 1.0, dof, np.ones(3), _EYE)


# (site, kind, error, call): call(value, tmp_path) runs the site with the
# value and returns what the site stored or returned for it, or None where
# the site keeps nothing of it.
SITES = {
    "check_seed": ("int", DomainError, lambda v, _: check_seed(v)),
    "substream key part": ("int", DomainError, lambda v, _: _nothing(substream(1, v))),
    "poisson mean": ("real", DomainError, lambda v, _: _nothing(poisson(substream(1, 0), v))),
    "poisson size": ("int", DomainError, lambda v, _: len(poisson(substream(1, 0), 5.0, v))),
    "uniform_chi_grid": ("int", DomainError, lambda v, _: len(uniform_chi_grid(v))),
    "ApparatusModel.mean_rate": ("real", DomainError, lambda v, _: ApparatusModel(v).mean_rate),
    "ApparatusModel contrast": (
        "real",
        DomainError,
        lambda v, _: ApparatusModel(1.0, visibility_map=((0.0, v),)).visibility_map[0][1],
    ),
    "ApparatusModel.default_visibility": (
        "real",
        DomainError,
        lambda v, _: ApparatusModel(1.0, default_visibility=v).default_visibility,
    ),
    "ApparatusModel.drift_sigma": (
        "real",
        DomainError,
        lambda v, _: ApparatusModel(1.0, drift_sigma=v).drift_sigma,
    ),
    "ScanPlan chi": ("real", DomainError, lambda v, _: ScanPlan(0.0, (v,)).chi_values[0]),
    "ScanPlan.exposures": ("int", DomainError, lambda v, _: ScanPlan(0.0, (0.0,), v).exposures),
    "ScanResult repetition label": (
        "int",
        DomainError,
        lambda v, _: ScanResult(ScanPlan(0.0, (0.0,)), np.zeros((1, 1)), repetitions=(v,))
        .repetitions[0],
    ),
    "dephase_path": ("real", DomainError, lambda v, _: _nothing(dephase_path(bell_state(), v))),
    "ExpectationEstimate.value": ("real", DomainError, lambda v, _: ExpectationEstimate(v, 0).value),
    "ExpectationEstimate.sigma": ("real", DomainError, lambda v, _: ExpectationEstimate(0, v).sigma),
    "e_obs_from_counts": ("real", DomainError, lambda v, _: _nothing(e_obs_from_counts(v, 1, 1, 0))),
    "check_negated_term": ("int", DomainError, lambda v, _: check_negated_term(v)),
    "s_prime negated_term": (
        "int",
        DomainError,
        lambda v, _: s_prime(*[_ESTIMATE] * 4, negated_term=v).sign_convention,
    ),
    "s_of_visibility": ("real", DomainError, lambda v, _: _nothing(s_of_visibility(v))),
    "FitResult.dof": ("int", DomainError, lambda v, _: _fit(v).dof),
    "lhv settings": (
        "real",
        DomainError,
        lambda v, _: enumerate_strategies(((v, 0.0), (0.5, 2.0)))[0][0][0],
    ),
    "lhv shots": (
        "int",
        DomainError,
        lambda v, _: _nothing(sample_ensemble_counts(_POINT, v, seed=1)),
    ),
    "lhv weight": ("real", DomainError, lambda v, _: _nothing(ensemble_s([v] + [0.0] * 15))),
    "strategy_s outcome": ("int", DomainError, lambda v, _: _nothing(strategy_s((v, 1, 1, 1)))),
    "empirical_s channel count": (
        "real",
        DomainError,
        lambda v, _: _nothing(empirical_s([[v, 1, 1, 0]] + [[1, 1, 1, 0]] * 3)),
    ),
    "run_lhv sign_convention": (
        "int",
        DomainError,
        lambda v, tmp: run_lhv(tmp, shots=4, sign_convention=v)["negated_term"],
    ),
    "run_threshold visibility": (
        "real",
        DomainError,
        lambda v, tmp: run_threshold(tmp, visibilities=(v,), chi_points=8)["rows"][0]
        ["visibility"],
    ),
    "Setting.alpha": ("real", DomainError, lambda v, _: Setting(v, 0.0).alpha),
    "Setting.chi": ("real", DomainError, lambda v, _: Setting(0.0, v).chi),
    "ScanPlan.alpha": ("real", DomainError, lambda v, _: ScanPlan(v, (0.0,)).alpha),
    "ApparatusModel.phase_offset": (
        "real",
        DomainError,
        lambda v, _: ApparatusModel(1.0, phase_offset=v).phase_offset,
    ),
    "ApparatusModel map angle": (
        "real",
        DomainError,
        lambda v, _: ApparatusModel(1.0, visibility_map=((v, 0.5),)).visibility_map[0][0],
    ),
    "projector outcome sign": ("int", DomainError, lambda v, _: _nothing(spin_projector(0.3, v))),
    "joint_probability sign": (
        "int",
        DomainError,
        lambda v, _: _nothing(joint_probability(bell_state(), Setting(0.3, 0.2), v, 1)),
    ),
    "RunConfig.seed": ("int", DomainError, lambda v, _: RunConfig(seed=v).seed),
    "RunConfig.chi_points": ("int", ConfigError, lambda v, _: RunConfig(1, chi_points=v).chi_points),
    "RunConfig.repetitions": (
        "int",
        ConfigError,
        lambda v, _: RunConfig(1, repetitions=v).repetitions,
    ),
    "RunConfig.sign_convention": (
        "int",
        ConfigError,
        lambda v, _: RunConfig(1, sign_convention=v).sign_convention,
    ),
}

# Every site accepts 1 as an int and 1.0 as a real, so only the kind of the
# value decides.
VALUES = [True, 1.0, np.int64(1), np.float64(1.0), "1", math.nan]

# Inputs that ended in a bare TypeError, or were silently accepted, before
# every site went through check_int and check_real.
REPRODUCERS = [
    ("RunConfig.repetitions", True),
    ("RunConfig.repetitions", "3"),
    ("RunConfig.chi_points", 8.0),
    ("RunConfig.chi_points", np.int64(8)),
    ("RunConfig.sign_convention", True),
    ("run_lhv sign_convention", 1.0),
    ("run_lhv sign_convention", True),
    ("s_prime negated_term", 1.0),
    ("poisson size", 2.7),
    ("ScanPlan.exposures", True),
    ("ScanPlan.exposures", np.int64(2)),
    ("uniform_chi_grid", True),
    ("ScanResult repetition label", True),
    ("Setting.alpha", True),
    ("Setting.chi", "1.5"),
    ("ScanPlan.alpha", "0.5"),
    ("ApparatusModel.phase_offset", True),
    ("lhv weight", "0.5"),
    ("lhv weight", True),
    ("strategy_s outcome", True),
    ("strategy_s outcome", -1.0),
]


def _accepted(kind, value) -> bool:
    if isinstance(value, (bool, str)):
        return False
    if kind == "int":
        return isinstance(value, (int, np.integer))
    return math.isfinite(value)


@pytest.mark.parametrize(
    "site, value",
    [(site, value) for site in SITES for value in VALUES] + REPRODUCERS,
    ids=lambda x: x if isinstance(x, str) else repr(x),
)
def test_every_scalar_site_follows_one_rule(tmp_path, site, value):
    kind, error, call = SITES[site]
    if not _accepted(kind, value):
        with pytest.raises(error):
            call(value, tmp_path)
        return
    stored = call(value, tmp_path)
    if stored is not None:
        assert type(stored) is (int if kind == "int" else float)
        assert stored == value


ODD_VALUES = st.sampled_from(
    [
        None,
        "",
        "1",
        b"1",
        [1],
        1j,
        Fraction(1, 2),
        Decimal("1"),
        np.bool_(True),
        np.uint64(2**64 - 1),
        np.longdouble(2.5),
        10**400,
        -(10**400),
        2**63,
    ]
)
ANY_VALUE = (
    st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats(width=32).map(np.float32)
    | ODD_VALUES
)


@given(value=ANY_VALUE, low=st.integers(-5, 5), span=st.none() | st.integers(0, 10))
@example(value=np.uint64(2**64 - 1), low=0, span=None)
def test_check_int_returns_an_int_in_range_or_raises_a_domain_error(value, low, span):
    high = None if span is None else low + span
    try:
        result = check_int(value, "n", low, high)
    except DomainError:
        assert not _accepted("int", value) or value < low or (high is not None and value > high)
        return
    assert _accepted("int", value)
    assert type(result) is int and result == value
    assert low <= result and (high is None or result <= high)


@given(
    value=ANY_VALUE,
    low=st.floats(allow_nan=False) | st.just(-math.inf),
    high=st.floats(allow_nan=False) | st.just(math.inf),
)
@example(value=10**400, low=-math.inf, high=math.inf)  # float() overflows
@example(value=np.float32(2.5), low=0.0, high=math.inf)
def test_check_real_returns_a_float_in_range_or_raises_a_domain_error(value, low, high):
    try:
        result = check_real(value, "x", low, high)
    except DomainError:
        return
    assert not isinstance(value, (bool, str, np.bool_))
    assert isinstance(value, (int, float, np.integer, np.floating))
    assert type(result) is float and math.isfinite(result)
    assert low <= result <= high
    assert result == float(value)


def test_a_huge_integer_is_a_domain_error_that_names_its_digit_count():
    # Python refuses to print an int of more than 4,300 digits; the checks
    # show a long int by its digit count instead
    for call in (
        lambda: check_real(10**5000, "x"),
        lambda: check_int(10**5000, "n", 0, 10),
        lambda: check_int(-(10**5000), "n", 0),
        lambda: substream(1, 0, 10**5000),
    ):
        with pytest.raises(DomainError, match="got an integer of 5001 digits$"):
            call()
    # up to 30 digits are shown in full
    with pytest.raises(DomainError, match=f"got {10**30 - 1}$"):
        check_int(10**30 - 1, "n", 0, 10)
    for digits in range(31, 400):
        for value in (10 ** (digits - 1), 10**digits - 1):
            with pytest.raises(DomainError, match=f"got an integer of {digits} digits$"):
                check_int(value, "n", 0, 10)


_PLAN_4 = ScanPlan(0.0, (0.0, 1.0, 2.0, 3.0))

# Arguments of the two scan constructors that ended in a built-in
# ValueError, TypeError or OverflowError, or were silently taken as counts.
SCAN_CONSTRUCTOR_CASES = {
    "string grid": lambda: ScanResult(_PLAN_4, "x"),
    "string count": lambda: ScanResult(_PLAN_4, [[1, 2, 3, "a"]]),
    "numeric strings": lambda: ScanResult(_PLAN_4, [["1", "2", "3", "4"]]),
    "object grid": lambda: ScanResult(_PLAN_4, object()),
    "object counts": lambda: ScanResult(_PLAN_4, [[object()] * 4]),
    "huge int counts": lambda: ScanResult(_PLAN_4, [[10**400] * 4]),
    "ragged grid": lambda: ScanResult(_PLAN_4, [[1, 2, 3, 4], [5]]),
    "mapping grid": lambda: ScanResult(_PLAN_4, {"a": 1}),
    "bool counts": lambda: ScanResult(_PLAN_4, [[True] * 4]),
    "complex counts": lambda: ScanResult(_PLAN_4, [[1j] * 4]),
    "no chi values": lambda: ScanPlan(0.0, None),
    "an int for chi values": lambda: ScanPlan(0.0, 5),
    "an object for chi values": lambda: ScanPlan(0.0, object()),
}


@pytest.mark.parametrize("case", list(SCAN_CONSTRUCTOR_CASES))
def test_scan_constructors_raise_domain_errors(case):
    with pytest.raises(DomainError, match="counts must be a grid of real numbers|chi values"):
        SCAN_CONSTRUCTOR_CASES[case]()


# Arguments of the lhv, fit and state entries that ended in a built-in
# TypeError or ValueError.
ENTRY_CASES = {
    "no lhv settings": lambda _: enumerate_strategies(None),
    "one path setting": lambda _: enumerate_strategies(((1.0, 2.0), (3.0,))),
    "one spin setting for run_lhv": lambda tmp: run_lhv(tmp, alphas=[1.0], chis=(0.0, 1.0)),
    "an int for run_lhv alphas": lambda tmp: run_lhv(tmp, alphas=5, chis=(0.0, 1.0)),
    "a string for fit chi": lambda _: fit_rate_curve("x", [1, 2, 3, 4]),
    "strings for fit counts": lambda _: fit_rate_curves([0.0, 1.0, 2.0, 3.0], [["a"] * 4]),
    "a ragged fit grid": lambda _: fit_rate_curves([0.0, 1.0], [[1, 2], [3]]),
    "a string state": lambda _: JointState("x"),
    "an object state": lambda _: JointState([object()] * 4),
}


@pytest.mark.parametrize("case", list(ENTRY_CASES))
def test_malformed_entry_arguments_raise_domain_errors(tmp_path, case):
    with pytest.raises(DomainError):
        ENTRY_CASES[case](tmp_path)


# The entries that read a text file take a str or os.PathLike path; they
# raised a bare TypeError on anything else.
PATH_READERS = {
    "read_scan_csv": read_scan_csv,
    "load_config": load_config,
    "load_fit_report": load_fit_report,
}


@pytest.mark.parametrize("reader", list(PATH_READERS))
@pytest.mark.parametrize("value", [None, 5, b"x", ["a"]], ids=repr)
def test_a_path_that_is_not_a_path_is_a_precondition_error(reader, value):
    with pytest.raises(PreconditionError, match=f"got {type(value).__name__}$"):
        PATH_READERS[reader](value)


@pytest.mark.parametrize("value", [None, 5, b"x", ["a"]], ids=repr)
def test_run_fit_on_a_path_that_is_not_a_path_is_a_precondition_error(tmp_path, value):
    with pytest.raises(PreconditionError, match=f"got {type(value).__name__}$"):
        run_fit([value], tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["scan.csv", b"scan.csv", Path("scan.csv"), None, 5], ids=repr)
def test_run_fit_on_csv_paths_that_are_not_a_list_of_paths_is_a_precondition_error(
    tmp_path, monkeypatch, value
):
    # A single path is refused whole, not read one character at a time,
    # though a file named after its first character is there to be read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s").write_text("")
    with pytest.raises(PreconditionError, match=f"got {type(value).__name__}$"):
        run_fit(value, tmp_path / "out")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "s"]


# One rule for list arguments, check_reals: a str, bytes or anything that is
# not iterable is refused naming its type, and each entry follows check_real.
@pytest.mark.parametrize(
    "value", ["0.5", b"0.5", None, 5, 0.5, np.float64(0.5), np.array(0.5), object()], ids=repr
)
def test_check_reals_refuses_a_string_or_a_non_iterable_naming_its_type(value):
    message = f"^xs must be a sequence of reals, got {type(value).__name__}$"
    with pytest.raises(DomainError, match=message):
        check_reals(value, "xs")


@given(values=st.lists(ANY_VALUE, max_size=4), low=st.just(-1.0) | st.just(-math.inf))
def test_check_reals_checks_each_entry_by_check_real(values, low):
    try:
        want = tuple(check_real(value, "x", low) for value in values)
    except DomainError:
        with pytest.raises(DomainError, match="^an entry of xs must"):
            check_reals(values, "xs", low)
        return
    result = check_reals(iter(values), "xs", low)  # any iterable
    assert result == want and all(type(entry) is float for entry in result)


_MODEL = ApparatusModel(10.0)

# List arguments that raised a bare TypeError before every list argument went
# through check_reals; each now raises the site's typed error naming the type
# it got. (error, type name, call(tmp_path))
LIST_CASES = {
    "run_threshold visibilities None": (
        DomainError,
        "NoneType",
        lambda tmp: run_threshold(tmp / "out", visibilities=None, chi_points=8),
    ),
    "run_threshold visibilities 0.5": (
        DomainError,
        "float",
        lambda tmp: run_threshold(tmp / "out", visibilities=0.5, chi_points=8),
    ),
    "sample_full_experiment alphas None": (
        DomainError,
        "NoneType",
        lambda _: sample_full_experiment(_MODEL, None, (0.0, 1.0, 2.0, 3.0), 1, 1),
    ),
    "sample_full_experiment chi values None": (
        DomainError,
        "NoneType",
        lambda _: sample_full_experiment(_MODEL, (0.0, 1.0), None, 1, 1),
    ),
    "RunConfig alphas 5": (ConfigError, "int", lambda _: RunConfig(seed=1, alphas=5)),
}


@pytest.mark.parametrize("case", list(LIST_CASES))
def test_a_list_argument_that_is_not_a_list_is_a_typed_error_naming_its_type(tmp_path, case):
    error, kind, call = LIST_CASES[case]
    with pytest.raises(error, match=f"must be a sequence of reals, got {kind}$"):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []


# One rule for array arguments, check_array: what numpy cannot read as an
# array of the site's dtype is a DomainError with the site's message. Each
# value below raised a bare ValueError, OverflowError or TypeError before.
_NOT_ARRAYS = {"a string": "x", "a ragged list": [[1.0, 2.0], [3.0]], "a huge int": 10**400}
_FIT_FIELDS = {"covariance": 3, "coeffs": 6, "coeff_covariance": 7}


def _fit_with(field, value):
    args = [1.0, 0.5, 0.0, _EYE, 1.0, 1, np.ones(3), _EYE]
    args[_FIT_FIELDS[field]] = value
    return FitResult(*args)


ARRAY_CASES = {
    **{
        f"FitResult {field} {kind}": (
            "fit result matrices must hold real numbers",
            lambda f=field, v=value: _fit_with(f, v),
        )
        for field in _FIT_FIELDS
        for kind, value in _NOT_ARRAYS.items()
    },
    **{
        f"DensityOperator {kind}": (
            "density operator entries must be complex numbers",
            lambda v=value: DensityOperator(v),
        )
        for kind, value in _NOT_ARRAYS.items()
    },
    "chsh_sum of an int": ("CHSH needs exactly 4 values", lambda: chsh_sum(5)),
    "chsh_sum of None": ("CHSH needs exactly 4 values", lambda: chsh_sum(None)),
    "chsh_sum of strings": ("CHSH values must be real numbers", lambda: chsh_sum(["x"] * 4)),
}


@pytest.mark.parametrize("case", list(ARRAY_CASES))
def test_an_argument_numpy_cannot_read_as_an_array_is_a_domain_error(case):
    message, call = ARRAY_CASES[case]
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "value", [*_NOT_ARRAYS.values(), {"a": 1}, object()], ids=[*_NOT_ARRAYS, "a dict", "an object"]
)
def test_check_array_refuses_with_the_callers_message(value):
    with pytest.raises(DomainError, match="^the message$"):
        check_array(value, "the message")


def test_check_array_returns_an_array_of_the_dtype():
    array = check_array([[1, 2], [3, 4]], "unused")
    assert array.dtype == np.float64 and array.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert check_array([1j], "unused", complex).dtype == np.complex128
    existing = np.ones(3)
    assert check_array(existing, "unused") is existing  # no copy of a float array


@pytest.mark.parametrize("angle", [0.0, -0.0, TWO_PI, -TWO_PI, 4 * TWO_PI, -4 * TWO_PI])
def test_a_zero_angle_is_positive_zero(angle):
    # fmod keeps the sign of a zero; a zero angle must still come back as
    # +0.0, which format_real prints as "0", not "-0".
    result = canonical_angle(angle)
    assert result == 0.0 and math.copysign(1.0, result) == 1.0
    assert format_real(result) == "0"
    assert math.copysign(1.0, Setting(angle, angle).chi) == 1.0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_angle_lies_in_the_circle_with_no_negative_zero(angle):
    result = canonical_angle(angle)
    assert type(result) is float
    assert 0.0 <= result < TWO_PI and math.copysign(1.0, result) == 1.0
    assert result == canonical_angle(np.float64(angle))
