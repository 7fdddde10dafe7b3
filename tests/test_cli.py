"""Command-line interface: exit codes, output contracts, error objects."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spinpath
from spinpath import RunConfig, cli
from spinpath.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_error(err_text):
    assert err_text.endswith("\n")
    line = err_text.strip()
    assert "\n" not in line, "error object must be a single line"
    payload = json.loads(line)
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"type", "message"}
    return payload["error"]


def write_fast_config(tmp_path, seed=6, **overrides):
    path = tmp_path / "run.cfg"
    kw = dict(chi_points=12, repetitions=3)
    kw.update(overrides)
    RunConfig(seed=seed, **kw).save(path)
    return path


def test_no_command_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert out == ""
    assert parse_error(err)["type"] == "UsageError"


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert parse_error(err)["type"] == "UsageError"


@pytest.mark.parametrize(
    "argv",
    [("fit", "scan.csv", "--seed", "1"), ("chsh", "--fits", "fits.json", "--seed", "1")],
    ids=["fit", "chsh"],
)
def test_seed_on_a_command_that_draws_nothing_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "UsageError"
    assert "--seed" in error["message"]


def test_bad_angle_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "chsh", "--fits", "x.json", "--alpha1", "sideways")
    assert code == 2
    error = parse_error(err)
    assert error["type"] == "UsageError"
    assert "sideways" in error["message"]


def test_simulate_writes_and_prints_manifest(capsys, tmp_path):
    cfg = write_fast_config(tmp_path)
    out_dir = tmp_path / "sim"
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    assert err == ""
    manifest = json.loads(out)
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 6
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "scan_00.csv").exists()
    # stdout is exactly the stored manifest
    assert out == (out_dir / "manifest.json").read_text()


def test_simulate_csv_format(capsys, tmp_path):
    cfg = write_fast_config(tmp_path)
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "s"), "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "path,alpha_rad,records"
    assert len(lines) == 5
    assert lines[1].startswith("scan_00.csv,")


def test_simulate_seed_override(capsys, tmp_path):
    cfg = write_fast_config(tmp_path, seed=6)
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "s")
    )
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_simulate_rejects_negative_seed(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--seed", "-4", "--out", str(tmp_path / "s"))
    assert code == 1
    assert parse_error(err)["type"] == "DomainError"


def test_simulate_without_alphas_is_one_error_line(capsys, tmp_path):
    cfg = write_fast_config(tmp_path)
    text = cfg.read_text()
    alphas_line = next(line for line in text.splitlines() if line.startswith("alphas"))
    cfg.write_text(text.replace(alphas_line, "alphas ="))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "DomainError"
    assert "alpha" in error["message"]
    assert not (tmp_path / "s" / "manifest.json").exists()


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "ghost.cfg"), "--out", str(tmp_path / "s")
    )
    assert code == 1
    error = parse_error(err)
    assert error["type"] == "ConfigError"
    assert "ghost.cfg" in error["message"]


def simulate_scans(capsys, tmp_path, seed=6):
    cfg = write_fast_config(tmp_path, seed=seed)
    out_dir = tmp_path / "sim"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    manifest = json.loads(out)
    return [str(out_dir / e["path"]) for e in manifest["scan_files"]]


def test_fit_and_chsh_chain(capsys, tmp_path):
    csvs = simulate_scans(capsys, tmp_path)
    fit_dir = tmp_path / "fit"
    code, out, _ = run_cli(capsys, "fit", *csvs, "--out", str(fit_dir))
    assert code == 0
    fits = json.loads(out)
    assert len(fits["fits"]) == 4
    assert (fit_dir / "fits.json").exists()

    chsh_dir = tmp_path / "chsh"
    code, out, _ = run_cli(
        capsys, "chsh", "--fits", str(fit_dir / "fits.json"), "--out", str(chsh_dir)
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "chsh"
    assert report["sign_convention"] == "auto"
    assert len(report["terms"]) == 4
    assert (chsh_dir / "chsh.json").exists()


def test_fit_csv_format(capsys, tmp_path):
    csvs = simulate_scans(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "fit", *csvs, "--out", str(tmp_path / "f"), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source,alpha_rad,amplitude,visibility,visibility_sigma,phase_rad,chi_square,dof"
    assert len(lines) == 5


def test_fit_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", str(tmp_path / "nosuch.csv"), "--out", str(tmp_path))
    assert code == 1
    error = parse_error(err)
    assert error["type"] == "IoError"
    assert "nosuch.csv" in error["message"]


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (("lhv", "--shots", "1000"), "lhv.json"),
        (("threshold", "--visibilities", "0.8", "--counts", "1000"), "threshold.csv"),
    ],
    ids=["lhv", "threshold"],
)
def test_artifact_path_that_is_a_directory_is_io_error(capsys, tmp_path, argv, artifact):
    (tmp_path / artifact).mkdir()
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    error = parse_error(err)
    assert error["type"] == "IoError"
    assert error["message"].endswith(": " + str(tmp_path / artifact))


# Equal counts at four irregular phases: the fit is exact with c1 = c2 = 0, so
# the fitted modulation is zero and the phase's delta-method variance is 0/0.
ZERO_MODULATION_CSV = (
    "alpha_rad,chi_rad,repetition,counts\n"
    "0,-7.699,0,2\n0,-5.035,0,2\n0,7.811,0,2\n0,-7.326,0,2\n"
)


def test_fit_with_zero_modulation_is_one_error_line(capsys, tmp_path):
    scan = tmp_path / "flat.csv"
    scan.write_text(ZERO_MODULATION_CSV)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "fit", str(scan), "--out", str(tmp_path / "f"))
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "SingularFitError"
    assert "modulation is zero or vanishing" in error["message"]


def test_fit_rejects_malformed_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha_rad,chi_rad,repetition,counts\n0,0,0,-5\n")
    code, _, err = run_cli(capsys, "fit", str(bad), "--out", str(tmp_path / "f"))
    assert code == 1
    error = parse_error(err)
    assert error["type"] == "CsvFormatError"
    assert "line 2" in error["message"]


@pytest.mark.parametrize(
    "command, kind, message",
    [
        ("fit", "CsvFormatError", "line 3: non-ASCII byte 0xc3"),
        ("chsh", "PreconditionError", "line 3: non-ASCII byte 0xc3"),
        ("reproduce", "ConfigError", "line 3: non-ASCII byte 0xc3"),
    ],
    ids=["fit", "chsh", "reproduce"],
)
def test_non_ascii_input_is_one_error_line(capsys, tmp_path, command, kind, message):
    # the input error of each reader: a CSV, a fit report and a config file
    data = b"alpha_rad,chi_rad,repetition,counts\n0,0,0,5\n0,1,0,5\xc3\xa9\n"
    if command == "chsh":
        data = b'{"fits": [],\n\n"caf\xc3\xa9": 1}\n'
    elif command == "reproduce":
        data = b"seed = 4\nchi_points = 8\n# caf\xc3\xa9\n"
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = {"fit": [str(path)], "chsh": ["--fits", str(path)], "reproduce": ["--config", str(path)]}
    code, out, err = run_cli(capsys, command, *argv[command], "--out", str(tmp_path / "o"))
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == kind
    assert error["message"].endswith(message)


@pytest.mark.parametrize("command", ["reproduce", "simulate"])
def test_a_config_of_too_many_scan_cells_is_one_error_line(capsys, tmp_path, command):
    # numpy refuses a sample of 10**20 cells at once, as a bare ValueError
    # with a traceback; the config is now refused before any output.
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 4\nrepetitions = 99999999999999999999\n")
    code, out, err = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert (code, out) == (1, "")
    error = parse_error(err)
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("chi_points x repetitions must not exceed")
    assert not (tmp_path / "o").exists()


# The exact bytes of error lines: ", " and ": " separators, and every quote,
# backslash and non-ASCII character escaped, an astral one as a surrogate pair.
ERROR_LINES = {
    "usage": (
        ["threshold", "--visibilities", 'a"b'],
        2,
        b'{"error": {"type": "UsageError", "message": "argument --visibilities: '
        b'cannot parse visibility list \'a\\"b\'"}}\n',
    ),
    "quote": (
        ["chsh", "--fits", 'q"uote.json'],
        1,
        b'{"error": {"type": "PreconditionError", "message": "fit report q\\"uote.json: '
        b'line 1: non-ASCII byte 0xff"}}\n',
    ),
    "backslash": (
        ["chsh", "--fits", "back\\slash.json"],
        1,
        b'{"error": {"type": "PreconditionError", "message": "fit report back\\\\slash.json: '
        b'line 1: non-ASCII byte 0xff"}}\n',
    ),
    "e-acute": (
        ["chsh", "--fits", "caf\u00e9.json"],
        1,
        b'{"error": {"type": "PreconditionError", "message": "fit report caf\\u00e9.json: '
        b'line 1: non-ASCII byte 0xff"}}\n',
    ),
    "astral": (
        ["chsh", "--fits", "clef\U0001d11e.json"],
        1,
        b'{"error": {"type": "PreconditionError", "message": "fit report clef\\ud834\\udd1e.json: '
        b'line 1: non-ASCII byte 0xff"}}\n',
    ),
}


@pytest.mark.parametrize("case", list(ERROR_LINES))
def test_an_error_line_is_pinned_byte_for_byte(capsysbinary, tmp_path, monkeypatch, case):
    argv, code, line = ERROR_LINES[case]
    monkeypatch.chdir(tmp_path)
    if argv[0] == "chsh":
        (tmp_path / argv[2]).write_bytes(b"\xff\n")
    assert main(argv) == code
    out, err = capsysbinary.readouterr()
    assert (out, err) == (b"", line)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.text(), message=st.text())
def test_an_error_line_is_one_ascii_line_that_reads_back(capsys, kind, message):
    cli._emit_error(kind, message)
    err = capsys.readouterr().err
    assert err.isascii() and err.endswith("\n") and err.count("\n") == 1
    payload = {"error": {"type": kind, "message": message}}
    assert json.loads(err) == payload
    assert err == json.dumps(payload) + "\n"


def test_error_message_has_no_numpy_repr(capsys, tmp_path):
    zero = tmp_path / "zero.csv"
    zero.write_text(
        "alpha_rad,chi_rad,repetition,counts\n" + "".join(f"0,{k},0,0\n" for k in range(5))
    )
    code, out, err = run_cli(capsys, "fit", str(zero), "--out", str(tmp_path / "f"))
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "SingularFitError"
    assert error["message"] == "fitted mean rate is not positive (0)"
    assert "np." not in error["message"]


def test_chsh_missing_fit_report(capsys, tmp_path):
    code, _, err = run_cli(capsys, "chsh", "--fits", str(tmp_path / "none.json"))
    assert code == 1
    assert parse_error(err)["type"] == "PreconditionError"


def test_chsh_missing_alpha_scans(capsys, tmp_path):
    csvs = simulate_scans(capsys, tmp_path)
    fit_dir = tmp_path / "fit"
    code, _, _ = run_cli(capsys, "fit", csvs[0], csvs[1], "--out", str(fit_dir))
    assert code == 0
    code, _, err = run_cli(
        capsys, "chsh", "--fits", str(fit_dir / "fits.json"), "--out", str(tmp_path / "c")
    )
    assert code == 1
    error = parse_error(err)
    assert error["type"] == "DomainError"
    assert "alpha" in error["message"]


@pytest.mark.parametrize(
    "settings, message",
    [
        (
            ("--alpha1", "pi/2", "--alpha2", "pi/2"),
            "the two spin settings must be distinct angles, "
            "got 1.5707963267948966 and 1.5707963267948966",
        ),
        (
            ("--alpha1", "0", "--alpha2", "2pi"),
            "the two spin settings must be distinct angles, got 0.0 and 6.283185307179586",
        ),
        (
            ("--chi1", "0.79pi", "--chi2", "0.79pi"),
            "the two path settings must be distinct angles, "
            "got 2.4818581963359367 and 2.4818581963359367",
        ),
    ],
    ids=["alpha1 = alpha2", "alpha 0 and 2pi", "chi1 = chi2"],
)
def test_chsh_refuses_a_degenerate_quadruple_in_one_error_line(
    capsys, tmp_path, settings, message
):
    csvs = simulate_scans(capsys, tmp_path)
    code, _, _ = run_cli(capsys, "fit", *csvs, "--out", str(tmp_path / "fit"))
    assert code == 0
    fits = str(tmp_path / "fit" / "fits.json")
    argv = ("chsh", "--fits", fits, *settings, "--out", str(tmp_path / "c"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert parse_error(err) == {"type": "DomainError", "message": message}
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "overrides, kind, message",
    [
        (
            {"alphas": (0.0, math.pi / 2.0)},
            "DomainError",
            "configured alphas lack a scan at 3.1415926535897931 rad; "
            "a CHSH sum needs each analyzer angle and its pi-shifted partner",
        ),
        (
            {"alpha2": 0.0},
            "DomainError",
            "the two spin settings must be distinct angles, got 0.0 and 0.0",
        ),
        (
            {"chi_points": 3},
            "InsufficientDataError",
            "need at least 4 distinct chi values, got 3",
        ),
        (
            {"alphas": (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi, 2.0 * math.pi)},
            "DomainError",
            "configured alphas hold 2 scans at 0 rad; "
            "a CHSH sum reads one scan at each analyzer angle",
        ),
    ],
    ids=["missing partner", "degenerate quadruple", "3-point grid", "two scans at alpha 0"],
)
def test_a_refused_reproduce_creates_no_output_directory(
    capsys, tmp_path, overrides, kind, message
):
    cfg = write_fast_config(tmp_path, **overrides)
    out_dir = tmp_path / "r"
    code, out, err = run_cli(capsys, "reproduce", "--config", str(cfg), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert parse_error(err) == {"type": kind, "message": message}
    assert not out_dir.exists()


def synthetic_fit_report(covariance):
    entries = []
    for alpha in (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi):
        entries.append(
            {
                "source": "scan.csv",
                "alpha_rad": alpha,
                "amplitude": 100.0,
                "visibility": 0.5,
                "phase_rad": alpha,
                "covariance_av_phi": covariance,
                "chi_square": 9.0,
                "dof": 9,
                "coeffs": [100.0, 50.0 * math.cos(alpha), -50.0 * math.sin(alpha)],
                "coeff_covariance": covariance,
            }
        )
    return {"schema_version": 1, "command": "fit", "fits": entries}


def test_chsh_refuses_a_second_fit_at_an_analyzer_angle_in_one_error_line(capsys, tmp_path):
    # A second fit at alpha 0, three times the first's amplitude, used to be
    # ignored without a word.
    report = synthetic_fit_report([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    second = dict(report["fits"][0], amplitude=300.0, coeffs=[300.0, 150.0, 0.0])
    report["fits"].append(second)
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "chsh", "--fits", str(path), "--out", str(tmp_path / "c"))
    assert (code, out) == (1, "")
    assert parse_error(err) == {
        "type": "DomainError",
        "message": "the fit report's alphas hold 2 scans at 0 rad; "
        "a CHSH sum reads one scan at each analyzer angle",
    }
    assert not (tmp_path / "c").exists()


def _drop_amplitude(report):
    del report["fits"][0]["amplitude"]


def _bad_dof(report):
    report["fits"][1]["dof"] = "x"


def _fractional_dof(report):
    report["fits"][2]["dof"] = 2.5


def _boolean_dof(report):
    report["fits"][3]["dof"] = True


def _fits_not_a_list(report):
    report["fits"] = 5


def _huge_alpha(report):
    report["fits"][1]["alpha_rad"] = 10**400


def _huge_coeff(report):
    report["fits"][2]["coeffs"] = [10**400, 0.0, 0.0]


def _overflowing_coeffs(report):
    report["fits"][1]["coeffs"] = [1e308, 1e308, 1e308]


def _string_alpha(report):
    report["fits"][1]["alpha_rad"] = "0"


def _string_amplitude(report):
    report["fits"][0]["amplitude"] = "1e2"


def _string_coeffs(report):
    report["fits"][2]["coeffs"] = ["100", "0", "0"]


def _boolean_chi_square(report):
    report["fits"][3]["chi_square"] = False


def _nan_amplitude(report):
    report["fits"][0]["amplitude"] = math.nan


def _infinite_coeff_covariance(report):
    report["fits"][2]["coeff_covariance"] = [[1.0, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, 1.0]]


def _zero_covariances(report):
    for entry in report["fits"]:
        entry["covariance_av_phi"] = entry["coeff_covariance"] = [[0.0] * 3] * 3


@pytest.mark.parametrize(
    "corrupt, kind, needle",
    [
        (_drop_amplitude, "PreconditionError", "entry 0"),
        (_bad_dof, "PreconditionError", "entry 1"),
        (_fractional_dof, "PreconditionError", "entry 2"),
        (_boolean_dof, "PreconditionError", "entry 3"),
        (_fits_not_a_list, "PreconditionError", "list"),
        (_zero_covariances, "DomainError", "sigma"),
        (_huge_alpha, "PreconditionError", "entry 1 is malformed: alpha_rad must be finite"),
        (_huge_coeff, "PreconditionError", "entry 2 is malformed: coeffs must be finite"),
        (_overflowing_coeffs, "DomainError", "finite"),
        (_string_alpha, "PreconditionError", "entry 1 is malformed: alpha_rad must be a real number"),
        (_string_amplitude, "PreconditionError", "entry 0 is malformed: amplitude must be a real number"),
        (_string_coeffs, "PreconditionError", "entry 2 is malformed: coeffs must be a real number"),
        (_boolean_chi_square, "PreconditionError", "entry 3 is malformed: chi_square must be"),
        (_nan_amplitude, "PreconditionError", "entry 0 is malformed: amplitude must be finite"),
        (
            _infinite_coeff_covariance,
            "PreconditionError",
            "entry 2 is malformed: coeff_covariance must be finite",
        ),
    ],
    ids=[
        "missing_field",
        "bad_dof",
        "fractional_dof",
        "boolean_dof",
        "fits_not_a_list",
        "zero_sigma",
        "huge_alpha",
        "huge_coeff",
        "overflowing_coeffs",
        "string_alpha",
        "string_amplitude",
        "string_coeffs",
        "boolean_chi_square",
        "nan_amplitude",
        "infinite_coeff_covariance",
    ],
)
def test_chsh_malformed_fit_report_is_one_error_line(capsys, tmp_path, corrupt, kind, needle):
    identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(synthetic_fit_report(identity)))
    code, _, _ = run_cli(capsys, "chsh", "--fits", str(good), "--out", str(tmp_path / "c"))
    assert code == 0
    report = synthetic_fit_report(identity)
    corrupt(report)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "chsh", "--fits", str(bad), "--out", str(tmp_path / "c"))
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == kind
    assert needle in error["message"]


def test_a_huge_integer_field_is_echoed_by_its_digit_count(capsys, tmp_path):
    report = synthetic_fit_report([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    _huge_alpha(report)
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "chsh", "--fits", str(path), "--out", str(tmp_path / "c"))
    assert (code, out) == (1, "")
    assert len(err.encode()) <= 200
    assert parse_error(err)["message"].endswith("got an integer of 401 digits")


def test_chsh_accepts_integer_fit_numbers(capsys, tmp_path):
    # the report renderer writes a float 0.0 as 0, so a fits.json can hold ints
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    report = synthetic_fit_report(identity)
    for entry in report["fits"]:
        entry["alpha_rad"] = round(entry["alpha_rad"], 9)
        entry.update(amplitude=100, chi_square=9, coeffs=[round(c) for c in entry["coeffs"]])
    assert report["fits"][0]["coeffs"] == [100, 50, 0]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "chsh", "--fits", str(path), "--out", str(tmp_path / "c"))
    assert (code, err) == (0, "")
    assert len(json.loads(out)["terms"]) == 4


FIT_FIELDS = list(synthetic_fit_report([])["fits"][0])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63, 2**1024])
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Shaped like the coefficient and covariance fields, so odd entries get past
# the shape checks into the numerics.
JSON_VECTORS = st.lists(JSON_SCALARS, min_size=3, max_size=3)
JSON_SHAPED = JSON_VECTORS | st.lists(JSON_VECTORS, min_size=3, max_size=3)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    index=st.integers(0, 3),
    field=st.sampled_from(FIT_FIELDS),
    value=JSON_VALUES | JSON_SHAPED,
)
def test_chsh_gives_a_report_or_one_error_line_for_any_field_value(
    capsys, tmp_path, index, field, value
):
    report = synthetic_fit_report([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    report["fits"][index][field] = value
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "chsh", "--fits", str(path), "--out", str(tmp_path / "c"))
    if code == 0:
        assert err == ""
        assert json.loads(out)["command"] == "chsh"
    else:
        assert code == 1
        assert out == ""
        parse_error(err)


def test_chsh_sign_convention_flag(capsys, tmp_path):
    csvs = simulate_scans(capsys, tmp_path)
    fit_dir = tmp_path / "fit"
    run_cli(capsys, "fit", *csvs, "--out", str(fit_dir))
    code, out, _ = run_cli(
        capsys,
        "chsh",
        "--fits",
        str(fit_dir / "fits.json"),
        "--out",
        str(tmp_path / "c"),
        "--sign-convention",
        "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["sign_convention"] == 2
    assert report["negated_term"] == 2


def test_chsh_csv_format(capsys, tmp_path):
    csvs = simulate_scans(capsys, tmp_path)
    fit_dir = tmp_path / "fit"
    run_cli(capsys, "fit", *csvs, "--out", str(fit_dir))
    code, out, _ = run_cli(
        capsys,
        "chsh",
        "--fits",
        str(fit_dir / "fits.json"),
        "--out",
        str(tmp_path / "c"),
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha_rad,chi_rad,sign,value,sigma"
    assert len(lines) == 5


def test_threshold_defaults_to_csv(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "threshold",
        "--visibilities",
        "0.6,0.8",
        "--counts",
        "2000",
        "--seed",
        "4",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "visibility,s_analytic,s_simulated,s_sigma"
    assert len(lines) == 3
    assert (tmp_path / "threshold.csv").exists()
    assert (tmp_path / "threshold.json").exists()
    assert out == (tmp_path / "threshold.csv").read_text()


def test_threshold_json_format(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "threshold",
        "--visibilities",
        "0.7,0.9",
        "--counts",
        "1000",
        "--out",
        str(tmp_path),
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert [row["visibility"] for row in report["rows"]] == [0.7, 0.9]


def test_threshold_mean_above_sampler_bound(capsys, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "threshold", "--counts", "1e300", "--visibilities", "0.8", "--out", str(tmp_path)
        )
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "DomainError"
    assert "must not exceed 1e+07" in error["message"]


def test_threshold_counts_above_sampler_bound_names_the_option(capsys, tmp_path):
    # 6e6 * (1 + V) exceeds the sampler's bound from the default sweep's V = 0.7 on
    code, out, err = run_cli(capsys, "threshold", "--counts", "6e6", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "DomainError"
    message = error["message"]
    assert "counts_per_point" in message and "visibility 0.7" in message
    assert "must not exceed 1e+07" in message
    # 5.8e6 * 1.7 = 9.86e6 lies below the bound
    code, _, err = run_cli(
        capsys, "threshold", "--counts", "5.8e6", "--visibilities", "0.7", "--out", str(tmp_path)
    )
    assert (code, err) == (0, "")


def test_threshold_bad_visibility_list(capsys, tmp_path):
    code, _, err = run_cli(capsys, "threshold", "--visibilities", "high,low")
    assert code == 2
    assert parse_error(err)["type"] == "UsageError"


def test_threshold_empty_visibility_list(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "threshold", "--visibilities", ",")
    assert (code, out) == (2, "")
    message = "argument --visibilities: visibility list is empty"
    assert parse_error(err) == {"type": "UsageError", "message": message}
    assert list(tmp_path.iterdir()) == []


def test_lhv_json_payload(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "lhv", "--shots", "1000", "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "lhv"
    assert len(report["strategies"]) == 16
    assert report["max_abs_s"] == 2.0
    assert report["classical_bound"] == 2.0
    assert abs(report["quantum_s"] - 2.0 * math.sqrt(2.0)) < 1e-12
    assert (tmp_path / "lhv.json").exists()


def test_lhv_csv_format(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "lhv", "--shots", "500", "--out", str(tmp_path), "--format", "csv"
    )
    assert code == 0
    # the strategy table holds no sampled values, so the whole text is fixed
    assert out == (
        "index,spin_a1,spin_a2,path_c1,path_c2,s_value\n"
        "0,1,1,1,1,2\n"
        "1,1,1,1,-1,2\n"
        "2,1,1,-1,1,-2\n"
        "3,1,1,-1,-1,-2\n"
        "4,1,-1,1,1,-2\n"
        "5,1,-1,1,-1,2\n"
        "6,1,-1,-1,1,-2\n"
        "7,1,-1,-1,-1,2\n"
        "8,-1,1,1,1,2\n"
        "9,-1,1,1,-1,-2\n"
        "10,-1,1,-1,1,2\n"
        "11,-1,1,-1,-1,-2\n"
        "12,-1,-1,1,1,-2\n"
        "13,-1,-1,1,-1,-2\n"
        "14,-1,-1,-1,1,2\n"
        "15,-1,-1,-1,-1,2\n"
    )


def test_lhv_rejects_equal_settings(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "lhv", "--alpha1", "1", "--alpha2", "1", "--out", str(tmp_path)
    )
    assert code == 1
    assert parse_error(err)["type"] == "DomainError"


def test_lhv_rejects_settings_equal_on_the_circle(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "lhv", "--alpha1", "0", "--alpha2", "6.283185307179586", "--out", str(tmp_path)
    )
    assert code == 1
    assert out == ""
    assert parse_error(err)["type"] == "DomainError"


def test_lhv_shots_beyond_int64_rejected(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "lhv", "--shots", "99999999999999999999", "--out", str(tmp_path)
    )
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "DomainError"
    assert "2**63 - 1" in error["message"]


def test_reproduce_with_config(capsys, tmp_path):
    cfg = write_fast_config(tmp_path, seed=6, chi_points=16, repetitions=4)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "reproduce", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["command"] == "reproduce"
    assert summary["verdict"] in ("violated", "no violation")
    assert "reference_experiment" in summary
    assert len(summary["comparison"]) == 4
    for name in ("manifest.json", "fits.json", "chsh.json", "summary.json"):
        assert (out_dir / name).exists()


def test_reproduce_refuses_a_nan_angle_before_writing(capsys, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("seed = 1\nchi1 = nan\n")
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "reproduce", "--config", str(cfg), "--out", str(out_dir))
    assert code == 1 and out == ""
    error = parse_error(err)
    assert error["type"] == "ConfigError"
    assert "chi1 must be finite" in error["message"]
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_reproduce_defaults_without_config(capsys, tmp_path):
    # no config file: reference defaults with seed 0
    code, out, _ = run_cli(capsys, "reproduce", "--seed", "1", "--out", str(tmp_path / "r"))
    assert code == 0
    summary = json.loads(out)
    assert summary["seed"] == 1
    assert summary["settings"]["chi_points"] == 32
    assert summary["settings"]["repetitions"] == 16


def test_reproduce_csv_is_comparison_table(capsys, tmp_path):
    cfg = write_fast_config(tmp_path, seed=6, chi_points=16, repetitions=4)
    code, out, _ = run_cli(
        capsys,
        "reproduce",
        "--config",
        str(cfg),
        "--out",
        str(tmp_path / "r"),
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("alpha_rad,simulated_chi_rad,simulated_value")
    assert len(lines) == 5


def test_reproduce_without_a_partner_scan_is_one_error_line(capsys, tmp_path):
    cfg = write_fast_config(tmp_path, alphas=(0.0, math.pi / 2.0))
    code, out, err = run_cli(
        capsys, "reproduce", "--config", str(cfg), "--out", str(tmp_path / "r")
    )
    assert code == 1
    assert out == ""
    error = parse_error(err)
    assert error["type"] == "DomainError"
    assert "lack a scan at 3.1415926535897931 rad" in error["message"]


def test_stdout_identical_for_identical_config_and_seed(capsys, tmp_path):
    cfg = write_fast_config(tmp_path)
    _, out1, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))
    _, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert out1 == out2
    assert (tmp_path / "a" / "scan_02.csv").read_bytes() == (
        tmp_path / "b" / "scan_02.csv"
    ).read_bytes()


def test_calls_in_one_process_print_what_each_prints_alone(capsys, tmp_path):
    # main() builds its parser once per process and reuses it
    csvs = simulate_scans(capsys, tmp_path)
    bad = tmp_path / "bad.json"
    report = synthetic_fit_report([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    _string_alpha(report)
    bad.write_text(json.dumps(report))
    calls = [
        ["chsh", "--fits", str(bad), "--alpha1", "sideways"],
        ["fit", *csvs, "--out", str(tmp_path / "fit")],
        ["chsh", "--fits", str(bad), "--out", str(tmp_path / "chsh")],
    ]
    cli._parser.cache_clear()
    together = [run_cli(capsys, *argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in together] == [2, 0, 1]
    for argv, outcome in zip(calls, together):
        alone = subprocess.run(
            [sys.executable, "-m", "spinpath", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert outcome == (alone.returncode, alone.stdout, alone.stderr)


def _child_env():
    # A child `python -m spinpath` does not see pytest's import path; point it
    # at the package these tests import.
    src = str(Path(spinpath.__file__).resolve().parent.parent)
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "spinpath",
            "lhv",
            "--shots",
            "200",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["command"] == "lhv"
    assert result.stderr == ""


# Tokens at the edges of what each flag takes. "cfg", "fits" and "csv" stand
# for a valid file of that kind, "file" for a file that is none of them.
EDGE_TOKENS = (
    "-1", "0", "1", "3", "99999999999999999999", "1e300", "nan", "inf", "-inf",
    "auto", "", "é", "True", "1.0", "0.5", "pi/2", "cfg", "fits", "csv", "file",
)
FLAGS = {
    "simulate": ("--config", "--seed", "--format", "--out"),
    "fit": ("--format", "--out"),
    "chsh": ("--fits", "--alpha1", "--chi2", "--sign-convention", "--format", "--out"),
    "threshold": ("--visibilities", "--counts", "--seed", "--format", "--out"),
    "lhv": ("--alpha2", "--chi1", "--shots", "--sign-convention", "--seed", "--format", "--out"),
    "reproduce": ("--config", "--sign-convention", "--seed", "--format", "--out"),
}
TOKENS = st.sampled_from(EDGE_TOKENS + ("json", "csv"))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "fit":
        argv += draw(st.lists(TOKENS, min_size=1, max_size=2))
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3, unique=True)):
        argv += [flag, draw(TOKENS)]
    return argv


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_any_argv_exits_cleanly_or_prints_one_error_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    files = {"cfg": tmp_path / "fast.cfg", "fits": tmp_path / "fit" / "fits.json"}
    if not files["cfg"].exists():
        RunConfig(seed=6, chi_points=8, repetitions=2).save(files["cfg"])
        csvs = simulate_scans(capsys, tmp_path)
        assert run_cli(capsys, "fit", *csvs, "--out", str(tmp_path / "fit"))[0] == 0
        (tmp_path / "file").write_text("neither\n")
    files["csv"] = tmp_path / "sim" / "scan_00.csv"
    argv = [str(files[token]) if token in files else token for token in argv]
    # Defaults draw the full reference run; these runs only test the contract.
    if argv[0] in ("simulate", "reproduce") and "--config" not in argv:
        argv += ["--config", str(files["cfg"])]
    if argv[0] == "threshold" and "--visibilities" not in argv:
        argv += ["--visibilities", "0.9"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code, out, err = run_cli(capsys, *argv)
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2)
        assert out == ""
        parse_error(err)
