"""Command-line interface: exit codes, output contracts, error objects."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from spinpath import RunConfig
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


def test_fit_rejects_malformed_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha_rad,chi_rad,repetition,counts\n0,0,0,-5\n")
    code, _, err = run_cli(capsys, "fit", str(bad), "--out", str(tmp_path / "f"))
    assert code == 1
    error = parse_error(err)
    assert error["type"] == "CsvFormatError"
    assert "line 2" in error["message"]


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


def _drop_amplitude(report):
    del report["fits"][0]["amplitude"]


def _bad_dof(report):
    report["fits"][1]["dof"] = "x"


def _fits_not_a_list(report):
    report["fits"] = 5


def _zero_covariances(report):
    for entry in report["fits"]:
        entry["covariance_av_phi"] = entry["coeff_covariance"] = [[0.0] * 3] * 3


@pytest.mark.parametrize(
    "corrupt, kind, needle",
    [
        (_drop_amplitude, "PreconditionError", "entry 0"),
        (_bad_dof, "PreconditionError", "entry 1"),
        (_fits_not_a_list, "PreconditionError", "list"),
        (_zero_covariances, "DomainError", "sigma"),
    ],
    ids=["missing_field", "bad_dof", "fits_not_a_list", "zero_sigma"],
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
    assert "must not exceed 1e+12" in error["message"]


def test_threshold_bad_visibility_list(capsys, tmp_path):
    code, _, err = run_cli(capsys, "threshold", "--visibilities", "high,low")
    assert code == 2
    assert parse_error(err)["type"] == "UsageError"


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


def test_stdout_identical_for_identical_config_and_seed(capsys, tmp_path):
    cfg = write_fast_config(tmp_path)
    _, out1, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))
    _, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert out1 == out2
    assert (tmp_path / "a" / "scan_02.csv").read_bytes() == (
        tmp_path / "b" / "scan_02.csv"
    ).read_bytes()


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
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["command"] == "lhv"
    assert result.stderr == ""
