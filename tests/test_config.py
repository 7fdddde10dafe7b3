"""Run-configuration parsing, pi literals, round trips."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpath import ConfigError, RunConfig, config_from_text, load_config, parse_angle
from spinpath.config import parse_sign_convention
from spinpath.montecarlo import DEFAULT_ALPHAS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_angle_pi_literals():
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("0.79pi") == 0.79 * math.pi
    assert parse_angle("1.29pi") == 1.29 * math.pi
    assert parse_angle("pi/2") == math.pi / 2.0
    assert parse_angle("-pi/4") == -math.pi / 4.0
    assert parse_angle("3pi/2") == 3.0 * math.pi / 2.0
    assert parse_angle(".5pi") == 0.5 * math.pi
    assert parse_angle(" PI / 2 ") == math.pi / 2.0


def test_parse_angle_plain_numbers():
    assert parse_angle("2") == 2.0
    assert parse_angle("-0.5") == -0.5
    assert parse_angle("1e-3") == 1e-3


def test_parse_angle_rejects_garbage():
    for bad in ("bogus", "", "pi/0", "2pi3", "pipi"):
        with pytest.raises(ConfigError):
            parse_angle(bad)


def test_defaults_match_reference_instrument():
    cfg = RunConfig(seed=1)
    assert cfg.mean_rate == 40.0
    assert cfg.chi_points == 32
    assert cfg.repetitions == 16
    assert cfg.alphas == DEFAULT_ALPHAS
    assert cfg.alpha1 == 0.0
    assert cfg.alpha2 == math.pi / 2.0
    assert cfg.chi1 == 0.79 * math.pi
    assert cfg.chi2 == 1.29 * math.pi
    assert cfg.sign_convention is None
    model = cfg.apparatus_model()
    assert model.visibility(0.0) == 0.76
    assert model.visibility(math.pi / 2.0) == 0.73
    assert model.phase_offset == math.pi


def test_chi_grid():
    cfg = RunConfig(seed=1, chi_points=8)
    grid = cfg.chi_grid()
    assert len(grid) == 8
    assert grid[0] == 0.0
    for i in range(1, 8):
        assert abs(grid[i] - grid[i - 1] - math.pi / 4.0) < 1e-15
    assert grid[-1] < 2.0 * math.pi


def test_text_round_trip_is_exact():
    configs = [
        RunConfig(seed=3),
        RunConfig(seed=9, mean_rate=123.456, chi_points=16, repetitions=5, out_dir="elsewhere"),
        RunConfig(seed=0, sign_convention=2, drift_sigma=0.02, default_visibility=0.5),
        RunConfig(
            seed=7,
            visibilities=((0.0, 0.91), (1.234567890123456, 0.5)),
            alphas=(0.1, 2.3, 4.5),
            alpha1=0.33,
            chi2=5.99,
        ),
    ]
    for cfg in configs:
        assert config_from_text(cfg.to_text()) == cfg


def test_canonical_text_ignores_output_directory():
    a = RunConfig(seed=5, out_dir="first")
    b = RunConfig(seed=5, out_dir="second")
    assert a.canonical_text() == b.canonical_text()
    assert a.to_text() != b.to_text()
    c = RunConfig(seed=6, out_dir="first")
    assert a.canonical_text() != c.canonical_text()


def test_config_from_text_full_file():
    text = """
# instrument
seed = 11
mean_rate = 250
default_visibility = 0.73
visibility[0] = 0.76
visibility[pi/2] = 0.73

# scan shape
alphas = 0, pi/2, pi, 3pi/2
chi_points = 16
repetitions = 4
phase_offset = pi

# analysis settings
alpha1 = 0
alpha2 = pi/2
chi1 = 0.79pi
chi2 = 1.29pi
sign_convention = auto
out_dir = results
"""
    cfg = config_from_text(text)
    assert cfg.seed == 11
    assert cfg.mean_rate == 250.0
    assert cfg.visibilities == ((0.0, 0.76), (math.pi / 2.0, 0.73))
    assert cfg.alphas == DEFAULT_ALPHAS
    assert cfg.chi_points == 16
    assert cfg.phase_offset == math.pi
    assert cfg.chi1 == 0.79 * math.pi
    assert cfg.sign_convention is None
    assert cfg.out_dir == "results"


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        config_from_text("seed = 1\nmean_rate = 10\nchi_points = many\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_text("seed = 1\nbogus_key = 2\n")
    assert "line 2" in str(err.value)
    assert "bogus_key" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_text("seed = 1\njust some words\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_text("seed = 1\nchi1 = 0.79tau\n")
    assert "line 2" in str(err.value)


def test_config_requires_seed():
    with pytest.raises(ConfigError) as err:
        config_from_text("mean_rate = 10\n")
    assert "seed" in str(err.value)
    cfg = config_from_text("mean_rate = 10\n", require_seed=False)
    assert cfg.seed == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(seed=1, chi_points=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=1, repetitions=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=1, sign_convention=4)
    with pytest.raises(ConfigError):
        config_from_text("seed = 1\nmean_rate = -5\n")
    with pytest.raises(ConfigError):
        config_from_text("seed = 1\ndefault_visibility = 1.5\n")
    with pytest.raises(ConfigError):
        config_from_text("seed = -2\n")


@pytest.mark.parametrize(
    "text",
    [
        "seed = 1\nchi1 = nan\n",
        "seed = 1\nchi2 = -inf\n",
        "seed = 1\nalpha1 = inf\n",
        "seed = 1\nalpha2 = nan\n",
        "seed = 1\nalphas = 0, nan\n",
    ],
)
def test_config_refuses_a_non_finite_analysis_angle(text):
    with pytest.raises(ConfigError, match="must be finite"):
        config_from_text(text)


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha1", "1.0"),
        ("alpha2", True),
        ("chi1", math.nan),
        ("chi2", 1j),
        ("alphas", None),
        ("alphas", 5),
        ("alphas", (0.0, "1")),
        ("alphas", (0.0, math.inf)),
        ("visibilities", 5),
        ("visibilities", ((0.0,),)),
        ("out_dir", None),
        ("out_dir", 5),
        ("out_dir", b"out"),
    ],
)
def test_every_field_a_run_uses_is_checked_at_construction(field, value):
    with pytest.raises(ConfigError):
        RunConfig(seed=1, **{field: value})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"phase_offset": None}, "phase_offset must be a real number, got None"),
        ("phase_offset = nan", "phase_offset must be finite, got nan"),
        ({"visibilities": (("0", 0.5),)}, "visibility_map angle must be a real number, got '0'"),
        ("visibility[inf] = 0.5", "visibility_map angle must be finite, got inf"),
        ({"out_dir": None}, "out_dir must be a path, got NoneType"),
        ({"out_dir": 10**5000}, "out_dir must be a path, got int"),
    ],
)
def test_a_config_error_names_its_field(fields, message):
    # A config file's line is given as text, a constructor's fields as a dict.
    with pytest.raises(ConfigError) as info:
        if isinstance(fields, str):
            config_from_text(f"seed = 1\n{fields}\n")
        else:
            RunConfig(seed=1, **fields)
    assert str(info.value) == message


def test_a_path_out_dir_builds_and_keeps_the_canonical_text():
    cfg = RunConfig(seed=1, out_dir=Path("runs") / "1")
    assert cfg.out_dir == Path("runs/1")
    assert cfg.canonical_text() == RunConfig(seed=1).canonical_text()


def test_checked_angles_keep_the_canonical_text():
    cfg = RunConfig(seed=1, alphas=[0, 1], alpha1=0, chi1=np.float64(2.5))
    assert cfg.alphas == (0.0, 1.0) and type(cfg.alphas[0]) is float
    assert type(cfg.alpha1) is float and type(cfg.chi1) is float
    assert cfg.canonical_text() == RunConfig(seed=1, alphas=(0.0, 1.0), chi1=2.5).canonical_text()
    # An empty alphas list still builds; the run refuses it (README).
    assert RunConfig(seed=1, alphas=()).alphas == ()


def test_save_and_load(tmp_path):
    cfg = RunConfig(seed=21, chi_points=12, sign_convention=1)
    path = tmp_path / "run.cfg"
    cfg.save(path)
    assert load_config(path) == cfg


def test_save_refuses_an_out_dir_that_would_not_read_back(tmp_path):
    path = tmp_path / "run.cfg"
    for out_dir, bad in (
        ("a\nseed = 7", "'\\n'"),
        ("a # b", "'#'"),
        ("caf\u00e9", "'\\xe9'"),
        ("a\x1cb", "'\\x1c'"),
        (" out", "' '"),
        ("out\t", "'\\t'"),
    ):
        cfg = RunConfig(seed=1, out_dir=out_dir)  # usable, only not saveable
        with pytest.raises(ConfigError) as err:
            cfg.save(path)
        assert str(err.value).endswith(f"would not read back: {bad}")
        assert not path.exists()
    for out_dir in ("", "a b", "a\tb", "a=b", "a\x1fb", "C:\\runs\\1"):
        cfg = RunConfig(seed=1, out_dir=out_dir)
        cfg.save(path)
        assert load_config(path) == cfg


@given(out_dir=st.text(st.characters(max_codepoint=127)) | st.text())
def test_save_round_trips_any_out_dir_or_refuses(tmp_path_factory, out_dir):
    cfg = RunConfig(seed=1, out_dir=out_dir)
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    try:
        cfg.save(path)
    except ConfigError:
        return
    assert load_config(path) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "nope.cfg")
    assert "nope.cfg" in str(err.value)


def test_load_config_names_the_line_of_a_non_ascii_byte(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 4\r\n# caf\xc3\xa9\r\nchi_points = 6\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"config {path}: line 2: non-ASCII byte 0xc3"


def test_load_config_translates_line_endings_like_read_text(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 4\r\rchi_points = 6\r\n")
    assert load_config(path) == config_from_text(path.read_text(encoding="ascii"))


def test_comments_and_blank_lines_ignored():
    text = "seed = 4   # master seed\n\n   \n# whole-line comment\nchi_points = 6\n"
    cfg = config_from_text(text)
    assert cfg.seed == 4
    assert cfg.chi_points == 6


def test_a_key_given_twice_is_refused_naming_both_lines():
    with pytest.raises(ConfigError) as err:
        config_from_text("seed = 1\nchi_points = 8\nseed = 2\n")
    assert str(err.value) == "line 3: seed is already set on line 1"
    with pytest.raises(ConfigError) as err:
        config_from_text("seed = 1\nvisibility[pi] = 0.5\n# comment\nvisibility[pi] = 0.9\n")
    assert str(err.value) == "line 4: visibility[pi] is already set on line 2"


def test_two_visibility_entries_at_one_angle_are_refused():
    # different keys, one angle on the circle: the lookup could only use one
    with pytest.raises(ConfigError, match="two contrasts at 0 rad"):
        config_from_text("seed = 1\nvisibility[0] = 0.5\nvisibility[2pi] = 0.9\n")
    with pytest.raises(ConfigError, match="two contrasts"):
        RunConfig(seed=1, visibilities=((0.0, 0.5), (2.0 * math.pi, 0.9)))


def test_sign_convention_has_one_parser_for_config_files_and_the_cli():
    assert [parse_sign_convention(t) for t in ("auto", " AUTO ", "0", "3")] == [None, None, 0, 3]
    for bad in ("4", "-1", "1.0", "True", "", "one"):
        with pytest.raises(ValueError):
            parse_sign_convention(bad)
        with pytest.raises(ConfigError, match="line 2: "):
            config_from_text(f"seed = 1\nsign_convention = {bad}\n")
    assert config_from_text("seed = 1\nsign_convention = 2\n").sign_convention == 2


def test_readme_shows_what_save_writes():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n")[1]
    assert block == RunConfig(seed=7).to_text()
