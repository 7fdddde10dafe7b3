"""Workflow layer: artifacts, manifests, report payloads, determinism."""

import hashlib
import json
import math
import re
from itertools import repeat

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinpath import (
    DomainError,
    ExpectationEstimate,
    FitResult,
    InsufficientDataError,
    PreconditionError,
    RunConfig,
    ScanPlan,
    ScanResult,
    Setting,
    SpinPathError,
    fit_sinusoid,
    noiseless_scan,
    read_scan_csv,
    reproduce_pipeline,
    run_chsh,
    run_fit,
    run_lhv,
    run_simulate,
    run_threshold,
    s_prime,
    write_scan_csv,
)
from spinpath.angles import uniform_chi_grid
from spinpath.apparatus import IDEAL_S, REFERENCE_EXPECTATIONS
from spinpath.pipeline import (
    _chsh_terms,
    _ensure_dir,
    _sign_matched_pairs,
    _write_residuals,
    chsh_terms_from_fits,
    load_fit_report,
    pick_negated_term,
)
from spinpath.report import format_counts, format_real, sha256_of_text, write_csv

FAST = dict(chi_points=12, repetitions=3)


def fast_config(seed, **overrides):
    kw = dict(FAST)
    kw.update(overrides)
    return RunConfig(seed=seed, **kw)


# SHA-256 of scan_00.csv .. scan_03.csv written by run_simulate with the
# default configuration. Scan CSVs come from the seeded substreams, the rate
# model and the pinned Poisson sampler, with no linear algebra, so unlike fit
# outputs they do not move with the LAPACK build; they pin the sampled counts
# byte for byte.
SCAN_CSV_DIGESTS = {
    (1, 0.0): (
        "52ee834ec1453b5388ac1a0e2d6c5684b8df8fe8e0d56b748b059dc64d6bc541",
        "a8d665987a19714e403bf7c4d665cc400afb5422d9a5f45b2000d35bc798bdbb",
        "ab1f68bf4c1d2afc0c4c5383d50d905885f823302048057c274384e2207158e5",
        "7272cca8fb47430625e4d331aaffafbcd495fcc1231a26b98d5595bd1c972244",
    ),
    (1, 0.05): (
        "f9a35a288086be25c80f5bf5ec61ffb54af4a37ccf80399cc6e66fbe1befaab6",
        "376c0f36ea808a178e996fa34d7b6d15d34f5310c4f68e45e17908b02b42dcac",
        "aa847283690baddf81566600202771a41d861dbbe8bef584ef14a735b622314b",
        "cc93fb2b0ee568792739801e57164b63214bf4afebd76e400ac22f5f8e7bd6b7",
    ),
    (2, 0.0): (
        "96d4e61bd3b66da866248605ff81f2c9a314dbaf2077a4b4036c34681056a864",
        "d126bad0a3ee2bba02eaaacf652e2c3307c38d382eccb29d0a956c865945fe90",
        "692376deea3a019bd20b861d1c2e26b08aa02325c18c720b7a51ccafcbbda1ae",
        "e03f49bf8b0fa1b06eab12a0d005f4a250443b96462219ca4034149054a682fc",
    ),
    (2, 0.05): (
        "b3703c432c792e96c007f5f71b7b398c5c12c22f130e1dd7b712bb96ccce01c4",
        "9923dd3c38b93acb114b9ee7ee42c76e0b0c4a7ce73319593c8b60b8f570c293",
        "567fb864f42631d04844ed73f0a2e36c06ce535b306ec4ad5d071cfce23e2a62",
        "ffa0a2787d031c821d0e33903870e8b86ec10caec826fd15abaa198ab464fb5d",
    ),
    (3, 0.0): (
        "10b85b70bbb0e576b704924bee3b28c6d23992e0ab792c1380da43f0aa774918",
        "ec9791b19f1ca41bcad3660f49ba2d20f09b31bdba51661669608d518140eecb",
        "3881e7c6ebd0617cb42927980bff7a4162f7d714e0c41b05414747e5b4440949",
        "40efb6ae10bf15197c42e77a65f0c5b2561d523f8539ae98ae34a8747db7e221",
    ),
    (3, 0.05): (
        "95d18104f9caf37c93ac1b4f25a189ad7323c681ca6f7143b3470aaef99cd638",
        "0bc37c9d04a3c7a8b55fd0539f1d5afa76155ed9ca4e86bc215bfd5b4555024e",
        "68df7bac8a9ed4346a29ddc2c3a8604fadfd10bad7b777262aa4e26c67c713ff",
        "f4769d00a22c2e81a399b22cdf42942835305e77d215995b3e6e3aff65cd8733",
    ),
}


@pytest.mark.parametrize("seed, drift_sigma", sorted(SCAN_CSV_DIGESTS))
def test_sampled_scan_csv_digests_are_frozen(tmp_path, seed, drift_sigma):
    run_simulate(RunConfig(seed=seed, drift_sigma=drift_sigma), tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / f"scan_{index:02d}.csv").read_bytes()).hexdigest()
        for index in range(4)
    )
    assert digests == SCAN_CSV_DIGESTS[(seed, drift_sigma)]


# SHA-256 of the residual CSVs: scan_00_residuals.csv .. scan_03_residuals.csv
# of reproduce_pipeline with the default configuration at (seed, drift_sigma),
# and, under "noiseless", the residuals of one noiseless (real-valued count)
# scan through run_fit. Residuals hold fitted rates and pulls, so unlike the
# scan CSVs they depend on the 3x3 solve of the fit and pin this numpy/LAPACK
# build as well as the renderer.
RESIDUAL_CSV_DIGESTS = {
    (1, 0.0): (
        "a97092f0ae198337c7c8d4aee17e7ccbc83f39ad01191c159d1c0dfa679e7740",
        "30b60b6f21cb8aa46e376d52f5fb1869935987082587b325e2aa5b4ca4362949",
        "1ff0cec1d18ed506d6c39f9d0721c6f1c9a111fee4781e9107599f85f479ab77",
        "56eea86092faea75198a79453716dd06186bad180c5600d195d76a85b90eac30",
    ),
    (1, 0.05): (
        "40cbb66e790efe957e86f9f33b492c1466d94fa24332288ff0ba508467374e26",
        "bb703887b1630a7fe89fb652e9137039c9fda0fdb67a4916f9f46b223ed5fd7b",
        "af0f4d2e32e5b6b79c7fcd5e10e9419134bae89c5dbd125bfe277f6106866c44",
        "278988ea142b990de4d70916c7f43a923d5c7ebb5f492d4918501b18cf92a442",
    ),
    (2, 0.0): (
        "2973cc009e841a5d7220eed332b1f4032260abce85301dc053da7262141bfc7b",
        "f3432e7c68b5ed6c132d688c7a71114fd7290632836d0413a23b2a8abec3539d",
        "09eb979288c95c1676e7b127eb90697884219c1ab344952524a8d36fcd5613ec",
        "96606a4f45de62ec44c439a15cd2a2fc44d46462055ddabb435dc5b5959fee6d",
    ),
    (2, 0.05): (
        "05fe6b6a04982912f0ba0d37fee2a07b373c436ff915ebcb00a5f559dd7aa1eb",
        "a500ac7f60a24af8a94e8b1cac3dd791d700f68d9a5a793e58ed1d3167262574",
        "9e63ac53024c1308e8cc4b1d354a80719cf44c0892b05736a2db4860d83da89b",
        "ea704a453a1c1232e40a2f00cae619c1a54862d00bb4a4b9d309289c4a16e418",
    ),
    (3, 0.0): (
        "b0d935f6920c8249597ffdccee5f1f69d4f100afa268c34fd8cc68425478acb3",
        "e17da65eb9de72e5f957489f1ed564ff578d89aee5fc0789483cdb8ea7a3ae50",
        "02250a8428e00e23b2c30767351adbd31212f78034b9da7fb9b43c11d368356c",
        "830d50108b296e51b7d695f0d3f92860350ee5678f4d7376f95937c8f0b73130",
    ),
    (3, 0.05): (
        "14e64c10579697e3a6770eef608411beff20c88b56dd3d3023c5b1fa6ea16224",
        "7b69044c196c4edbb56cad4fd7713984fa8cccba0c70aaa7f62f1da03ce1bdc9",
        "125fb98dcab7aa2b82d0afd136427f9efc77e255f885b59483c3c5529372e873",
        "0218cdf34514772a3ca28a132107672a17ea573aeadf3ace432d34bc099c6305",
    ),
    "noiseless": ("b256005c17fb6febfa8c7262aededa2456a1d50e5ca458dc324e65eaecd11abf",),
}


def _residual_digests(key, out):
    if key == "noiseless":
        model = RunConfig(seed=0).apparatus_model()
        plan = ScanPlan(alpha=0.0, chi_values=uniform_chi_grid(16), exposures=2)
        write_scan_csv(noiseless_scan(model, plan), out / "noiseless.csv")
        run_fit([out / "noiseless.csv"], out / "fit")
        names = [out / "fit" / "noiseless_residuals.csv"]
    else:
        seed, drift_sigma = key
        reproduce_pipeline(RunConfig(seed=seed, drift_sigma=drift_sigma), out)
        names = [out / f"scan_{index:02d}_residuals.csv" for index in range(4)]
    return tuple(hashlib.sha256(name.read_bytes()).hexdigest() for name in names)


@pytest.mark.parametrize("key", list(RESIDUAL_CSV_DIGESTS), ids=str)
def test_residual_csv_digests_are_frozen(tmp_path, key):
    assert _residual_digests(key, tmp_path) == RESIDUAL_CSV_DIGESTS[key]


# SHA-256 of fits.json, chsh.json and summary.json of reproduce_pipeline with
# the default configuration at (seed, drift_sigma). They hold every fit and
# correlation of the run, so they pin the per-repetition fits, their
# averaging and the CHSH reduction, and like the residual digests this
# numpy/LAPACK build.
REPRODUCE_JSON_DIGESTS = {
    (1, 0.0): (
        "5ab2176ca5782eb217ce83cb7fa3d4cf8a33498b840d70b9682e43ae9fea2858",
        "489260418ac69b8d246418fa6796730d8561c6052d5a4ac7ca4ce13c258f0981",
        "ddc03ad4192ffd1cb3bdca5f02454c450e711c0e16e0a87d9ce85e6d9773441e",
    ),
    (1, 0.05): (
        "ecc5799142e7c547a7a9af4d19e406a31bbcdced48e38abae7aa3d4eeb871786",
        "da04101ae6243169bf4075fe4006d1b8d5822b5e7c055d428cdf5db2ff2742ee",
        "00a9fd8d69257a07b989d91357fefac3581079d0ceac391569de161d9955b0b1",
    ),
    (2, 0.0): (
        "08d19673d88337c49aaacc401b264fd1f81a6925e07734a838ded35c88e674da",
        "96f6ced94942bd4d0c50955786eef9983f3e4d090ee05ad3125ad178381c67b3",
        "dec228a3a94dcbf97a405081d7cc004f17b338b110fe5aa8497d5ba397fcf351",
    ),
    (2, 0.05): (
        "b37dac3f0d0784b37e474e8e6b323b65082253aa2a2b9b3efa62d4e3b441fbef",
        "cbb8bce0ca45354f59b1213147b826ca5a054718e9ee1f40314f0ce886e41b7c",
        "43b02ab65a80ca41d9fb50cc2ec090826a8670b87eee96e347b090e67584cfed",
    ),
    (3, 0.0): (
        "8b8fbb9f4051dc3b8bbf8bbe154155fb992c3f5b982777099f0ed0a183a17018",
        "2dfc213f99b6f96deef897af9718a5434ca72b20792831dc96dc316d2d947e08",
        "e5f23a317b1a06f554b772689aac53df6f722bc6feaa86ed3e9b7d7503ea9e40",
    ),
    (3, 0.05): (
        "e0fd261d5ef6aefa73a6c14a3afc72ec3c3e3919ae3260a895ad3ebe0263e39b",
        "669251db2dc80f3442607c78980931f806f27b2e3735583a0e16f23900223d57",
        "65a28ffd50a6309bb8b967677fca69dafa9d53660de9a5e7166daab0b7e9427d",
    ),
}


@pytest.mark.parametrize("seed, drift_sigma", sorted(REPRODUCE_JSON_DIGESTS))
def test_reproduce_json_digests_are_frozen(tmp_path, seed, drift_sigma):
    reproduce_pipeline(RunConfig(seed=seed, drift_sigma=drift_sigma), tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fits.json", "chsh.json", "summary.json")
    )
    assert digests == REPRODUCE_JSON_DIGESTS[(seed, drift_sigma)]


def test_uniform_chi_grid():
    grid = uniform_chi_grid(8)
    assert len(grid) == 8
    assert grid[0] == 0.0
    with pytest.raises(DomainError):
        uniform_chi_grid(0)
    with pytest.raises(DomainError):
        uniform_chi_grid(2.5)


def test_simulate_writes_scans_and_manifest(tmp_path):
    config = fast_config(31, out_dir=str(tmp_path / "sim"))
    manifest = run_simulate(config)
    out = tmp_path / "sim"
    assert (out / "manifest.json").exists()
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 31
    assert manifest["config_sha256"] == sha256_of_text(config.canonical_text())
    assert manifest["warnings"] == []
    assert len(manifest["scan_files"]) == 4
    for index, entry in enumerate(manifest["scan_files"]):
        assert entry["path"] == f"scan_{index:02d}.csv"
        assert entry["counts_stream_key"] == [31, 0, index]
        assert entry["records"] == 12 * 3
        scan = read_scan_csv(out / entry["path"])
        assert scan.counts.shape == (3, 12)
        assert scan.counts.size == entry["records"]
        assert abs(scan.plan.alpha - entry["alpha_rad"]) < 1e-15


def test_simulate_is_deterministic_across_directories(tmp_path):
    a = run_simulate(fast_config(8), out_dir=tmp_path / "a")
    b = run_simulate(fast_config(8), out_dir=tmp_path / "b")
    assert a == b
    for name in ("manifest.json", "scan_00.csv", "scan_03.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_warns_on_tiny_grid(tmp_path):
    config = fast_config(1, chi_points=2)
    manifest = run_simulate(config, out_dir=tmp_path)
    assert len(manifest["warnings"]) == 1
    assert "4" in manifest["warnings"][0]


def test_fit_command_reads_back_scans(tmp_path):
    sim_dir = tmp_path / "sim"
    manifest = run_simulate(fast_config(5), out_dir=sim_dir)
    csvs = [sim_dir / e["path"] for e in manifest["scan_files"]]
    fit_dir = tmp_path / "fit"
    report = run_fit(csvs, fit_dir)
    assert report["command"] == "fit"
    assert len(report["fits"]) == 4
    for entry, manifest_entry in zip(report["fits"], manifest["scan_files"]):
        assert entry["source"] == manifest_entry["path"]
        assert entry["amplitude"] > 0.0
        assert 0.0 <= entry["visibility"] <= 1.2
        assert entry["dof"] == 12 * 3 - 3
    assert (fit_dir / "fits.json").exists()
    for name in report["residual_files"]:
        text = (fit_dir / name).read_text()
        assert text.splitlines()[0] == "chi_rad,repetition,counts,fitted,pull"
        assert len(text.splitlines()) == 1 + 36


def test_fit_names_every_residual_file_apart(tmp_path):
    # p/s_02.csv takes s_02_residuals.csv, so the second s.csv must skip it
    manifest = run_simulate(fast_config(5), out_dir=tmp_path / "sim")
    sources = [tmp_path / "sim" / entry["path"] for entry in manifest["scan_files"][:3]]
    inputs = [tmp_path / "p" / "s_02.csv", tmp_path / "p" / "s.csv", tmp_path / "q" / "s.csv"]
    for source, target in zip(sources, inputs):
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(source.read_bytes())
    report = run_fit(inputs, tmp_path / "fit")
    names = ["s_02_residuals.csv", "s_residuals.csv", "s_03_residuals.csv"]
    assert report["residual_files"] == names
    for source, name in zip(sources, report["residual_files"]):
        scan = read_scan_csv(source)
        residuals = (tmp_path / "fit" / name).read_text().splitlines()[1:]
        assert [int(line.split(",")[2]) for line in residuals] == scan.counts.ravel().tolist()


def test_residual_pulls_floor_the_weight_at_one(tmp_path):
    # sparse counts fit rates below 1, where the pull's weight is floored
    counts = [0, 1, 0, 2, 0, 0, 1, 0, 1, 0, 0, 0, 2, 1, 0, 0]
    rows = [f"0,{0.4 * (i % 8)!r},{i // 8},{n}" for i, n in enumerate(counts)]
    text = "\n".join(["alpha_rad,chi_rad,repetition,counts", *rows]) + "\n"
    (tmp_path / "sparse.csv").write_text(text)
    report = run_fit([tmp_path / "sparse.csv"], tmp_path / "fit")
    lines = (tmp_path / "fit" / report["residual_files"][0]).read_text().splitlines()[1:]
    fitted = []
    for line in lines:
        _, _, n, rate, pull = map(float, line.split(","))
        assert pull == (n - rate) / math.sqrt(max(rate, 1.0))
        fitted.append(rate)
    assert max(fitted) < 1.0


def _residuals_per_cell(path, scan, fit):
    # The reference rendering: every cell's pull is formatted on its own,
    # with no sharing of strings between cells.
    chis = scan.plan.chi_values
    rates = np.array([fit.rate_at(chi) for chi in chis])
    pulls = (scan.counts - rates) / np.sqrt(np.maximum(rates, 1.0))
    chi_fields = [format_real(chi) for chi in chis]
    rate_fields = [format_real(rate) for rate in rates.tolist()]
    blocks = (
        (
            chi_fields,
            repeat(str(rep)),
            format_counts(line),
            rate_fields,
            map(format, pull_row.tolist(), repeat(".17g")),
        )
        for rep, line, pull_row in zip(scan.repetitions, scan.counts, pulls)
    )
    write_csv(path, "chi_rad,repetition,counts,fitted,pull", blocks)


def _residual_bytes(out, scan, fit):
    _write_residuals(out / "written.csv", scan, fit)
    _residuals_per_cell(out / "per_cell.csv", scan, fit)
    return (out / "written.csv").read_bytes(), (out / "per_cell.csv").read_bytes()


@st.composite
def residual_scans(draw):
    """A scan of 1 to 64 repetitions on a uniform grid of 4 to 64 phases:
    Poisson counts at a mean of 0.5 to 1e5, so that pulls range from heavily
    repeated to all distinct, or real-valued rates, noiseless (every
    repetition alike) or noisy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = ScanPlan(
        alpha=0.0,
        chi_values=uniform_chi_grid(draw(st.integers(4, 64))),
        exposures=draw(st.integers(1, 64)),
    )
    mean = 10.0 ** draw(st.floats(math.log10(0.5), 5.0))
    chi = np.array(plan.chi_values)
    rates = mean * (1.0 + draw(st.floats(0.0, 1.0)) * np.cos(chi + rng.uniform(0.0, 6.3)))
    rates = np.tile(rates, (plan.exposures, 1))
    kind = draw(st.sampled_from(["int", "noiseless", "noisy"]))
    if kind == "int":
        counts = rng.poisson(rates)
    elif kind == "noiseless":
        counts = rates
    else:
        counts = rates * rng.uniform(0.9, 1.1, size=rates.shape)
    return ScanResult(plan=plan, counts=counts, repetitions=rng.permutation(plan.exposures).tolist())


@given(scan=residual_scans())
def test_residual_writer_equals_per_cell_formatting(tmp_path_factory, scan):
    try:
        fit = fit_sinusoid(scan)
    except SpinPathError:
        assume(False)
    written, per_cell = _residual_bytes(tmp_path_factory.mktemp("residuals"), scan, fit)
    assert written == per_cell


@given(rest=st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5]), min_size=10, max_size=10))
def test_residual_writer_keeps_negative_zero_pulls_apart(tmp_path_factory, rest):
    # Under a fitted rate of exactly 0 a count's pull is the count itself, so
    # a -0.0 count has the pull -0.0, which formats as "-0", not "0".
    signs = [-0.0, 0.0, *rest]
    plan = ScanPlan(alpha=0.0, chi_values=uniform_chi_grid(4), exposures=3)
    scan = ScanResult(plan=plan, counts=np.array(signs).reshape(3, 4))
    zero = np.zeros((3, 3))
    fit = FitResult(0.0, 0.0, 0.0, zero, 0.0, 1, np.zeros(3), zero)
    written, per_cell = _residual_bytes(tmp_path_factory.mktemp("residuals"), scan, fit)
    assert written == per_cell
    pulls = [line.rsplit(",", 1)[1] for line in written.decode("ascii").splitlines()[1:]]
    assert pulls == [format(count, ".17g") for count in signs]
    assert [pull == "-0" for pull in pulls] == [str(count) == "-0.0" for count in signs]


def test_fit_command_requires_input(tmp_path):
    with pytest.raises(PreconditionError):
        run_fit([], tmp_path)


def test_ensure_dir_returns_existing_directories_and_refuses_files(tmp_path):
    # An existing directory, or a symlink to one, comes back as given.
    assert _ensure_dir(tmp_path) == tmp_path
    assert _ensure_dir(str(tmp_path)) == tmp_path
    link = tmp_path / "link"
    link.symlink_to(tmp_path, target_is_directory=True)
    assert _ensure_dir(link) == link and link.is_symlink()
    # Missing parents are created.
    nested = tmp_path / "a" / "b" / "c"
    assert _ensure_dir(nested) == nested and nested.is_dir()
    # A file, or a path under one, is a typed error naming the path.
    afile = tmp_path / "file"
    afile.write_text("x")
    for path in (afile, afile / "sub"):
        with pytest.raises(PreconditionError, match=re.escape(f"output directory {path}: ")):
            _ensure_dir(path)
    assert afile.read_text() == "x"
    # A NUL byte escaped as the bare ValueError of os.mkdir.
    with pytest.raises(PreconditionError, match="embedded null byte"):
        _ensure_dir(tmp_path / "a\0b")


def test_fit_refuses_degenerate_grid(tmp_path):
    sim_dir = tmp_path / "sim"
    manifest = run_simulate(fast_config(1, chi_points=2), out_dir=sim_dir)
    csvs = [sim_dir / e["path"] for e in manifest["scan_files"]]
    with pytest.raises(InsufficientDataError):
        run_fit(csvs, tmp_path / "fit")


def test_load_fit_report_errors(tmp_path):
    with pytest.raises(PreconditionError):
        load_fit_report(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(PreconditionError):
        load_fit_report(bad)
    nofits = tmp_path / "nofits.json"
    nofits.write_text('{"command": "fit"}')
    with pytest.raises(PreconditionError):
        load_fit_report(nofits)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"fits": [],\n "source": "\xe9"}\n')
    with pytest.raises(PreconditionError, match="line 2: non-ASCII byte 0xe9"):
        load_fit_report(latin)


def make_fit_report(tmp_path, seed=5, **overrides):
    sim_dir = tmp_path / "sim"
    manifest = run_simulate(fast_config(seed, **overrides), out_dir=sim_dir)
    csvs = [sim_dir / e["path"] for e in manifest["scan_files"]]
    run_fit(csvs, tmp_path / "fit")
    return load_fit_report(tmp_path / "fit" / "fits.json")


def test_chsh_terms_order_and_settings(tmp_path):
    report = make_fit_report(tmp_path)
    terms = chsh_terms_from_fits(report, 0.0, math.pi / 2.0, 0.79 * math.pi, 1.29 * math.pi)
    assert len(terms) == 4
    want = [
        (0.0, 0.79 * math.pi),
        (0.0, 1.29 * math.pi),
        (math.pi / 2.0, 0.79 * math.pi),
        (math.pi / 2.0, 1.29 * math.pi),
    ]
    for term, (alpha, chi) in zip(terms, want):
        assert abs(term.setting.alpha - alpha) < 1e-12
        assert abs(term.setting.chi - chi) < 1e-12
        assert term.sigma > 0.0


def test_chsh_requires_partner_scans(tmp_path):
    report = make_fit_report(tmp_path)
    report["fits"] = report["fits"][:2]  # drop alpha = pi and 3pi/2
    with pytest.raises(DomainError) as err:
        chsh_terms_from_fits(report, 0.0, math.pi / 2.0, 0.5, 1.5)
    assert "alpha" in str(err.value)


@pytest.mark.parametrize("field", ["alpha_rad", "amplitude", "coeffs"])
def test_chsh_refuses_an_integer_too_large_for_a_float(tmp_path, field):
    report = make_fit_report(tmp_path)
    huge = 10**400
    entry = report["fits"][2]
    entry[field] = [huge, 0.0, 0.0] if field == "coeffs" else huge
    with pytest.raises(PreconditionError, match="fit report entry 2 is malformed: "):
        chsh_terms_from_fits(report, 0.0, math.pi / 2.0, 0.5, 1.5)


def test_pick_negated_term():
    assert pick_negated_term([0.5, -0.6, 0.4, 0.3], None) == 1
    assert pick_negated_term([0.5, 0.6, 0.4, -0.3], None) == 3
    assert pick_negated_term([0.5, -0.6, 0.4, 0.3], 2) == 2
    with pytest.raises(DomainError):
        pick_negated_term([0.1, 0.2, 0.3, 0.4], 7)


def test_run_chsh_payload(tmp_path):
    report = make_fit_report(tmp_path, seed=11, chi_points=16, repetitions=4)
    out = tmp_path / "chsh"
    payload = run_chsh(report, out)
    assert (out / "chsh.json").exists()
    assert payload["command"] == "chsh"
    assert payload["sign_convention"] == "auto"
    values = [t["value"] for t in payload["terms"]]
    assert payload["negated_term"] == values.index(min(values))
    signs = [t["sign"] for t in payload["terms"]]
    assert signs.count(-1) == 1
    assert signs[payload["negated_term"]] == -1
    assert len(payload["chi_positions_rad"]) == 4
    assert payload["violated"] == (abs(payload["s_value"]) > 2.0)
    recomputed = sum(s * v for s, v in zip(signs, values))
    assert abs(recomputed - payload["s_value"]) < 1e-12


def test_run_chsh_explicit_convention(tmp_path):
    report = make_fit_report(tmp_path, seed=11, chi_points=16, repetitions=4)
    payload = run_chsh(report, tmp_path / "c2", sign_convention=2)
    assert payload["sign_convention"] == 2
    assert payload["negated_term"] == 2


def test_run_threshold_sweep(tmp_path):
    payload = run_threshold(
        tmp_path,
        visibilities=(0.5, 0.75, 1.0),
        counts_per_point=5000.0,
        seed=3,
        chi_points=16,
    )
    assert payload["command"] == "threshold"
    assert abs(payload["threshold_analytic"] - math.sqrt(2.0) / 2.0) < 1e-15
    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        assert abs(row["s_analytic"] - IDEAL_S * row["visibility"]) < 1e-12
        assert abs(row["s_simulated"] - row["s_analytic"]) < 6.0 * row["s_sigma"] + 0.02
    assert payload["bracket_below"] == 0.5
    assert payload["bracket_above"] == 0.75
    text = (tmp_path / "threshold.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "visibility,s_analytic,s_simulated,s_sigma"
    assert len(lines) == 4
    assert (tmp_path / "threshold.json").exists()


def test_threshold_bracket_independent_of_sweep_order(tmp_path):
    # the crossing of S = 2 is found along the visibility axis, while the
    # table keeps the order of the sweep
    sweep = (0.9, 0.8, 0.7, 0.6)
    payload = run_threshold(tmp_path, visibilities=sweep, chi_points=16)
    assert [row["visibility"] for row in payload["rows"]] == list(sweep)
    assert payload["bracket_below"] == 0.7
    assert payload["bracket_above"] == 0.8


def test_threshold_rows_do_not_depend_on_sweep_order(tmp_path):
    # a visibility's scans are keyed by its value, not by its place in the
    # sweep; -0.0 and 0.0 are one visibility
    forward = run_threshold(tmp_path / "a", visibilities=(0.7, 0.8, -0.0), seed=0, chi_points=16)
    backward = run_threshold(tmp_path / "b", visibilities=(0.0, 0.8, 0.7), seed=0, chi_points=16)
    assert forward["rows"] == backward["rows"][::-1]
    assert forward["rows"][0]["s_simulated"] == 1.9797951029735144


def test_run_threshold_validation(tmp_path):
    with pytest.raises(PreconditionError):
        run_threshold(tmp_path, visibilities=())


def test_run_lhv_payload(tmp_path):
    payload = run_lhv(tmp_path, shots=2000, seed=4)
    assert (tmp_path / "lhv.json").exists()
    assert payload["command"] == "lhv"
    assert len(payload["strategies"]) == 16
    assert payload["max_abs_s"] == 2.0
    assert payload["classical_bound"] == 2.0
    assert abs(payload["quantum_s"] - IDEAL_S) < 1e-15
    values = sorted({row["s_value"] for row in payload["strategies"]})
    assert values == [-2.0, 2.0]
    best = payload["sampled"]["best_strategy"]
    assert abs(payload["strategies"][best["index"]]["s_value"]) == 2.0
    assert best["s_value"] in (2.0, -2.0)
    assert best["sigma"] == 0.0
    uniform = payload["sampled"]["uniform_ensemble"]
    assert abs(uniform["s_value"]) < 5.0 * uniform["sigma"]


# SHA-256 of lhv.json at the default shot count, keyed by (alphas, chis,
# seed, sign convention). Test ids name the key, not the digest, so that a
# re-freeze keeps them.
LHV_JSON_DIGESTS = {
    (None, None, 0, None): "aa1c70f00df66d5d25ab05708d71d3daf60a76a7c9af230a59a0c5d6523b8222",
    ((0.3, 2.9), (-1.1, 5.0), 17, 0): (
        "a2ddc401a6b0c14ceec658cefc86010bb4df888a238a713a91ac3f1e1fdb80b9"
    ),
    ((-7.5, 100.25), (0.001, 3.0), 5, 3): (
        "8169f5510f5e99165c5fb24f481825df692d4c6680d04367c6c01202f38c6b8f"
    ),
    ((0.0, math.pi / 2.0), (0.79 * math.pi, 1.29 * math.pi), 2**64 - 1, 2): (
        "8c44a208f49bd1eee12c3c63a42278a4362279777a00dbac8679aedd494c8016"
    ),
}


@pytest.mark.parametrize("key", list(LHV_JSON_DIGESTS), ids=str)
def test_lhv_json_digests_are_frozen(tmp_path, key):
    alphas, chis, seed, sign_convention = key
    run_lhv(tmp_path, alphas=alphas, chis=chis, seed=seed, sign_convention=sign_convention)
    assert hashlib.sha256((tmp_path / "lhv.json").read_bytes()).hexdigest() == LHV_JSON_DIGESTS[key]


def test_run_lhv_custom_settings(tmp_path):
    payload = run_lhv(
        tmp_path,
        alphas=(0.0, 1.0),
        chis=(0.3, 2.0),
        shots=500,
        seed=1,
        sign_convention=3,
    )
    assert payload["alphas_rad"] == [0.0, 1.0]
    assert payload["negated_term"] == 3
    assert payload["max_abs_s"] == 2.0
    with pytest.raises(DomainError):
        run_lhv(tmp_path, alphas=(1.0, 1.0), chis=(0.3, 2.0), shots=10, seed=1)


def test_sign_matched_pairs_mixed_signs():
    # one positive and one negative on each side: match by sign even when
    # the phase positions are swapped
    sim = [
        ExpectationEstimate(-0.55, 0.01, setting=Setting(0.0, 0.79 * math.pi)),
        ExpectationEstimate(0.46, 0.01, setting=Setting(0.0, 1.29 * math.pi)),
    ]
    refs = [r for r in REFERENCE_EXPECTATIONS if r.alpha == math.pi / 2.0]
    pairs = _sign_matched_pairs(sim, refs)
    assert len(pairs) == 2
    for term, ref in pairs:
        assert (term.value > 0) == (ref.value > 0)


def test_sign_matched_pairs_same_signs_use_phase():
    sim = [
        ExpectationEstimate(0.59, 0.01, setting=Setting(0.0, 0.79 * math.pi)),
        ExpectationEstimate(0.45, 0.01, setting=Setting(0.0, 1.29 * math.pi)),
    ]
    refs = [r for r in REFERENCE_EXPECTATIONS if r.alpha == 0.0]
    pairs = _sign_matched_pairs(sim, refs)
    assert len(pairs) == 2
    for term, ref in pairs:
        assert abs(term.setting.chi - ref.chi) < 1e-9


def test_reproduce_summary_structure(tmp_path):
    config = fast_config(5, chi_points=16, repetitions=4)
    summary = reproduce_pipeline(config, out_dir=tmp_path)
    for name in ("manifest.json", "fits.json", "chsh.json", "summary.json"):
        assert (tmp_path / name).exists()
    assert summary["command"] == "reproduce"
    assert summary["seed"] == 5
    assert summary["config_sha256"] == sha256_of_text(config.canonical_text())
    assert len(summary["terms"]) == 4
    for term in summary["terms"]:
        assert term["sigma_statistical"] > 0.0
        assert term["sigma_systematic"] >= 0.0
        assert term["repetitions"] == 4
    sp = summary["s_prime"]
    total = math.sqrt(sp["sigma_statistical"] ** 2 + sp["sigma_systematic"] ** 2)
    assert abs(sp["sigma_total"] - total) < 1e-15
    assert summary["verdict"] in ("violated", "no violation")
    assert (summary["verdict"] == "violated") == sp["violated"]
    ref = summary["reference_experiment"]
    assert ref["s_value"] == 2.051
    assert len(ref["e_obs"]) == 4
    assert len(summary["comparison"]) == 4
    for entry in summary["comparison"]:
        want = abs(abs(entry["simulated_value"]) - abs(entry["reference_value"]))
        assert abs(entry["abs_value_difference"] - want) < 1e-15
    assert summary["files"]["chsh_report"] == "chsh.json"


def test_noiseless_pooled_fits_give_the_fisher_sigma():
    # The seed-free half of the calibration check: the default config's four
    # scans without noise, each fitted pooled over its 16 exposures, give the
    # true S' and the Fisher-information sigma, which the quoted sigma of
    # sampled runs should match. The pins are exact, so they also guard the
    # covariance arithmetic of the fits.
    config = RunConfig(seed=0)
    model = config.apparatus_model()
    alphas = (config.alpha1, config.alpha2)
    plans = [
        ScanPlan(a, config.chi_grid(), config.repetitions)
        for alpha in alphas
        for a in (alpha, alpha + math.pi)
    ]
    assert config.repetitions == 16 and config.sign_convention is None
    fits = [fit_sinusoid(noiseless_scan(model, plan)) for plan in plans]
    terms = _chsh_terms((fits[:2], fits[2:]), alphas, (config.chi1, config.chi2))
    negated = pick_negated_term([term.value for term in terms], None)
    result = s_prime(*terms, negated_term=negated)
    assert negated == 3
    assert result.s_value == 2.0695165473922823
    assert result.sigma == 0.011705554557717815


def test_reproduce_requires_partner_scans(tmp_path):
    config = fast_config(5, alphas=(0.0, math.pi / 2.0))
    with pytest.raises(DomainError, match=r"lack a scan at 3\.1415926535897931 rad"):
        reproduce_pipeline(config, out_dir=tmp_path)


def test_reproduce_respects_sign_convention(tmp_path):
    config = fast_config(5, chi_points=16, repetitions=4, sign_convention=0)
    summary = reproduce_pipeline(config, out_dir=tmp_path)
    assert summary["s_prime"]["negated_term"] == 0
    chsh = json.loads((tmp_path / "chsh.json").read_text())
    assert chsh["sign_convention"] == 0


def test_reproduce_is_deterministic(tmp_path):
    a = reproduce_pipeline(fast_config(9), out_dir=tmp_path / "a")
    b = reproduce_pipeline(fast_config(9), out_dir=tmp_path / "b")
    assert a == b
    assert (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "summary.json"
    ).read_bytes()


# One call per command, each writing into the directory it is given; fit and
# chsh read the scans and fit report the ``inputs`` fixture made elsewhere.
RERUNS = {
    "simulate": lambda inputs, out: run_simulate(fast_config(12), out_dir=out),
    "fit": lambda inputs, out: run_fit(inputs["csvs"], out),
    "chsh": lambda inputs, out: run_chsh(inputs["fits"], out),
    "threshold": lambda inputs, out: run_threshold(
        out, visibilities=(0.6, 0.8), counts_per_point=2000.0, seed=4, chi_points=12
    ),
    "lhv": lambda inputs, out: run_lhv(out, shots=1000, seed=3),
    "reproduce": lambda inputs, out: reproduce_pipeline(fast_config(12), out_dir=out),
}


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("leftover", ["longer", "empty"])
@pytest.mark.parametrize("command", sorted(RERUNS))
def test_rerun_over_existing_artifacts_writes_fresh_bytes(tmp_path, command, leftover):
    # Artifacts are overwritten in place rather than truncated on open, so a
    # file left by an earlier run, longer or empty, must end up holding
    # exactly what a run into a fresh directory writes.
    manifest = run_simulate(fast_config(13), out_dir=tmp_path / "inputs")
    csvs = [tmp_path / "inputs" / entry["path"] for entry in manifest["scan_files"]]
    inputs = {"csvs": csvs, "fits": run_fit(csvs, tmp_path / "inputs_fit")}
    RERUNS[command](inputs, tmp_path / "fresh")
    fresh = _tree_bytes(tmp_path / "fresh")
    assert fresh and all(fresh.values())
    again = tmp_path / "again"
    for name, data in fresh.items():
        (again / name).parent.mkdir(parents=True, exist_ok=True)
        (again / name).write_bytes(b"\xff" * (len(data) + 4096) if leftover == "longer" else b"")
    RERUNS[command](inputs, again)
    assert _tree_bytes(again) == fresh
