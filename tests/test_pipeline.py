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
    CsvFormatError,
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
    max_violation_settings,
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
from spinpath import montecarlo, pipeline
from spinpath.analysis import fit_rate_curve
from spinpath.angles import TWO_PI, circular_distance, uniform_chi_grid
from spinpath.apparatus import IDEAL_S, REFERENCE_EXPECTATIONS, ReferenceExpectation
from spinpath.lhv import enumerate_strategies
from spinpath.pipeline import (
    _chsh_terms,
    _ensure_dir,
    _sign_matched_pairs,
    _write_residuals,
    chsh_terms_from_fits,
    load_fit_report,
    pick_negated_term,
)
from spinpath.report import format_counts, format_real, render_json, sha256_of_text, write_csv

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
        "7acfe6af125ae5d678393e9f6c30e5bfd88d6b12377dd22dc434aa39474c2b43",
        "b41832e1ff76ff28c636cd8a6382f7d6ee58f4e6d09d2efb1b83a35dc316e23a",
        "26704eb13bbb5e2f4aea388a17c97370ae9640cf33d356832cbd8b2fcb19a240",
        "eb6117c02fcf36350682f1524f16ab495872b310bb3bc9ba2f3173172012f029",
    ),
    (1, 0.05): (
        "87c1ffc22f8b99cf0b6745143aab46d6b754ffc69f42fe3a3df2e4e54287076a",
        "46991dd53df39e94994b77d193b88d664f7ac8b14b767912cfea42b6ac691c3b",
        "8a77bc4f8dd0c01bc6c1befd2b5cc2d2841ca738aa1acc40efeaef38667cd3c6",
        "271d5eea644f17d06f535b2e0ba11cffe03c864e1c277f027a25311a9c01c609",
    ),
    (2, 0.0): (
        "e13ac66b13b2e5038b9bb05a2bfe5cd3b74157c6efd540f2bae8e2d7a3521d0a",
        "f1d3006fffb6fa314bf24f205c826d86c9b35e1f0b82b41306e79c60ddbdfddc",
        "bf3226429eb0263d3a0b96a735b278e374d5a02174b810ad9523be2e54916ca4",
        "1d1695cb83bb9f67e4ff1a9f6a032312a8ed46681debc2bb70adcca370bf2353",
    ),
    (2, 0.05): (
        "6bd5c80b9670e6862c7ca8b1e3a8f88aebbe9095f5a39cca8c47174d1472500b",
        "c16d9f87bb805753331aa6feb6e23b1f2d46c184e1489201844fd582cb38d318",
        "3891eedb0b8b91e5c6d9670b6eb2e69bfaac8d01d814b03c81ad4c75e85726cb",
        "0425e03345cc9427853eaa473f32774ee2d4defc53d22c0b934bbd09b8e24168",
    ),
    (3, 0.0): (
        "25bf5ad4f9f6d38ad5197e507a2175a083221a7497a921aaa3e3fa17d57c2789",
        "979db9b2cce2c0ad31a708acaebea08da4b8f0c8d67dea1241a2e8085cc37035",
        "1dc2f8e087abdb8dedd4e4e9c8ac815bac93506469c9a761745a304855c50db7",
        "4375b747152b3694558a1c7973da753ead9ee7dacd04e99548ca735dc2a39c13",
    ),
    (3, 0.05): (
        "760a0bd4f7137d1b6923447f81f605542f6c79f21cb32afbe1cb0d162a6f6eb1",
        "abdcbdeec414404939d12a0cc728894b7b9d17d06dcd3e966add218c36a7727f",
        "564b8af4d1e6ceca7bb33af7892a90a0e0ec021ea0f4002e8906f637fdae89e4",
        "f5ee70a11ba15871d487eb06d3f92ba636fcc73de2d60f5e7f28ecc955c80f87",
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
# of reproduce_pipeline with the default configuration at (seed, drift_sigma);
# under "noiseless", the residuals of one noiseless (real-valued count) scan
# through run_fit; and under "refit", run_fit's residuals of the four 64x64
# scan CSVs that run_simulate writes at seed 1, which pin the CSV read side.
# Residuals hold fitted rates and pulls, so unlike the scan CSVs they depend
# on the 3x3 solve of the fit and pin this numpy/LAPACK build as well as the
# renderer.
RESIDUAL_CSV_DIGESTS = {
    (1, 0.0): (
        "949599794de3a87e3cbd9a05607109091e68db1cafbd8e156dd2af87f3e50bf7",
        "e8f90be171afe2c63ec89d7eacd4711fedd87cbc43a3d23a7eac10f7240db25d",
        "b521e5e5f561afd0db93533d14d33b859e7f535d10b6e93b884713a2efc3d460",
        "2b6fc89e3b7eb3dd3e06080c06faa4f638f61cf9420a73d1512f95fdbcff79d4",
    ),
    (1, 0.05): (
        "928e2b109ca7637faa793f12aca9d60bd72723c2ad1233fa53afb37b624a6d50",
        "57e7cd95c08903d1a25c04aea2162e0407b611f2dedf26899d2155ecc8f36c56",
        "0dece205f26a21b00a478ecc72e8f059adbc84754d32bd65c5d24293be5716ad",
        "731e3d70a59f7282e289aa5b0c555643318cf2c585b7367e982f1bf64e589315",
    ),
    (2, 0.0): (
        "b107992ae439ee0c17d7f9333bccbe7c203d8ca68f619c88dbe15a4d79a4a208",
        "13f6f5ed2e757e69187f97e5ef4e4a09349c523787f04d4aba21c1e038d119a3",
        "8e2991ea9bd593ea27cd1d232fb21976d782a26d057e379a7d84d8bbaf4e0e2f",
        "c731a5b0bb56fd9c7ce3058382885e508020e949c0ce98cbd7c408efda9e2215",
    ),
    (2, 0.05): (
        "0da4c032f305adfc49724309468938612aeeddc30b863ef1a741334b5fdd90f7",
        "1ec4ac2a7290dda5d41e3d346da79a2440fb907fb8aaf9d52ee016f222cde126",
        "8d2bfab6c95d1cdc848e0d91aefe3e8c836ce2e9add709bb09fb9e34454b0030",
        "f1525fda387b066d86f3f05adf0cb1e749d03d14ff495352d3356e5aa30347dc",
    ),
    (3, 0.0): (
        "a78e917d6f74cd3149f1af1cb668e796d309c877455f3beafaee966075f85477",
        "06331f2a1ee89b5b7de537fceb6d6c84987bd283152ec840483520ef5219b3f6",
        "76bc4ae7503a86dd312ddd3783e462fbababf327e4552328f0ce49abdf07763e",
        "470d460fdbdbb72ccbc3133858b0ce6ce96a9b358c3c985f7ebf9beb1e59821a",
    ),
    (3, 0.05): (
        "0872346c16594268ee50796b6aac2e95bd49fca8c4ced397c023223e417087e2",
        "d8ddb9c1bed37ef8d312fddf383e8050554d0b74bdda5a250a0983f9381f4644",
        "afe77887d3d122569ce9ca86ae96bdf5942e3906ff4447a770ffb719163af41a",
        "c0dc938f02d15254525a5b083c2695acc1b77bd21d60bb60a35a818b5247c1ca",
    ),
    "noiseless": ("b256005c17fb6febfa8c7262aededa2456a1d50e5ca458dc324e65eaecd11abf",),
    "refit": (
        "319447625dc31d2259ad47cb79d0ed01143563d5bbb3fea64b18f40b9f565449",
        "95263a16fe550ccea255eac2bec22e948891a41e3a2232d177757ebbc86886bb",
        "355900bbf5828dd751e43e3deef60347dd5695eaac0b38fdc626343cd7a77c10",
        "971579fb9e50d78aa4aeafb05ad60fb6bd1f39517218df5ce4da797550f35b82",
    ),
}


def _residual_digests(key, out):
    if key == "noiseless":
        model = RunConfig(seed=0).apparatus_model()
        plan = ScanPlan(alpha=0.0, chi_values=uniform_chi_grid(16), exposures=2)
        write_scan_csv(noiseless_scan(model, plan), out / "noiseless.csv")
        run_fit([out / "noiseless.csv"], out / "fit")
        names = [out / "fit" / "noiseless_residuals.csv"]
    elif key == "refit":
        run_simulate(RunConfig(seed=1, chi_points=64, repetitions=64), out / "scans")
        run_fit([out / "scans" / f"scan_{index:02d}.csv" for index in range(4)], out / "fit")
        names = [out / "fit" / f"scan_{index:02d}_residuals.csv" for index in range(4)]
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
        "5e94fe27e7f8969459e8dd29cda76b3a085f81b0f71528bc3ea8c231401a7e7a",
        "7bc7681758e48500fd9074ebee737982bf12563b4734640d7526ca1b5031392b",
        "5a493f6187371eaa9235bf40f57816ecb26405083f0ed7155b66045286a8932d",
    ),
    (1, 0.05): (
        "11c1c9f860ef2f770633396f5af6cd8b8b67d8d6404654d214ac015c8104212f",
        "b6dfc3c29e51ea987ddd4d24b2dd238c267d5be191b9476a5495e1b68ece5677",
        "f9d7f88c48340c250e9ec7dd273e60606e5d2eb1e742cabab3a988ebaf5b4174",
    ),
    (2, 0.0): (
        "72705763987121bc78546003ce9bbd8380432ab2396788fa1264078d4009135b",
        "58b0d293ef42ea1bc4a9088f676f988384f797c91f86015a9dc9e8e8ac4c6dd6",
        "08b5befeb38d74c87f4cc4f20f8b468a236fa1e1561d07bb59574d4fc8df2a7b",
    ),
    (2, 0.05): (
        "5a105dd1b29044dad04216600db8d641a44fe343dfc9b2f22d18c6878455bcfa",
        "86bbcdc3355baa0d309a37a97ebe5a8ce5cabb454c0b179d1b96ad5fe7df7caf",
        "6348f2bbf525ae3631f195cea6f3bb702fcfdafeb7af1fc45af8bd38e6cb91ec",
    ),
    (3, 0.0): (
        "4dce4e1fccb2dee0aa376bf6882980ff8394d13e530ecab446776118eae1080e",
        "aacc3538205dfcef3fc4400505917b6b03dd3f8cd4e9f4a78b5a46abca69d3b6",
        "2f23370c525f374cec3c5a84c428275833e2aa5cdf6e3001a2b9ddb609d8e63f",
    ),
    (3, 0.05): (
        "8b15abaacb979d04e67956aa2faa0bd955aefeedf44158d0fd4610a7b0914754",
        "2c8d74962c914b409c45aa52adf6f0283f74d73a37dd93ab91c4242139544241",
        "500daa95d0c8ebc2c4af7a5dd74252254f4014e77aae7cbc551545f419d90025",
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


@pytest.mark.parametrize("report", [{"a": 1}, {"fits": 5}, []], ids=repr)
def test_chsh_refuses_a_malformed_report_before_writing(tmp_path, report):
    # One typed error, as load_fit_report gives for the same report on file.
    with pytest.raises(PreconditionError, match="fit report"):
        run_chsh(report, tmp_path / "chsh")
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


# One refused call of each entry that writes into an output directory.
REFUSED_CALLS = {
    "fit on a malformed CSV": CsvFormatError,
    "chsh on a report without fits": PreconditionError,
    "threshold on an empty sweep": PreconditionError,
    "lhv on a bad sign convention": DomainError,
}


def _refused_call(case, out):
    if case == "fit on a malformed CSV":
        bad = out.parent.parent / "bad.csv"
        bad.write_text(montecarlo.CSV_HEADER + "\n0,0,0\n")
        run_fit([bad], out)
    elif case == "chsh on a report without fits":
        run_chsh({"a": 1}, out)
    elif case == "threshold on an empty sweep":
        run_threshold(out, visibilities=())
    else:
        run_lhv(out, sign_convention=7)


@pytest.mark.parametrize("case", list(REFUSED_CALLS))
def test_a_refused_call_creates_no_output_directory(tmp_path, case):
    # Inputs are read and checked before the output directory is made; an
    # argument's error also comes before an out_dir's.
    out = tmp_path / "a" / "out"
    with pytest.raises(REFUSED_CALLS[case]):
        _refused_call(case, out)
    assert not (tmp_path / "a").exists()
    afile = tmp_path / "a"
    afile.write_text("x")
    with pytest.raises(REFUSED_CALLS[case]):
        _refused_call(case, afile / "out")
    assert afile.read_text() == "x"


@pytest.mark.parametrize("entry", [run_simulate, reproduce_pipeline], ids=lambda f: f.__name__)
def test_a_mean_rate_beyond_the_sampler_creates_no_output_directory(tmp_path, entry):
    out = tmp_path / "a" / "out"
    with pytest.raises(DomainError, match="Poisson mean must not exceed"):
        entry(RunConfig(seed=1, mean_rate=9e6), out)
    assert not (tmp_path / "a").exists()


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


@pytest.mark.parametrize("chi2", [True, [0.5], math.nan], ids=["bool", "list", "nan"])
def test_chsh_refuses_a_bad_angle_before_any_term(tmp_path, chi2):
    # The four settings are built before the first term is evaluated: with
    # fits whose first term has a non-positive total rate and a bad chi2, the
    # angle is the error reported.
    report = make_fit_report(tmp_path)
    with pytest.raises(DomainError, match="non-positive total rate"):
        chsh_terms_from_fits(_flipped(report), 0.0, math.pi / 2.0, 0.5, 1.5)
    with pytest.raises(DomainError, match="angle must be a real number|angle must be finite"):
        chsh_terms_from_fits(_flipped(report), 0.0, math.pi / 2.0, 0.5, chi2)


def _flipped(report):
    # the fits at alpha = 0 and pi with negated coefficients: every rate the
    # first term reads is negative
    report = json.loads(json.dumps(report))
    for entry in report["fits"]:
        if entry["alpha_rad"] in (0.0, math.pi):
            entry["coeffs"] = [-c for c in entry["coeffs"]]
    return report


def test_chsh_requires_partner_scans(tmp_path):
    report = make_fit_report(tmp_path)
    report["fits"] = report["fits"][:2]  # drop alpha = pi and 3pi/2
    with pytest.raises(DomainError) as err:
        chsh_terms_from_fits(report, 0.0, math.pi / 2.0, 0.5, 1.5)
    assert "alpha" in str(err.value)


def test_chsh_names_the_first_missing_partner(tmp_path):
    report = make_fit_report(tmp_path)
    report["fits"] = report["fits"][:2]  # drop alpha = pi and 3pi/2
    message = (
        "the fit report's alphas lack a scan at 3.1415926535897931 rad; "
        "a CHSH sum needs each analyzer angle and its pi-shifted partner"
    )
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        chsh_terms_from_fits(report, 0.0, math.pi / 2.0, 0.5, 1.5)


def _with_second_fit_at_zero(report):
    # the report with a copy of its alpha = 0 fit, at 2*pi and three times
    # the amplitude, appended: a second fit at the same analyzer angle
    report = json.loads(json.dumps(report))
    second = next(dict(entry) for entry in report["fits"] if entry["alpha_rad"] == 0.0)
    second["alpha_rad"] = TWO_PI
    second["coeffs"] = [3.0 * c for c in second["coeffs"]]
    report["fits"].append(second)
    return report


def test_chsh_refuses_a_second_fit_at_an_analyzer_angle(tmp_path):
    # The first fit at alpha 0 used to be read and the second ignored.
    report = make_fit_report(tmp_path)
    doubled = _with_second_fit_at_zero(report)
    message = (
        "the fit report's alphas hold 2 scans at 0 rad; "
        "a CHSH sum reads one scan at each analyzer angle"
    )
    for quadruple in [(0.0, math.pi / 2.0, 0.5, 1.5), (math.pi / 2.0, math.pi, 0.5, 1.5)]:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            chsh_terms_from_fits(doubled, *quadruple)
    # a quadruple that reads neither alpha 0 nor pi is unaffected
    quadruple = (math.pi / 2.0, 1.5 * math.pi, 0.5, 1.5)
    assert chsh_terms_from_fits(doubled, *quadruple) == chsh_terms_from_fits(report, *quadruple)


def test_reproduce_refuses_two_scans_at_an_analyzer_angle(tmp_path, monkeypatch):
    alphas = (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi, -TWO_PI)
    monkeypatch.setattr(montecarlo, "sample_scan", None)  # a draw would raise TypeError
    message = (
        "configured alphas hold 2 scans at 0 rad; a CHSH sum reads one scan at each analyzer angle"
    )
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        reproduce_pipeline(fast_config(5, alphas=alphas), out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# Quadruples with two equal spin angles or two equal path phases on the
# circle. The oracle refuses them, and so do chsh and reproduce, with its
# message: a CHSH sum of such a quadruple reads one pair of scans twice.
DEGENERATE_QUADRUPLES = {
    "alpha1 = alpha2": (math.pi / 2.0, math.pi / 2.0, 0.79 * math.pi, 1.29 * math.pi),
    "alpha 0 and 2pi": (0.0, TWO_PI, 0.79 * math.pi, 1.29 * math.pi),
    "chi1 = chi2": (0.0, math.pi / 2.0, 0.79 * math.pi, 0.79 * math.pi),
}


def _oracle_refusal(quadruple):
    a1, a2, c1, c2 = quadruple
    with pytest.raises(DomainError) as refused:
        enumerate_strategies(((a1, a2), (c1, c2)))
    assert "must be distinct angles" in str(refused.value)
    return f"^{re.escape(str(refused.value))}$"


@pytest.mark.parametrize("case", list(DEGENERATE_QUADRUPLES))
def test_chsh_refuses_a_degenerate_quadruple_as_the_oracle_does(tmp_path, case):
    quadruple = DEGENERATE_QUADRUPLES[case]
    a1, a2, c1, c2 = quadruple
    message = _oracle_refusal(quadruple)
    report = make_fit_report(tmp_path)
    with pytest.raises(DomainError, match=message):
        chsh_terms_from_fits(report, *quadruple)
    with pytest.raises(DomainError, match=message):
        run_chsh(report, tmp_path / "out", alpha1=a1, alpha2=a2, chi1=c1, chi2=c2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", list(DEGENERATE_QUADRUPLES))
def test_reproduce_refuses_a_degenerate_quadruple_as_the_oracle_does(tmp_path, case):
    a1, a2, c1, c2 = quadruple = DEGENERATE_QUADRUPLES[case]
    config = fast_config(5, alpha1=a1, alpha2=a2, chi1=c1, chi2=c2)
    with pytest.raises(DomainError, match=_oracle_refusal(quadruple)):
        reproduce_pipeline(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


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
    assert forward["rows"][0]["s_simulated"] == 1.9817464455594314


# The benchmark's contrast sweep: 11 contrasts from 0.50 to 1.00.
BENCH_SWEEP = tuple(0.50 + 0.05 * k for k in range(11))

# SHA-256 of threshold.json and threshold.csv, keyed by (visibilities,
# counts_per_point, seed, chi_points). They pin the sampled scans at mean
# 1e5, where nearly every draw takes PTRS, their fits and the CHSH reduction
# at the maximal-violation settings. The last sweep is unsorted and holds
# -0.0 and 1.0.
THRESHOLD_DIGESTS = {
    (BENCH_SWEEP, 100_000.0, 0, 32): (
        "b9f84c7a4023ab482365732ce37190619ab3026ccb77a7763edf2f299a797459",
        "835a6a102ef3fd7569faae0a5a20c13c7a42c2bd1d8dd10d6127f560f6ac2e57",
    ),
    (BENCH_SWEEP, 100_000.0, 2**64 - 1, 32): (
        "996edf120b799a27b8e7487212e57617b3884d2bb326d80efa867d394b04e5ce",
        "1e8ce22b6b4816297beda06216d68a98b810c76f0db3c5927e06241b8de7a65c",
    ),
    ((0.9, -0.0, 1.0, 0.3, 0.71), 100_000.0, 7, 7): (
        "406d3c05c3d765f5733874b67e114b9b5056ffdd15c6f429a9b96a8a2c170fb5",
        "67079523c64e3098008f7dadb6ee1e149a6dd9b2e0c9094471eeafc702d3ec39",
    ),
}


@pytest.mark.parametrize("key", list(THRESHOLD_DIGESTS), ids=lambda k: f"seed{k[2]}-chi{k[3]}")
def test_threshold_digests_are_frozen(tmp_path, key):
    visibilities, counts_per_point, seed, chi_points = key
    run_threshold(
        tmp_path,
        visibilities=visibilities,
        counts_per_point=counts_per_point,
        seed=seed,
        chi_points=chi_points,
    )
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("threshold.json", "threshold.csv")
    )
    assert digests == THRESHOLD_DIGESTS[key]


def test_threshold_builds_each_setting_once_per_sweep(tmp_path, monkeypatch):
    # 4 plans of 32 cells and one CHSH quadruple, shared by all 11 contrasts,
    # where 1,452 settings were built before; every cell rate is still one
    # predicted_rate call, and every contrast's terms carry the quadruple's
    # settings in the order (a1,c1), (a1,c2), (a2,c1), (a2,c2)
    built = []
    rates = []
    terms = []
    post_init = Setting.__post_init__
    predicted_rate = montecarlo.predicted_rate
    monkeypatch.setattr(Setting, "__post_init__", lambda self: built.append(post_init(self)))
    monkeypatch.setattr(
        montecarlo, "predicted_rate", lambda *args: rates.append(1) or predicted_rate(*args)
    )
    monkeypatch.setattr(pipeline, "s_prime", lambda *args: terms.append(args) or s_prime(*args))
    run_threshold(tmp_path, visibilities=BENCH_SWEEP, counts_per_point=1e5, seed=0, chi_points=32)
    assert len(built) <= 4 * 32 + 4
    assert len(rates) == len(BENCH_SWEEP) * 4 * 32
    a1, a2, c1, c2 = max_violation_settings()
    want = [Setting(a1, c1), Setting(a1, c2), Setting(a2, c1), Setting(a2, c2)]
    assert len(terms) == len(BENCH_SWEEP)
    assert all([term.setting for term in args] == want for args in terms)


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


def test_lhv_json_is_the_rendered_report_under_every_sign_convention(tmp_path, monkeypatch):
    # lhv.json splices in a strategy table rendered once per sign convention.
    # Equal seeds and shots, and a convention seen before at other settings,
    # make a wrongly keyed table show.
    monkeypatch.setattr(pipeline, "_STRATEGY_TABLE_TEXT", {})
    calls = [
        (1, None, None),
        (3, (0.3, 2.9), (-1.1, 5.0)),
        (0, None, None),
        (2, (-7.5, 100.25), (0.001, 3.0)),
        (1, (0.0, 1.0), (0.3, 2.0)),
        (3, None, None),
        (None, (0.3, 2.9), (-1.1, 5.0)),
    ]
    for k, (convention, alphas, chis) in enumerate(calls):
        out = tmp_path / f"q{k}"
        report = run_lhv(
            out, alphas=alphas, chis=chis, shots=1000, seed=7, sign_convention=convention
        )
        assert isinstance(report["strategies"], list)
        assert (out / "lhv.json").read_text(encoding="ascii") == render_json(report)
    assert len(pipeline._STRATEGY_TABLE_TEXT) == 4


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


def _two_branch_sign_matched_pairs(sim_group, ref_group):
    # The reference for _sign_matched_pairs, a general pairing of any group
    # sizes: by sign when each side holds one positive and one negative
    # value, else each term in turn takes the nearest unused reference in
    # phase, the first on a tie.
    sim_signs = {term.value > 0 for term in sim_group}
    ref_signs = {ref.value > 0 for ref in ref_group}
    if (
        len(sim_group) == 2
        and len(ref_group) == 2
        and sim_signs == {True, False}
        and ref_signs == {True, False}
    ):
        pairs = []
        for term in sim_group:
            for ref in ref_group:
                if (term.value > 0) == (ref.value > 0):
                    pairs.append((term, ref))
        return pairs
    pairs = []
    used = set()
    for term in sim_group:
        best = None
        best_distance = math.inf
        for index, ref in enumerate(ref_group):
            if index in used:
                continue
            distance = circular_distance(term.setting.chi, ref.chi)
            if distance < best_distance:
                best = index
                best_distance = distance
        if best is not None:
            used.add(best)
            pairs.append((term, ref_group[best]))
    return pairs


_PAIRING_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5]) | st.floats(-1.0, 1.0)
# 0 and 2pi are one phase; drawing from a short list makes equal phases common.
_PAIRING_PHASES = st.sampled_from([0.0, TWO_PI, math.pi, 0.79 * math.pi]) | st.floats(-7.0, 7.0)


@given(
    values=st.lists(_PAIRING_VALUES, min_size=4, max_size=4),
    phases=st.lists(_PAIRING_PHASES, min_size=4, max_size=4),
)
def test_sign_matched_pairs_equal_the_two_branch_pairing(values, phases):
    sim = [
        ExpectationEstimate(value, 0.01, setting=Setting(0.0, chi))
        for value, chi in zip(values[:2], phases[:2])
    ]
    refs = [
        ReferenceExpectation(0.0, chi, value, 0.01) for value, chi in zip(values[2:], phases[2:])
    ]
    got = _sign_matched_pairs(sim, refs)
    want = _two_branch_sign_matched_pairs(sim, refs)
    assert [(id(a), id(b)) for a, b in got] == [(id(a), id(b)) for a, b in want]


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


def test_the_comparison_skips_an_alpha_with_no_reference_values(tmp_path):
    # The reference experiment measured at alpha 0 and pi/2 only: a run at
    # alpha1 = pi/4 compares its alpha2 terms and leaves alpha1's out.
    alphas = (math.pi / 4, 5 * math.pi / 4, math.pi / 2, 3 * math.pi / 2)
    config = fast_config(5, chi_points=16, repetitions=4, alphas=alphas, alpha1=math.pi / 4)
    summary = reproduce_pipeline(config, out_dir=tmp_path)
    assert [term["alpha_rad"] for term in summary["terms"]] == [math.pi / 4] * 2 + [math.pi / 2] * 2
    comparison = summary["comparison"]
    assert [entry["alpha_rad"] for entry in comparison] == [math.pi / 2] * 2
    assert [entry["reference_value"] for entry in comparison] == [0.438, -0.538]


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
    chis = (config.chi1, config.chi2)
    settings = [Setting(alpha, chi) for alpha in alphas for chi in chis]
    terms = _chsh_terms((fits[:2], fits[2:]), chis, settings)
    negated = pick_negated_term([term.value for term in terms], None)
    result = s_prime(*terms, negated_term=negated)
    assert negated == 3
    assert result.s_value == 2.0695165473922823
    assert result.sigma == 0.011705554557717815


def test_reproduce_requires_partner_scans(tmp_path):
    config = fast_config(5, alphas=(0.0, math.pi / 2.0))
    with pytest.raises(DomainError, match=r"lack a scan at 3\.1415926535897931 rad"):
        reproduce_pipeline(config, out_dir=tmp_path)


_LACKS_PI = (
    "configured alphas lack a scan at 3.1415926535897931 rad; "
    "a CHSH sum needs each analyzer angle and its pi-shifted partner"
)

# Configs that reproduce refuses from the config alone, before it samples:
# (config, error, message). The 3-point grid is refused with the fit's own
# error; a missing partner is reported before a mean the sampler refuses.
REFUSED_BEFORE_SAMPLING = {
    "missing partner": (
        lambda: fast_config(5, alphas=(0.0, math.pi / 2.0)),
        DomainError,
        re.escape(_LACKS_PI),
    ),
    "missing partner and a mean beyond the sampler": (
        lambda: fast_config(5, alphas=(0.0, math.pi / 2.0), mean_rate=2e7),
        DomainError,
        re.escape(_LACKS_PI),
    ),
    "degenerate quadruple": (
        lambda: fast_config(5, alpha2=0.0),
        DomainError,
        "the two spin settings must be distinct angles, got 0.0 and 0.0",
    ),
    "3-point grid": (
        lambda: RunConfig(seed=1, chi_points=3, repetitions=2),
        InsufficientDataError,
        "need at least 4 distinct chi values, got 3",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED_BEFORE_SAMPLING))
def test_reproduce_refuses_what_its_config_decides_before_it_writes(tmp_path, monkeypatch, case):
    make_config, error, message = REFUSED_BEFORE_SAMPLING[case]
    config = make_config()
    monkeypatch.setattr(montecarlo, "sample_scan", None)  # a draw would raise TypeError
    with pytest.raises(error, match=f"^{message}$"):
        reproduce_pipeline(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_a_grid_reproduce_refuses_is_one_the_fit_refuses_alike(tmp_path):
    with pytest.raises(InsufficientDataError) as refused:
        reproduce_pipeline(RunConfig(seed=1, chi_points=3, repetitions=2), out_dir=tmp_path / "o")
    with pytest.raises(InsufficientDataError) as fit_refused:
        fit_rate_curve(uniform_chi_grid(3), [10.0, 20.0, 30.0])
    assert str(refused.value) == str(fit_refused.value)


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


@pytest.fixture(scope="module")
def rerun_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    manifest = run_simulate(fast_config(13), out_dir=root / "scans")
    csvs = [root / "scans" / entry["path"] for entry in manifest["scan_files"]]
    return root, {"csvs": csvs, "fits": run_fit(csvs, root / "fit")}


# run_simulate and reproduce_pipeline read an out_dir of None as the config's.
_NOT_PATH_CASES = [
    (command, out_dir)
    for command in sorted(RERUNS)
    for out_dir in (None, 5, b"x")
    if out_dir is not None or command not in ("simulate", "reproduce")
]


@pytest.mark.parametrize("command, out_dir", _NOT_PATH_CASES, ids=repr)
def test_an_out_dir_that_is_not_a_path_is_a_precondition_error(
    tmp_path, monkeypatch, rerun_inputs, command, out_dir
):
    root, inputs = rerun_inputs
    before = _tree_bytes(root)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(PreconditionError, match=f"got {type(out_dir).__name__}$"):
        RERUNS[command](inputs, out_dir)
    assert not any(tmp_path.iterdir())
    assert _tree_bytes(root) == before
