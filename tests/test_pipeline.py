"""Workflow layer: artifacts, manifests, report payloads, determinism."""

import hashlib
import json
import math
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
        "e14ed5204ea89e2069f2624a7c89ac0ee1236268c065b5005c2b342493ecb9a5",
        "b9aae73d35ca62b892364497d3838e9499820069b1ff143069273c37055ce7bf",
        "4ade0c55cb2c86b9518294f710ca0a33662e8f5a6008e72265a6a98afb64986c",
        "323ec395454421d10059c755c022a25a2be3bf23dd7f4ea61126f3e103049df2",
    ),
    (1, 0.05): (
        "be451bcb25307a0dd55e24d8ec6a598c9ace2b70431d3aa33ec6f4ac285e86d8",
        "ec271608653068584d1610f2e7bb7fc2e589c2473820959f316b9481852e781e",
        "af6b34c37886fe4608a0e5adcf56ff60ba40bc4ac8ef11720158f933dd6d1e50",
        "2bf368c317831450143b7f4a7e838b33cc554262c3adfe4efd417817e243591f",
    ),
    (2, 0.0): (
        "413da5531e211d5b89cde12ef4be4ec68ed2ebe234500278151a9fc91bdb172f",
        "1beca746671d30f0534c0f1e7525b9c192aefae1b21f3b0e548c265efac254e0",
        "b67e78c2b7b605094651e38999ffb7685c16608b8439fb42c417320faf93f464",
        "d00780789023a2f3ff882c75438052785c7d27e91bf03ae988586da06237d6a5",
    ),
    (2, 0.05): (
        "fda9694a4e243d2853c9dcd6d1993fb21bc70cdf6b88bf05f7f43850ebd98f8e",
        "8195f2903fd7401363f723e2326482dd8ce5077723f16e8ee995917ca3796eb8",
        "a33a9f0427e39db318bde22004be45facc7505f36a03129310b4b16db767e3c1",
        "b1c0de024970d366ce4663d9f2c4690e2bb4e1221709b15d456051aae5fca21f",
    ),
    (3, 0.0): (
        "9859ee911ffb1f991273340f73b048c6c1ae916f0f38f499208d91a7c96d85b3",
        "fc6790ef3fbcdd4cd241b2998d9578563a3ef4af0aad931164bae78899f6f409",
        "e9de977888cbe66b6325d2c3e7cb03f619afc6f42463096586f4aeac0dfc1f65",
        "9c12d30e2a5ff0d3d41bb13ee37c0a3138964e634e5b4084c22ea4b4ca141970",
    ),
    (3, 0.05): (
        "09c6eeca60d45d04ea61bf97d981ccfddd391ea6142552d51e62b6c9c4b09f9a",
        "68b895f041677f4dc6bce99cd1327ad74254b8410b942412de2de6d73fbd6fb4",
        "2c822d92883e67cff3bde8e0338312b86ee34be900908a67f703f772a270eecc",
        "51f6e927e22c0f8e130c3cdea99b2fa73966977bd7e07913c1a29654a10da53d",
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
        "00f4a8fc0f4aab1e008699b451a8f51abf1d38a754d2a7af532072e875558c99",
        "3d9d0902041f8373b5f5bd6aa6daa6617bbfa93979698ad0746938c8866af5d5",
        "05537f5ad7459de6255d01c17a73c47862aa5473f6395bc418dd688ab0c23f7d",
        "3afeba1264446fff6d13f27ee8378499bbe2b959b4a9b795137d9cda0b1017ff",
    ),
    (1, 0.05): (
        "d7834932183e14e604337ba576ca093d05e65aa8115ee4038977dac8404e14af",
        "b467d664b23c65d908fea2d873c5c50fbcb4121b8634705fae3c3064078793f2",
        "2117155bdc8d2a0fdaaefd66c3bc43f02e5dfae33ce01c25b725521cdd27dc9c",
        "c336d5b390f93dbc46fa76c899ea55d3ad6545081c4e1d75fb5157b8c2d7ea50",
    ),
    (2, 0.0): (
        "5bbf72a8c3b90acf2a1bff1c22bf1dca3c086e35257e7a4b56f8358facc1b603",
        "a43bc9d6c62d29213c1667b4af67dbb47abc2cbd2fca28c10df3ca3104656506",
        "649b5a025a18a2b413be40d76ed2af9892b1b880f4b9836fc7099f2e6a239ec3",
        "ff086f29a613237447b0a7a872f310f2e63099e5e49d4de46fbac88469939403",
    ),
    (2, 0.05): (
        "8925f8af5f38a755aa6926853781142696920c614e6a5dd60304e820b7f81ab6",
        "b03f4eaab9ec0ea19f01f19c28e7fafa67365ddae3d3eea0d82b86c486a411a7",
        "f2fc10d10256661b4f7161be1923234fb7773987363f6c5d83dea8525b307a3d",
        "a4f0417c23f04da8856e76bac5457d1546ade09e4e1cfbd659c6fe77f4c656ba",
    ),
    (3, 0.0): (
        "4d11f7eefe7c9141180db389b9ed17f22d5a99dfff3ff161ec5ea933aade331f",
        "19c5fc09ef5460d403dd6d50e469acd4495b724fc6e895abd36c944e0af71fd0",
        "081c19ec2549cfe61e02c8af4855c262db209c16d481a25d83403754fbb46353",
        "cd7e99375182c54c3bad129932784392ee83b94f62a9e0876def24f5f5ad504a",
    ),
    (3, 0.05): (
        "6a73b3cdff83f05962684f242260c0856aa3e9dda14b4415cf94ea05f49d8348",
        "3d45fce17686e0e308155c941fa296adc2374f23cec101bb49fd8078d1ab8692",
        "daabc7c79516e5dd8e9dfdf56ac375e4101f866148d798875061cd12648b7032",
        "f763e4bc4d74877e2fb30fcdfa87c8fff23b5876c99375a977a754f9758060fa",
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
        "d4e593513075177bb1607aa8a48ac6f3197dc30e597b4cf6c9cd1d4caf260d51",
        "3b8ae71b366304da5ed908f45b72b92df90eb54d4d3ddfaac8404775afd7192a",
        "9d1bf3577f072b5dbec144edcfd3f9c19406f5f7ad67a473d80dfdf04afb3310",
    ),
    (1, 0.05): (
        "076c13c84f23488e30b12323fb5ff4671d6fab15e5423a3df80385620ed66616",
        "851ebf59334fcf16f348bc150f6d06362f891751b790e0a561d39ffc175b6c36",
        "ffd0cf1e159ee77539797a223ec7f4b370f6df4b2eba31e3837c1e1bd6162fdd",
    ),
    (2, 0.0): (
        "8340df8ddf8446089e2fd82f6f87be7397034b3c9c7f66779c64aa2f73ce6999",
        "56f5bae73c237171be918b390b603edcb79674583a670c013fe621138eff3739",
        "63d0dcce64d79f692837c471bff3ebcf51912ed0699d39c48a87d4ca09c873e5",
    ),
    (2, 0.05): (
        "a8c05a399ccb05dd63efc12521e1fa443c15fddbcc2acb5c0e1a1b0a41bc21bc",
        "b403c3caa3d06b638667ab75f400c1330b6101fa6b98f08e8c8bf13afc52caa6",
        "66cd1e77371f54db354b1afb384b20824bd0742473d4cf4dc6f90422d37b38c4",
    ),
    (3, 0.0): (
        "f3d7752696caa3ddc07278316ca7ef6e5cae965ba86ec1cd191f54cf3009458b",
        "a1707c6844566f8abbcf0b62e8759698ceb1ed5f1b912d450bc54d4e4eba858c",
        "7085e74d085aa2dc1957850c8d47774bb191fb9c29222d7f23726dfc005a28f9",
    ),
    (3, 0.05): (
        "69413123924afd51ab8f41c57ee292e19a295c8f02bcd350a11729a6973e44de",
        "82d35a23e7e3d74ebe04767e2a788d87d0a3c879399962131da61ea7b03e2274",
        "cc079c01bd031e1abf1c9a28f63874d8e4686c80eb882347d6b75510ec55190b",
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


# SHA-256 of lhv.json for (alphas, chis, seed, sign convention) at the
# default shot count, computed before the oracle moved to its outcome table;
# the table rewrite, its positional tallies and the draw-free one-strategy
# ensemble must leave every byte as it was.
LHV_JSON_DIGESTS = [
    (None, None, 0, None, "b6428e72de2536f66a2662f68aa1cb448cabcf3743d373ecf6ce2eafd424762d"),
    (
        (0.3, 2.9),
        (-1.1, 5.0),
        17,
        0,
        "7e9991a4eeb5db28bf87f153a8e049ad4edabfed6ca12bfe3ca8b788cfac3324",
    ),
    (
        (-7.5, 100.25),
        (0.001, 3.0),
        5,
        3,
        "49b96a6b0654d40d250178a58d82e783997ed3a3acee1ec1af8dcdcc067e768e",
    ),
    (
        (0.0, math.pi / 2.0),
        (0.79 * math.pi, 1.29 * math.pi),
        2**64 - 1,
        2,
        "abd22b6d0a0d5d8ebdc8887d6b7d9ab398fd1257a211e5e000ec2497fdeb186b",
    ),
]


@pytest.mark.parametrize("alphas, chis, seed, sign_convention, digest", LHV_JSON_DIGESTS)
def test_lhv_json_digests_are_frozen(tmp_path, alphas, chis, seed, sign_convention, digest):
    run_lhv(tmp_path, alphas=alphas, chis=chis, seed=seed, sign_convention=sign_convention)
    assert hashlib.sha256((tmp_path / "lhv.json").read_bytes()).hexdigest() == digest


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
