"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test name carries its criterion number so the verbose run reads as a
pass/fail checklist. Runtime budgets are asserted with wall-clock checks.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np

from spinpath import (
    RunConfig,
    Setting,
    bell_state,
    expectation,
    joint_probability,
    path_projector,
    spin_projector,
)
from spinpath.analysis import (
    ExpectationEstimate,
    e_obs_from_counts,
    fit_sinusoid,
    max_violation_settings,
    s_of_visibility,
    s_prime,
    visibility_threshold,
)
from spinpath.apparatus import (
    ApparatusModel,
    ScanPlan,
    REFERENCE_S,
    REFERENCE_S_SIGMA,
    predicted_rate,
)
from spinpath.cli import main
from spinpath.lhv import enumerate_strategies, strategy_s
from spinpath.montecarlo import noiseless_scan, sample_scan
from spinpath.pipeline import (
    DEFAULT_THRESHOLD_VISIBILITIES,
    reproduce_pipeline,
    run_threshold,
)
from spinpath.states import JointState

TSIRELSON = 2.0 * math.sqrt(2.0)


def test_criterion_1_ideal_correlation_follows_cosine_law(tolerance=1e-12, budget_s=1.0):
    psi = bell_state()
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    start = time.perf_counter()
    worst = 0.0
    for alpha in grid:
        for chi in grid:
            value = expectation(psi, Setting(alpha, chi))
            worst = max(worst, abs(value - math.cos(alpha + chi)))
    elapsed = time.perf_counter() - start
    assert worst <= tolerance
    assert elapsed < budget_s


def test_criterion_2_ideal_chsh_sum_reaches_two_root_two(tolerance=1e-12, budget_s=1.0):
    psi = bell_state()
    alpha1, alpha2, chi1, chi2 = max_violation_settings()
    start = time.perf_counter()
    estimates = [
        ExpectationEstimate(value=expectation(psi, Setting(a, c)), sigma=0.0)
        for a, c in ((alpha1, chi1), (alpha1, chi2), (alpha2, chi1), (alpha2, chi2))
    ]
    result = s_prime(*estimates)
    elapsed = time.perf_counter() - start
    assert abs(result.s_value - TSIRELSON) <= tolerance
    assert result.violated
    assert elapsed < budget_s


def test_criterion_3_contrast_threshold_analytic_and_simulated(tmp_path, budget_s=60.0):
    threshold = visibility_threshold()
    assert abs(threshold - math.sqrt(2.0) / 2.0) <= 1e-9
    assert abs(s_of_visibility(threshold) - 2.0) <= 1e-9

    start = time.perf_counter()
    payload = run_threshold(
        out_dir=tmp_path,
        visibilities=DEFAULT_THRESHOLD_VISIBILITIES,
        counts_per_point=100000.0,
        seed=0,
    )
    elapsed = time.perf_counter() - start

    grid = [row["visibility"] for row in payload["rows"]]
    below = payload["bracket_below"]
    above = payload["bracket_above"]
    assert below in grid and above in grid
    assert grid.index(above) == grid.index(below) + 1
    assert below <= threshold <= above
    assert elapsed < budget_s


def test_criterion_4_hidden_variable_strategies_cap_at_two(budget_s=1.0):
    rng = np.random.default_rng(42)
    canonical = max_violation_settings()
    reference = (0.0, math.pi / 2.0, 0.79 * math.pi, 1.29 * math.pi)
    quadruples = [canonical, reference]
    while len(quadruples) < 102:
        a1, a2, c1, c2 = rng.uniform(0.0, 2.0 * math.pi, size=4)
        if abs(a1 - a2) > 1e-6 and abs(c1 - c2) > 1e-6:
            quadruples.append((a1, a2, c1, c2))

    start = time.perf_counter()
    for quad in quadruples:
        settings = ((quad[0], quad[1]), (quad[2], quad[3]))
        table = enumerate_strategies(settings)[1]
        assert table.shape == (16, 4)
        for negated in range(4):
            assert {abs(strategy_s(row, negated)) for row in table} == {2.0}
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s


def test_criterion_5_shifted_probability_channels_recover_correlation(tolerance=1e-12):
    psi = bell_state()
    rng = np.random.default_rng(2024)
    pi = math.pi
    for _ in range(100):
        alpha, chi = rng.uniform(0.0, 2.0 * pi, size=2)
        n_pp = joint_probability(psi, Setting(alpha, chi), +1, +1)
        n_mm = joint_probability(psi, Setting(alpha + pi, chi + pi), +1, +1)
        n_pm = joint_probability(psi, Setting(alpha, chi + pi), +1, +1)
        n_mp = joint_probability(psi, Setting(alpha + pi, chi), +1, +1)
        assert abs(n_pp + n_mm + n_pm + n_mp - 1.0) <= tolerance
        estimate = e_obs_from_counts(n_pp, n_mm, n_pm, n_mp)
        assert abs(estimate.value - expectation(psi, Setting(alpha, chi))) <= tolerance


def test_criterion_6_reproduction_matches_reference_experiment(tmp_path, budget_s=120.0):
    seeds = range(1, 21)
    start = time.perf_counter()
    passes = 0
    for seed in seeds:
        summary = reproduce_pipeline(RunConfig(seed=seed), out_dir=tmp_path / f"seed_{seed:02d}")
        ref = summary["reference_experiment"]
        assert ref["s_value"] == REFERENCE_S
        assert ref["s_sigma"] == REFERENCE_S_SIGMA
        sp = summary["s_prime"]
        comparison = summary["comparison"]
        ok = (
            1.95 <= sp["value"] <= 2.15
            and 0.01 <= sp["sigma_statistical"] <= 0.04
            and sp["significance"] >= 3.0
            and sp["violated"]
            and summary["verdict"] == "violated"
            and len(comparison) == 4
            and all(row["abs_value_difference"] <= 0.08 for row in comparison)
        )
        passes += ok
    elapsed = time.perf_counter() - start
    assert passes >= 19  # at least 95 percent of the master seeds
    assert elapsed < budget_s


def test_criterion_7_visibility_estimator_is_calibrated(budget_s=60.0):
    true_v = 0.73
    model = ApparatusModel(mean_rate=2500.0, default_visibility=true_v)
    grid = tuple(2.0 * math.pi * k / 32 for k in range(32))
    plan = ScanPlan(alpha=0.0, chi_values=grid, exposures=1)

    # Noiseless counts must round-trip through the fit essentially exactly.
    exact = fit_sinusoid(noiseless_scan(model, plan))
    assert abs(exact.visibility - true_v) <= 1e-9
    assert abs(exact.amplitude - model.mean_rate) <= 1e-9 * model.mean_rate
    for chi in grid:
        want = predicted_rate(model, Setting(plan.alpha, chi))
        assert abs(exact.rate_at(chi) - want) <= 1e-9 * model.mean_rate

    start = time.perf_counter()
    pulls = []
    for seed in range(200):
        fit = fit_sinusoid(sample_scan(model, plan, seed=seed))
        sigma_v = math.sqrt(fit.covariance[1, 1])
        pulls.append((fit.visibility - true_v) / sigma_v)
    elapsed = time.perf_counter() - start
    pulls = np.asarray(pulls)
    assert abs(pulls.mean()) < 0.15
    assert 0.8 <= pulls.var(ddof=1) <= 1.2
    assert elapsed < budget_s


def test_criterion_8_operator_algebra_identities():
    rng = np.random.default_rng(88)
    eye = np.eye(4)
    psi = bell_state()
    for _ in range(200):
        alpha, chi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        for build, angle in ((spin_projector, alpha), (path_projector, chi)):
            plus = build(angle, +1)
            minus = build(angle, -1)
            assert np.max(np.abs(plus @ plus - plus)) <= 1e-14
            assert np.max(np.abs(plus + minus - eye)) <= 1e-14
            assert np.max(np.abs(minus - build(angle + math.pi, +1))) <= 1e-14
        ps = spin_projector(alpha, +1)
        pp = path_projector(chi, +1)
        assert np.max(np.abs(ps @ pp - pp @ ps)) <= 1e-14

        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = JointState(amps / np.linalg.norm(amps))
        total = sum(
            joint_probability(state, Setting(alpha, chi), s, p)
            for s in (+1, -1)
            for p in (+1, -1)
        )
        assert abs(total - 1.0) <= 1e-12

    # Non-factorizability witness: the entangled correlation at (pi/4, pi/4)
    # differs from the product of its one-sided fringes by exactly one half.
    entangled = expectation(psi, Setting(math.pi / 4.0, math.pi / 4.0))
    separable = math.cos(math.pi / 4.0) * math.cos(math.pi / 4.0)
    assert abs(abs(entangled - separable) - 0.5) <= 1e-12


def _run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0, argv
    return buffer.getvalue()


def _byte_tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_9_cli_outputs_are_bit_reproducible(tmp_path):
    config_path = tmp_path / "run.cfg"
    RunConfig(seed=6, chi_points=12, repetitions=3).save(config_path)

    captured = {}
    for label in ("first", "second"):
        ws = tmp_path / label
        sim_out = _run_cli("simulate", "--config", str(config_path), "--out", str(ws / "sim"))
        scan_paths = [str(ws / "sim" / e["path"]) for e in json.loads(sim_out)["scan_files"]]
        fit_out = _run_cli("fit", *scan_paths, "--out", str(ws / "fit"))
        chsh_out = _run_cli(
            "chsh", "--fits", str(ws / "fit" / "fits.json"), "--out", str(ws / "chsh")
        )
        threshold_out = _run_cli(
            "threshold",
            "--visibilities", "0.6,0.7,0.8",
            "--counts", "20000",
            "--seed", "5",
            "--out", str(ws / "threshold"),
        )
        lhv_out = _run_cli("lhv", "--shots", "5000", "--seed", "2", "--out", str(ws / "lhv"))
        reproduce_out = _run_cli(
            "reproduce", "--config", str(config_path), "--out", str(ws / "reproduce")
        )
        captured[label] = {
            "stdout": (sim_out, fit_out, chsh_out, threshold_out, lhv_out, reproduce_out),
            "tree": _byte_tree(ws),
        }

    assert captured["first"]["stdout"] == captured["second"]["stdout"]
    first, second = captured["first"]["tree"], captured["second"]["tree"]
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"artifact differs between runs: {name}"
