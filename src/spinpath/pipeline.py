"""End-to-end workflows behind the CLI subcommands.

Each ``run_*`` function takes plain values, writes its artifacts under an
output directory, and returns the report payload it wrote so the CLI can
print exactly what it stored. Nothing here prints or exits; failures surface
as the package's exception types and the CLI decides presentation.

Artifacts per command, relative to the output directory:

    simulate    scan_00.csv .. scan_NN.csv, manifest.json
    fit         fits.json, one <scan>_residuals.csv per input
    chsh        chsh.json
    threshold   threshold.csv, threshold.json
    lhv         lhv.json
    reproduce   scans + manifest.json + fits.json + chsh.json + summary.json

Every artifact is a pure function of (config, seed): no clocks, hostnames,
or absolute paths end up in the bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .analysis import (
    FitResult,
    check_negated_term,
    e_obs_from_fits,
    fit_sinusoid,
    max_violation_settings,
    s_of_visibility,
    s_prime,
    visibility_threshold,
    weighted_average,
)
from .angles import (
    angles_close,
    canonical_angle,
    circular_distance,
    distinct_phase_count,
    find_by_angle,
    uniform_chi_grid,
)
from .apparatus import (
    CONTRAST_LIMITED_S,
    IDEAL_S,
    REFERENCE_EXPECTATIONS,
    REFERENCE_S,
    REFERENCE_S_SIGMA,
    ApparatusModel,
    ScanPlan,
)
from .config import RunConfig
from .errors import DomainError, PreconditionError
from .lhv import (
    LhvEnsemble,
    empirical_s,
    enumerate_strategies,
    sample_ensemble_counts,
    strategy_s,
)
from .montecarlo import (
    DEFAULT_CHI_POINTS,
    ScanResult,
    read_scan_csv,
    sample_scan,
    split_repetitions,
    write_scan_csv,
)
from .report import (
    SCHEMA_VERSION,
    format_count,
    format_real,
    render_csv,
    render_table,
    sha256_of_text,
    write_json,
)
from .states import Setting

DEFAULT_THRESHOLD_VISIBILITIES = tuple(0.50 + 0.05 * k for k in range(11))
DEFAULT_THRESHOLD_COUNTS = 100_000.0
DEFAULT_LHV_SHOTS = 100_000

THRESHOLD_COLUMNS = ("visibility", "s_analytic", "s_simulated", "s_sigma")


def _ensure_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PreconditionError(f"cannot create output directory {out}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# simulate


def _simulate_scans(config: RunConfig, out: Path):
    """Sample one scan per configured alpha, write the CSVs, and return the
    manifest payload together with the in-memory scans."""
    model = config.apparatus_model()
    chi_values = config.chi_grid()
    warnings = []
    distinct = distinct_phase_count(chi_values)
    if distinct < 4:
        warnings.append(
            f"scan grid has only {distinct} distinct phase points; "
            "sinusoid fitting needs at least 4 and will refuse this data"
        )
    entries = []
    scans = []
    for index, alpha in enumerate(config.alphas):
        plan = ScanPlan(alpha=alpha, chi_values=chi_values, exposures=config.repetitions)
        scan = sample_scan(model, plan, config.seed, scan_index=index)
        name = f"scan_{index:02d}.csv"
        write_scan_csv(scan, out / name)
        entries.append(
            {
                "path": name,
                "alpha_rad": plan.alpha,
                "scan_index": index,
                "counts_stream_key": [config.seed, 0, index],
                "chi_points": len(chi_values),
                "repetitions": config.repetitions,
                "records": scan.counts.size,
            }
        )
        scans.append((name, scan))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "seed": config.seed,
        "config_sha256": sha256_of_text(config.canonical_text()),
        "scan_files": entries,
        "warnings": warnings,
    }
    write_json(out / "manifest.json", manifest)
    return manifest, scans


def run_simulate(config: RunConfig, out_dir=None) -> dict:
    out = _ensure_dir(out_dir if out_dir is not None else config.out_dir)
    manifest, _ = _simulate_scans(config, out)
    return manifest


# ---------------------------------------------------------------------------
# fit


def _write_residuals(path: Path, scan: ScanResult, fit: FitResult) -> None:
    chis = scan.plan.chi_values
    fitted = [fit.rate_at(chi) for chi in chis]
    rows = (
        (
            format_real(chi),
            str(rep),
            format_count(n),
            format_real(rate),
            format_real((n - rate) / math.sqrt(max(rate, 1.0))),
        )
        for rep, line in zip(scan.repetitions, scan.counts.tolist())
        for chi, rate, n in zip(chis, fitted, line)
    )
    path.write_text(render_csv("chi_rad,repetition,counts,fitted,pull", rows), encoding="ascii")


def _fit_report(named_scans, out: Path) -> dict:
    fits_payload = []
    residual_files = []
    used = set()
    for name, scan in named_scans:
        fit = fit_sinusoid(scan)
        stem = Path(name).stem
        residual_name = f"{stem}_residuals.csv"
        if residual_name in used:
            residual_name = f"{stem}_{len(used):02d}_residuals.csv"
        used.add(residual_name)
        _write_residuals(out / residual_name, scan, fit)
        residual_files.append(residual_name)
        entry = {"source": Path(name).name, "alpha_rad": scan.plan.alpha}
        entry.update(fit.to_dict())
        fits_payload.append(entry)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "fits": fits_payload,
        "residual_files": residual_files,
    }
    write_json(out / "fits.json", report)
    return report


def run_fit(csv_paths, out_dir) -> dict:
    paths = [Path(p) for p in csv_paths]
    if not paths:
        raise PreconditionError("at least one scan CSV is required")
    out = _ensure_dir(out_dir)
    named_scans = [(path.name, read_scan_csv(path)) for path in paths]
    return _fit_report(named_scans, out)


# ---------------------------------------------------------------------------
# chsh


def load_fit_report(path) -> dict:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise PreconditionError(f"cannot read fit report {path}: {exc}") from None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"fit report {path} is not valid JSON: {exc}") from None
    if not isinstance(report, dict) or "fits" not in report:
        raise PreconditionError(f"fit report {path} lacks a 'fits' section")
    if not isinstance(report["fits"], list):
        raise PreconditionError(f"fit report {path}: 'fits' must be a list")
    return report


def chsh_terms_from_fits(report: dict, alpha1: float, alpha2: float, chi1: float, chi2: float):
    """Four correlation estimates in the order (a1,c1), (a1,c2), (a2,c1),
    (a2,c2), built from the fitted scans at each alpha and its pi-shifted
    partner."""
    fits = []
    for index, entry in enumerate(report["fits"]):
        try:
            fits.append((float(entry["alpha_rad"]), FitResult.from_dict(entry)))
        except KeyError as exc:
            raise PreconditionError(f"fit report entry {index} lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"fit report entry {index} is malformed: {exc}") from None
    pairs = [(alpha, alpha + math.pi) for alpha in (alpha1, alpha2)]
    missing = {canonical_angle(a) for p in pairs for a in p if find_by_angle(fits, a) is None}
    if missing:
        listed = ", ".join(format_real(a) for a in sorted(missing))
        raise DomainError(f"fit report lacks scans at alpha = {listed} rad")
    terms = []
    for alpha, partner in pairs:
        fit_a = find_by_angle(fits, alpha)
        fit_b = find_by_angle(fits, partner)
        for chi in (chi1, chi2):
            terms.append(e_obs_from_fits(fit_a, fit_b, chi, setting=Setting(alpha, chi)))
    return terms


def pick_negated_term(values, sign_convention: int | None) -> int:
    """Resolve the sign convention: an explicit index is used as-is, None
    selects the most negative term, which maximizes the CHSH sum."""
    if sign_convention is not None:
        return check_negated_term(sign_convention)
    return min(range(4), key=lambda i: values[i])


def _chi_positions(chi1: float, chi2: float) -> list[float]:
    return [
        canonical_angle(chi1),
        canonical_angle(chi1 + math.pi),
        canonical_angle(chi2),
        canonical_angle(chi2 + math.pi),
    ]


def chsh_report_from_terms(
    terms,
    alpha1: float,
    alpha2: float,
    chi1: float,
    chi2: float,
    sign_convention: int | None,
) -> dict:
    negated = pick_negated_term([t.value for t in terms], sign_convention)
    result = s_prime(*terms, negated_term=negated)
    if result.sigma == 0.0:
        raise DomainError("the CHSH sum has zero sigma, so its significance is undefined")
    term_rows = []
    for index, term in enumerate(terms):
        term_rows.append(
            {
                "alpha_rad": term.setting.alpha,
                "chi_rad": term.setting.chi,
                "sign": -1 if index == negated else 1,
                "value": term.value,
                "sigma": term.sigma,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "chsh",
        "alpha1_rad": canonical_angle(alpha1),
        "alpha2_rad": canonical_angle(alpha2),
        "chi1_rad": canonical_angle(chi1),
        "chi2_rad": canonical_angle(chi2),
        "chi_positions_rad": _chi_positions(chi1, chi2),
        "sign_convention": "auto" if sign_convention is None else sign_convention,
        "negated_term": negated,
        "terms": term_rows,
        "s_value": result.s_value,
        "sigma": result.sigma,
        "significance": result.significance(),
        "violated": result.violated,
    }


def run_chsh(
    fit_report: dict,
    out_dir,
    *,
    alpha1: float = 0.0,
    alpha2: float = math.pi / 2.0,
    chi1: float = 0.79 * math.pi,
    chi2: float = 1.29 * math.pi,
    sign_convention: int | None = None,
) -> dict:
    out = _ensure_dir(out_dir)
    terms = chsh_terms_from_fits(fit_report, alpha1, alpha2, chi1, chi2)
    report = chsh_report_from_terms(terms, alpha1, alpha2, chi1, chi2, sign_convention)
    write_json(out / "chsh.json", report)
    return report


# ---------------------------------------------------------------------------
# threshold


def run_threshold(
    out_dir,
    *,
    visibilities=DEFAULT_THRESHOLD_VISIBILITIES,
    counts_per_point: float = DEFAULT_THRESHOLD_COUNTS,
    seed: int = 0,
    chi_points: int = DEFAULT_CHI_POINTS,
) -> dict:
    """Sweep the uniform contrast of an otherwise ideal instrument and tabulate
    the analytic CHSH value 2*sqrt(2)*V against a simulated estimate.

    The simulated column runs the full pipeline (sampled scans, sinusoid
    fits, four-channel correlations) at the maximal-violation settings with
    zero fringe offset, so its only handicap is counting noise.
    """
    out = _ensure_dir(out_dir)
    visibilities = tuple(float(v) for v in visibilities)
    if not visibilities:
        raise PreconditionError("visibility sweep must contain at least one value")
    alpha1, alpha2, chi1, chi2 = max_violation_settings()
    scan_alphas = (alpha1, alpha1 + math.pi, alpha2, alpha2 + math.pi)
    chi_grid = uniform_chi_grid(chi_points)
    rows = []
    for v_index, visibility in enumerate(visibilities):
        model = ApparatusModel(
            mean_rate=counts_per_point,
            default_visibility=visibility,
            phase_offset=0.0,
        )
        fits = []
        for j, alpha in enumerate(scan_alphas):
            plan = ScanPlan(alpha=alpha, chi_values=chi_grid, exposures=1)
            scan = sample_scan(model, plan, seed, scan_index=v_index * 4 + j)
            fits.append(fit_sinusoid(scan))
        terms = []
        for fit_a, fit_b in ((fits[0], fits[1]), (fits[2], fits[3])):
            for chi in (chi1, chi2):
                terms.append(e_obs_from_fits(fit_a, fit_b, chi))
        result = s_prime(*terms)
        rows.append(
            {
                "visibility": visibility,
                "s_analytic": s_of_visibility(visibility),
                "s_simulated": result.s_value,
                "s_sigma": result.sigma,
            }
        )
    # The crossing is sought along the visibility axis; the table keeps the
    # sweep order.
    by_visibility = sorted(rows, key=lambda row: row["visibility"])
    bracket_below = None
    bracket_above = None
    for left, right in zip(by_visibility, by_visibility[1:]):
        if left["s_simulated"] < 2.0 <= right["s_simulated"]:
            bracket_below = left["visibility"]
            bracket_above = right["visibility"]
            break
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "threshold",
        "seed": seed,
        "counts_per_point": counts_per_point,
        "chi_points": chi_points,
        "threshold_analytic": visibility_threshold(),
        "bracket_below": bracket_below,
        "bracket_above": bracket_above,
        "rows": rows,
    }
    (out / "threshold.csv").write_text(render_table(THRESHOLD_COLUMNS, rows), encoding="ascii")
    write_json(out / "threshold.json", report)
    return report


# ---------------------------------------------------------------------------
# lhv


def run_lhv(
    out_dir,
    *,
    alphas: tuple[float, float] | None = None,
    chis: tuple[float, float] | None = None,
    shots: int = DEFAULT_LHV_SHOTS,
    seed: int = 0,
    sign_convention: int | None = None,
) -> dict:
    """Enumerate every deterministic noncontextual strategy at the given
    settings, report the classical maximum |S| = 2, and sample two finite-shot
    counting experiments (the uniform mixture and the best single strategy)
    through the same correlation estimator the quantum pipeline uses."""
    out = _ensure_dir(out_dir)
    if alphas is None or chis is None:
        a1, a2, c1, c2 = max_violation_settings()
        alphas = alphas if alphas is not None else (a1, a2)
        chis = chis if chis is not None else (c1, c2)
    settings = (tuple(float(a) for a in alphas), tuple(float(c) for c in chis))
    negated = check_negated_term(sign_convention if sign_convention is not None else 1)
    strategies = enumerate_strategies(settings)
    rows = []
    for index, strategy in enumerate(strategies):
        rows.append(
            {
                "index": index,
                "spin_outcomes": [outcome for _, outcome in strategy.spin_outcomes],
                "path_outcomes": [outcome for _, outcome in strategy.path_outcomes],
                "s_value": strategy_s(strategy, settings, negated),
            }
        )
    best_index = max(range(len(rows)), key=lambda i: abs(rows[i]["s_value"]))
    uniform = LhvEnsemble(
        strategies=tuple(strategies),
        weights=(1.0 / len(strategies),) * len(strategies),
    )
    point = LhvEnsemble(strategies=(strategies[best_index],), weights=(1.0,))
    sampled = {}
    for label, ensemble in (("uniform_ensemble", uniform), ("best_strategy", point)):
        counts = sample_ensemble_counts(ensemble, settings, shots, seed)
        s_value, sigma = empirical_s(counts, negated)
        sampled[label] = {"s_value": s_value, "sigma": sigma}
    sampled["best_strategy"]["index"] = best_index
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "lhv",
        "alphas_rad": [settings[0][0], settings[0][1]],
        "chis_rad": [settings[1][0], settings[1][1]],
        "negated_term": negated,
        "strategies": rows,
        "max_abs_s": abs(rows[best_index]["s_value"]),
        "classical_bound": 2.0,
        "quantum_s": IDEAL_S,
        "shots": shots,
        "seed": seed,
        "sampled": sampled,
    }
    write_json(out / "lhv.json", report)
    return report


# ---------------------------------------------------------------------------
# reproduce


def _scan_at(scans, alpha: float) -> ScanResult:
    scan = find_by_angle(scans, alpha)
    if scan is None:
        raise DomainError(
            f"configured alphas lack a scan at {format_real(canonical_angle(alpha))} rad; "
            "the reproduction needs each analyzer angle and its pi-shifted partner"
        )
    return scan


def _averaged_terms(scan_a: ScanResult, scan_b: ScanResult, alpha: float, chis):
    """Weighted-average correlations at (alpha, chi) over per-repetition fits
    of the scans at alpha and alpha+pi.

    Returns one (estimate, systematic_sigma) pair per chi: the estimate
    carries the purely statistical error of the weighted mean; the systematic
    part is the excess repetition-to-repetition scatter beyond counting
    statistics (0 for a stable instrument).
    """
    reps_a = split_repetitions(scan_a)
    reps_b = split_repetitions(scan_b)
    if len(reps_a) != len(reps_b):
        raise DomainError(
            f"scans at alpha = {format_real(scan_a.plan.alpha)} and {format_real(scan_b.plan.alpha)} rad "
            f"have different repetition counts ({len(reps_a)} vs {len(reps_b)})"
        )
    fit_pairs = [(fit_sinusoid(ra), fit_sinusoid(rb)) for ra, rb in zip(reps_a, reps_b)]
    out = []
    for chi in chis:
        setting = Setting(alpha, chi)
        estimates = [
            e_obs_from_fits(fit_a, fit_b, chi, setting=setting) for fit_a, fit_b in fit_pairs
        ]
        averaged = weighted_average(estimates)
        systematic = 0.0
        if len(estimates) > 1:
            chi2 = sum(((e.value - averaged.value) / e.sigma) ** 2 for e in estimates)
            dof = len(estimates) - 1
            if chi2 > dof:
                systematic = averaged.sigma * math.sqrt(chi2 / dof - 1.0)
        out.append((averaged, systematic))
    return out


def _sign_matched_pairs(sim_group, ref_group):
    """Pair simulated and reference correlations within one analyzer-angle
    group. When each side holds one positive and one negative value, match by
    sign; the negative term can sit at either phase position depending on the
    sign convention, and the magnitudes are what the comparison bounds. With
    equal signs, match by phase proximity."""
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


def _comparison_block(terms):
    comparison = []
    seen_alphas: list[float] = []
    for term in terms:
        alpha = term.setting.alpha
        if any(angles_close(alpha, seen) for seen in seen_alphas):
            continue
        seen_alphas.append(alpha)
        refs = [ref for ref in REFERENCE_EXPECTATIONS if angles_close(ref.alpha, alpha)]
        if not refs:
            continue
        group = [t for t in terms if angles_close(t.setting.alpha, alpha)]
        for sim, ref in _sign_matched_pairs(group, refs):
            comparison.append(
                {
                    "alpha_rad": sim.setting.alpha,
                    "simulated_chi_rad": sim.setting.chi,
                    "simulated_value": sim.value,
                    "simulated_sigma": sim.sigma,
                    "reference_chi_rad": canonical_angle(ref.chi),
                    "reference_value": ref.value,
                    "reference_sigma": ref.sigma,
                    "abs_value_difference": abs(abs(sim.value) - abs(ref.value)),
                }
            )
    return comparison


def reproduce_pipeline(config: RunConfig, out_dir=None) -> dict:
    """Full closed loop: simulate the reference instrument, fit every scan,
    average correlations over repetitions, form the CHSH sum, and juxtapose
    the result with the reference experiment's published numbers."""
    out = _ensure_dir(out_dir if out_dir is not None else config.out_dir)
    manifest, named_scans = _simulate_scans(config, out)
    _fit_report(named_scans, out)

    scans = [(scan.plan.alpha, scan) for _, scan in named_scans]
    term_entries = []
    terms = []
    systematics = []
    for alpha in (config.alpha1, config.alpha2):
        scan_a = _scan_at(scans, alpha)
        scan_b = _scan_at(scans, alpha + math.pi)
        averaged = _averaged_terms(scan_a, scan_b, alpha, (config.chi1, config.chi2))
        for estimate, systematic in averaged:
            terms.append(estimate)
            systematics.append(systematic)
            term_entries.append(
                {
                    "alpha_rad": estimate.setting.alpha,
                    "chi_rad": estimate.setting.chi,
                    "value": estimate.value,
                    "sigma_statistical": estimate.sigma,
                    "sigma_systematic": systematic,
                    "repetitions": config.repetitions,
                }
            )

    chsh_report = chsh_report_from_terms(
        terms, config.alpha1, config.alpha2, config.chi1, config.chi2, config.sign_convention
    )
    write_json(out / "chsh.json", chsh_report)

    sigma_statistical = chsh_report["sigma"]
    sigma_systematic = math.sqrt(sum(s**2 for s in systematics))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "reproduce",
        "seed": config.seed,
        "config_sha256": manifest["config_sha256"],
        "settings": {
            "alpha1_rad": canonical_angle(config.alpha1),
            "alpha2_rad": canonical_angle(config.alpha2),
            "chi1_rad": canonical_angle(config.chi1),
            "chi2_rad": canonical_angle(config.chi2),
            "chi_positions_rad": _chi_positions(config.chi1, config.chi2),
            "mean_rate": config.mean_rate,
            "chi_points": config.chi_points,
            "repetitions": config.repetitions,
        },
        "terms": term_entries,
        "s_prime": {
            "value": chsh_report["s_value"],
            "sigma_statistical": sigma_statistical,
            "sigma_systematic": sigma_systematic,
            "sigma_total": math.sqrt(sigma_statistical**2 + sigma_systematic**2),
            "negated_term": chsh_report["negated_term"],
            "significance": chsh_report["significance"],
            "violated": chsh_report["violated"],
        },
        "verdict": "violated" if chsh_report["violated"] else "no violation",
        "reference_experiment": {
            "e_obs": [
                {
                    "alpha_rad": canonical_angle(ref.alpha),
                    "chi_rad": canonical_angle(ref.chi),
                    "value": ref.value,
                    "sigma": ref.sigma,
                }
                for ref in REFERENCE_EXPECTATIONS
            ],
            "s_value": REFERENCE_S,
            "s_sigma": REFERENCE_S_SIGMA,
            "contrast_limited_s": CONTRAST_LIMITED_S,
            "ideal_s": IDEAL_S,
        },
        "comparison": _comparison_block(terms),
        "files": {
            "manifest": "manifest.json",
            "fit_report": "fits.json",
            "chsh_report": "chsh.json",
        },
    }
    write_json(out / "summary.json", summary)
    return summary
