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
from itertools import repeat
from pathlib import Path

import numpy as np

from .analysis import (
    FitResult,
    check_negated_term,
    e_obs_from_fits,
    fit_rate_curves,
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
    REFERENCE_SETTINGS,
    ApparatusModel,
    ScanPlan,
)
from .config import RunConfig
from .errors import DomainError, PreconditionError, check_real
from .lhv import empirical_s, enumerate_strategies, sample_ensemble_counts, strategy_s
from .montecarlo import (
    DEFAULT_CHI_POINTS,
    POISSON_MAX_MEAN,
    _STREAM_COUNTS,
    ScanResult,
    read_scan_csv,
    sample_full_experiment,
    sample_scan,
    split_repetitions,
    write_scan_csv,
)
from .report import (
    LHV_SCHEMA_VERSION,
    SCHEMA_VERSION,
    format_counts,
    format_real,
    non_ascii_byte,
    read_ascii,
    render_table,
    sha256_of_text,
    write_ascii,
    write_csv,
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
        # mkdir(exist_ok=True) raises and catches FileExistsError on an
        # existing directory, several times the cost of one stat.
        if not out.is_dir():
            out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
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
    sampled = sample_full_experiment(
        model, config.alphas, chi_values, config.repetitions, config.seed
    )
    entries = []
    scans = []
    for index, scan in enumerate(sampled):
        name = f"scan_{index:02d}.csv"
        write_scan_csv(scan, out / name)
        entries.append(
            {
                "path": name,
                "alpha_rad": scan.plan.alpha,
                "scan_index": index,
                "counts_stream_key": [config.seed, _STREAM_COUNTS, index],
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
    rates = np.array([fit.rate_at(chi) for chi in chis])
    pulls = (scan.counts - rates) / np.sqrt(np.maximum(rates, 1.0))
    # A pull depends only on its chi column and its count, so repetitions
    # repeat pulls: each distinct bit pattern (-0.0 is not 0.0) is formatted once.
    distinct, index = np.unique(pulls.view(np.int64), return_inverse=True)
    pull_fields = list(map(format, distinct.view(np.float64).tolist(), repeat(".17g")))
    chi_fields = [format_real(chi) for chi in chis]
    rate_fields = [format_real(rate) for rate in rates.tolist()]
    blocks = (
        (
            chi_fields,
            repeat(str(rep)),
            format_counts(line),
            rate_fields,
            map(pull_fields.__getitem__, index_row.tolist()),
        )
        for rep, line, index_row in zip(scan.repetitions, scan.counts, index.reshape(pulls.shape))
    )
    write_csv(path, "chi_rad,repetition,counts,fitted,pull", blocks)


def _fit_report(named_scans, out: Path) -> dict:
    fits_payload = []
    residual_files = []
    used = set()
    for name, scan in named_scans:
        fit = fit_sinusoid(scan)
        stem = Path(name).stem
        residual_name = f"{stem}_residuals.csv"
        suffix = len(used)
        while residual_name in used:
            residual_name = f"{stem}_{suffix:02d}_residuals.csv"
            suffix += 1
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
        text = read_ascii(path)
    except OSError as exc:
        raise PreconditionError(f"cannot read fit report {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        line, what = non_ascii_byte(exc)
        raise PreconditionError(f"fit report {path}: line {line}: {what}") from None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"fit report {path} is not valid JSON: {exc}") from None
    _check_fit_report(report, f"fit report {path}")
    return report


def _check_fit_report(report, name: str) -> None:
    if not isinstance(report, dict) or "fits" not in report:
        raise PreconditionError(f"{name} lacks a 'fits' section")
    if not isinstance(report["fits"], list):
        raise PreconditionError(f"{name}: 'fits' must be a list")


def _chsh_terms(fit_pairs, chis, settings):
    """The four correlation estimates of one CHSH sum, in the order (a1,c1),
    (a1,c2), (a2,c1), (a2,c2). ``fit_pairs`` holds, for each of the two
    alphas, the fits of the scans at alpha and at its pi-shifted partner;
    ``settings`` the four Settings in that order, which a caller that
    evaluates one quadruple many times builds once."""
    settings = iter(settings)
    return [
        e_obs_from_fits(fit_a, fit_b, chi, setting=next(settings))
        for fit_a, fit_b in fit_pairs
        for chi in chis
    ]


def chsh_terms_from_fits(report: dict, alpha1: float, alpha2: float, chi1: float, chi2: float):
    """Four correlation estimates in the order (a1,c1), (a1,c2), (a2,c1),
    (a2,c2), built from the fitted scans at each alpha and its pi-shifted
    partner."""
    _check_fit_report(report, "fit report")
    fits = []
    for index, entry in enumerate(report["fits"]):
        try:
            alpha = check_real(entry["alpha_rad"], "alpha_rad")
            fits.append((alpha, FitResult.from_dict(entry)))
        except KeyError as exc:
            raise PreconditionError(f"fit report entry {index} lacks {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise PreconditionError(f"fit report entry {index} is malformed: {exc}") from None
    angles = [a for alpha in (alpha1, alpha2) for a in (alpha, alpha + math.pi)]
    found = [find_by_angle(fits, a) for a in angles]
    missing = {canonical_angle(a) for a, fit in zip(angles, found) if fit is None}
    if missing:
        listed = ", ".join(format_real(a) for a in sorted(missing))
        raise DomainError(f"fit report lacks scans at alpha = {listed} rad")
    chis = (chi1, chi2)
    settings = [Setting(alpha, chi) for alpha in (alpha1, alpha2) for chi in chis]
    with np.errstate(all="ignore"):  # overflow ends in a DomainError, not a warning
        return _chsh_terms((found[:2], found[2:]), chis, settings)


def pick_negated_term(values, sign_convention: int | None) -> int:
    """Resolve the sign convention: an explicit index is used as-is, None
    selects the most negative term, which maximizes the CHSH sum."""
    if sign_convention is not None:
        return check_negated_term(sign_convention)
    return min(range(4), key=lambda i: values[i])


def _settings_block(alpha1: float, alpha2: float, chi1: float, chi2: float) -> dict:
    """Canonical analyzer angles, as the chsh and reproduce reports state them."""
    return {
        "alpha1_rad": canonical_angle(alpha1),
        "alpha2_rad": canonical_angle(alpha2),
        "chi1_rad": canonical_angle(chi1),
        "chi2_rad": canonical_angle(chi2),
        "chi_positions_rad": [canonical_angle(x) for c in (chi1, chi2) for x in (c, c + math.pi)],
    }


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
        **_settings_block(alpha1, alpha2, chi1, chi2),
        "sign_convention": "auto" if sign_convention is None else negated,
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
    alpha1: float = REFERENCE_SETTINGS[0],
    alpha2: float = REFERENCE_SETTINGS[1],
    chi1: float = REFERENCE_SETTINGS[2],
    chi2: float = REFERENCE_SETTINGS[3],
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
    visibilities = tuple(check_real(v, "visibility") for v in visibilities)
    if not visibilities:
        raise PreconditionError("visibility sweep must contain at least one value")
    alpha1, alpha2, chi1, chi2 = max_violation_settings()
    chi_grid = uniform_chi_grid(chi_points)
    alphas = (alpha1, alpha1 + math.pi, alpha2, alpha2 + math.pi)
    plans = [ScanPlan(alpha=alpha, chi_values=chi_grid) for alpha in alphas]
    chis = (chi1, chi2)
    settings = [Setting(alpha, chi) for alpha in (alpha1, alpha2) for chi in chis]
    rows = []
    for visibility in visibilities:
        model = ApparatusModel(counts_per_point, default_visibility=visibility, phase_offset=0.0)
        if counts_per_point * (1.0 + visibility) > POISSON_MAX_MEAN:  # the fringe peak's mean
            raise DomainError(
                f"counts_per_point * (1 + visibility) must not exceed {POISSON_MAX_MEAN:g}, "
                f"the sampler's largest mean; got {counts_per_point!r} at visibility {visibility!r}"
            )
        # Scan j is keyed by j and the float64 bits of the visibility (below
        # 2**62 on [0, 1]; + 0.0 folds -0.0 into 0.0), not by sweep position.
        bits = int(np.float64(visibility + 0.0).view(np.uint64))
        scans = [sample_scan(model, plan, seed, j << 62 | bits) for j, plan in enumerate(plans)]
        fits = list(map(fit_sinusoid, scans))
        result = s_prime(*_chsh_terms((fits[:2], fits[2:]), chis, settings))
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
    write_ascii(out / "threshold.csv", render_table(THRESHOLD_COLUMNS, rows))
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
    negated = check_negated_term(sign_convention if sign_convention is not None else 1)
    settings, table = enumerate_strategies((alphas, chis))
    rows = []
    for index, outcomes in enumerate(table.tolist()):
        rows.append(
            {
                "index": index,
                "spin_outcomes": outcomes[:2],
                "path_outcomes": outcomes[2:],
                "s_value": strategy_s(outcomes, negated),
            }
        )
    best_index = max(range(len(rows)), key=lambda i: abs(rows[i]["s_value"]))
    uniform = np.full(len(rows), 1.0 / len(rows))
    point = np.zeros(len(rows))
    point[best_index] = 1.0
    sampled = {}
    for label, weights in (("uniform_ensemble", uniform), ("best_strategy", point)):
        counts = sample_ensemble_counts(weights, shots, seed)
        s_value, sigma = empirical_s(counts, negated)
        sampled[label] = {"s_value": s_value, "sigma": sigma}
    sampled["best_strategy"]["index"] = best_index
    report = {
        "schema_version": LHV_SCHEMA_VERSION,
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
    the result with the reference experiment's published numbers.

    The chsh reduction runs on the fits of each repetition of the four scans.
    Each term is then the weighted mean over repetitions, and its
    ``sigma_systematic`` the excess scatter: sigma * sqrt(chi2/dof - 1) when
    chi2 > dof = repetitions - 1, else 0.
    """
    out = _ensure_dir(out_dir if out_dir is not None else config.out_dir)
    manifest, named_scans = _simulate_scans(config, out)
    _fit_report(named_scans, out)

    scans = [(scan.plan.alpha, scan) for _, scan in named_scans]
    alphas = (config.alpha1, config.alpha2)
    quartet = [_scan_at(scans, a) for alpha in alphas for a in (alpha, alpha + math.pi)]
    # One stacked fit of every repetition of the four scans, which share one
    # chi grid and one repetition count: the four of repetition 0 first.
    by_repetition = zip(*(split_repetitions(scan) for scan in quartet))
    counts = np.concatenate([rep.counts for group in by_repetition for rep in group])
    fits = fit_rate_curves(quartet[0].plan.chi_values, counts)
    chis = (config.chi1, config.chi2)
    settings = [Setting(alpha, chi) for alpha in alphas for chi in chis]
    per_repetition = [
        _chsh_terms((fits[k : k + 2], fits[k + 2 : k + 4]), chis, settings)
        for k in range(0, len(fits), 4)
    ]
    terms = []
    term_entries = []
    for estimates in zip(*per_repetition):
        averaged = weighted_average(estimates)
        systematic = 0.0
        if len(estimates) > 1:
            chi2 = sum(((e.value - averaged.value) / e.sigma) ** 2 for e in estimates)
            dof = len(estimates) - 1
            if chi2 > dof:
                systematic = averaged.sigma * math.sqrt(chi2 / dof - 1.0)
        terms.append(averaged)
        term_entries.append(
            {
                "alpha_rad": averaged.setting.alpha,
                "chi_rad": averaged.setting.chi,
                "value": averaged.value,
                "sigma_statistical": averaged.sigma,
                "sigma_systematic": systematic,
                "repetitions": config.repetitions,
            }
        )

    chsh_report = chsh_report_from_terms(
        terms, config.alpha1, config.alpha2, config.chi1, config.chi2, config.sign_convention
    )
    write_json(out / "chsh.json", chsh_report)

    sigma_statistical = chsh_report["sigma"]
    sigma_systematic = math.sqrt(sum(entry["sigma_systematic"] ** 2 for entry in term_entries))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "reproduce",
        "seed": config.seed,
        "config_sha256": manifest["config_sha256"],
        "settings": {
            **_settings_block(config.alpha1, config.alpha2, config.chi1, config.chi2),
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
