"""Command-line front end.

Subcommands: simulate, fit, chsh, threshold, lhv, reproduce. Each one writes
its artifacts under the output directory and prints the main report to
stdout, as JSON by default or as a flat CSV table with ``--format csv``
(threshold defaults to CSV since the sweep is a table to begin with).

Every failure, including bad usage, prints a one-line machine-readable error
object to stderr::

    {"error": {"type": "...", "message": "..."}}

and exits nonzero: 2 for usage errors, 1 for everything else.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import cache
from json.encoder import encode_basestring_ascii

from .analysis import max_violation_settings
from .apparatus import REFERENCE_SETTINGS
from .config import RunConfig, load_config, parse_angle, parse_sign_convention
from .errors import ConfigError, SpinPathError
from .pipeline import (
    DEFAULT_LHV_SHOTS,
    DEFAULT_THRESHOLD_COUNTS,
    DEFAULT_THRESHOLD_VISIBILITIES,
    THRESHOLD_COLUMNS,
    load_fit_report,
    reproduce_pipeline,
    run_chsh,
    run_fit,
    run_lhv,
    run_simulate,
    run_threshold,
)
from .report import render_json, render_table


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _angle(token: str) -> float:
    try:
        return parse_angle(token)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _visibility_list(token: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in token.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse visibility list {token!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("visibility list is empty")
    return values


_TERM_CHOICES = ("0", "1", "2", "3")  # the CHSH term indices check_negated_term takes


def _add_common(parser, *, seeded=True, seed_default=None, fmt_default="json", out_default="out"):
    # An out_default of None stands for the config's out_dir.
    parser.add_argument("--out", metavar="DIR", default=out_default, help="output directory")
    if seeded:
        parser.add_argument(
            "--seed", type=int, default=seed_default, metavar="U64", help="master RNG seed"
        )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default=fmt_default,
        help=f"stdout rendering (default {fmt_default})",
    )


def _add_settings(parser, defaults):
    for flag, default in zip(("--alpha1", "--alpha2", "--chi1", "--chi2"), defaults):
        parser.add_argument(flag, type=_angle, default=default, metavar="RAD")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinpath",
        description="Simulate, fit, and test a single-particle spin/path Bell experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="sample phase scans and write CSVs + manifest")
    p.add_argument("--config", metavar="PATH", default=None, help="run configuration file")
    _add_common(p, out_default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit", help="fit sinusoids to scan CSVs")
    p.add_argument("scans", nargs="+", metavar="CSV", help="scan CSV files")
    _add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("chsh", help="CHSH sum from a fit report")
    p.add_argument("--fits", metavar="PATH", required=True, help="fit report JSON")
    _add_settings(p, REFERENCE_SETTINGS)
    p.add_argument(
        "--sign-convention",
        choices=(*_TERM_CHOICES, "auto"),
        default="auto",
        help="negated CHSH term (default auto: the most negative term)",
    )
    _add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_chsh)

    p = sub.add_parser("threshold", help="contrast sweep of the CHSH value")
    p.add_argument(
        "--visibilities",
        type=_visibility_list,
        default=DEFAULT_THRESHOLD_VISIBILITIES,
        metavar="V,V,...",
        help="sweep values (default 0.50..1.00 step 0.05)",
    )
    p.add_argument(
        "--counts",
        type=float,
        default=DEFAULT_THRESHOLD_COUNTS,
        metavar="N",
        help="mean counts per scan point",
    )
    _add_common(p, seed_default=0, fmt_default="csv")
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("lhv", help="noncontextual hidden-variable oracle")
    _add_settings(p, max_violation_settings())
    p.add_argument("--shots", type=int, default=DEFAULT_LHV_SHOTS, metavar="N")
    p.add_argument(
        "--sign-convention",
        choices=_TERM_CHOICES,
        default="1",
        help="negated CHSH term (default 1)",
    )
    _add_common(p, seed_default=0)
    p.set_defaults(handler=_cmd_lhv)

    p = sub.add_parser("reproduce", help="full closed-loop run against the reference numbers")
    p.add_argument("--config", metavar="PATH", default=None, help="run configuration file")
    p.add_argument(
        "--sign-convention",
        choices=(*_TERM_CHOICES, "auto"),
        default=None,
        help="negated CHSH term (default from config; auto = most negative)",
    )
    _add_common(p, out_default=None)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser as it was, so one serves every main() call.
    return build_parser()


def _resolve_config(args) -> RunConfig:
    if args.config is not None:
        config = load_config(args.config, require_seed=args.seed is None)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    else:
        config = RunConfig(seed=args.seed if args.seed is not None else 0)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    convention = getattr(args, "sign_convention", None)
    if convention is not None:
        config = replace(config, sign_convention=parse_sign_convention(convention))
    return config


_FIT_COLUMNS = (
    "source", "alpha_rad", "amplitude", "visibility", "visibility_sigma",
    "phase_rad", "chi_square", "dof",
)
_LHV_COLUMNS = ("index", "spin_a1", "spin_a2", "path_c1", "path_c2", "s_value")
_REPRODUCE_COLUMNS = (
    "alpha_rad", "simulated_chi_rad", "simulated_value", "simulated_sigma",
    "reference_chi_rad", "reference_value", "reference_sigma", "abs_value_difference",
)


def _cmd_simulate(args) -> tuple:
    config = _resolve_config(args)
    report = run_simulate(config, config.out_dir)
    return report, ("path", "alpha_rad", "records"), report["scan_files"]


def _cmd_fit(args) -> tuple:
    report = run_fit(args.scans, args.out)
    rows = [
        {**entry, "visibility_sigma": math.sqrt(max(entry["covariance_av_phi"][1][1], 0.0))}
        for entry in report["fits"]
    ]
    return report, _FIT_COLUMNS, rows


def _cmd_chsh(args) -> tuple:
    report = run_chsh(
        load_fit_report(args.fits),
        args.out,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        chi1=args.chi1,
        chi2=args.chi2,
        sign_convention=parse_sign_convention(args.sign_convention),
    )
    return report, ("alpha_rad", "chi_rad", "sign", "value", "sigma"), report["terms"]


def _cmd_threshold(args) -> tuple:
    report = run_threshold(
        args.out, visibilities=args.visibilities, counts_per_point=args.counts, seed=args.seed
    )
    return report, THRESHOLD_COLUMNS, report["rows"]


def _cmd_lhv(args) -> tuple:
    report = run_lhv(
        args.out,
        alphas=(args.alpha1, args.alpha2),
        chis=(args.chi1, args.chi2),
        shots=args.shots,
        seed=args.seed,
        sign_convention=parse_sign_convention(args.sign_convention),
    )
    rows = []
    for row in report["strategies"]:
        values = (row["index"], *row["spin_outcomes"], *row["path_outcomes"], row["s_value"])
        rows.append(dict(zip(_LHV_COLUMNS, values)))
    return report, _LHV_COLUMNS, rows


def _cmd_reproduce(args) -> tuple:
    config = _resolve_config(args)
    report = reproduce_pipeline(config, config.out_dir)
    return report, _REPRODUCE_COLUMNS, report["comparison"]


def _emit_error(kind: str, message: str) -> None:
    kind, message = encode_basestring_ascii(kind), encode_basestring_ascii(message)
    sys.stderr.write(f'{{"error": {{"type": {kind}, "message": {message}}}}}\n')


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        report, columns, rows = args.handler(args)
        sys.stdout.write(render_table(columns, rows) if args.format == "csv" else render_json(report))
        return 0
    except UsageError as exc:
        _emit_error("UsageError", str(exc))
        return 2
    except SpinPathError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        detail = exc.strerror or str(exc)
        if exc.filename:
            detail = f"{detail}: {exc.filename}"
        _emit_error("IoError", detail)
        return 1


if __name__ == "__main__":
    sys.exit(main())
