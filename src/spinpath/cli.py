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

from .analysis import NEGATED_TERMS, max_violation_settings
from .config import RunConfig, load_config, parse_angle
from .errors import ConfigError, SpinPathError
from .pipeline import (
    DEFAULT_LHV_SHOTS,
    DEFAULT_THRESHOLD_COUNTS,
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


def _sign_convention(token: str | None) -> int | None:
    if token is None or token == "auto":
        return None
    return int(token)


_TERM_CHOICES = tuple(str(index) for index in NEGATED_TERMS)


def _add_common(parser, *, seed_default=None, fmt_default="json"):
    parser.add_argument("--out", metavar="DIR", default=None, help="output directory")
    parser.add_argument(
        "--seed", type=int, default=seed_default, metavar="U64", help="master RNG seed"
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default=fmt_default,
        help=f"stdout rendering (default {fmt_default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinpath",
        description="Simulate, fit, and test a single-particle spin/path Bell experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="sample phase scans and write CSVs + manifest")
    p.add_argument("--config", metavar="PATH", default=None, help="run configuration file")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit", help="fit sinusoids to scan CSVs")
    p.add_argument("scans", nargs="+", metavar="CSV", help="scan CSV files")
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("chsh", help="CHSH sum from a fit report")
    p.add_argument("--fits", metavar="PATH", required=True, help="fit report JSON")
    p.add_argument("--alpha1", type=_angle, default=0.0, metavar="RAD")
    p.add_argument("--alpha2", type=_angle, default=math.pi / 2.0, metavar="RAD")
    p.add_argument("--chi1", type=_angle, default=0.79 * math.pi, metavar="RAD")
    p.add_argument("--chi2", type=_angle, default=1.29 * math.pi, metavar="RAD")
    p.add_argument(
        "--sign-convention",
        choices=(*_TERM_CHOICES, "auto"),
        default="auto",
        help="negated CHSH term (default auto: the most negative term)",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_chsh)

    p = sub.add_parser("threshold", help="contrast sweep of the CHSH value")
    p.add_argument(
        "--visibilities",
        type=_visibility_list,
        default=None,
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
    a1, a2, c1, c2 = max_violation_settings()
    p.add_argument("--alpha1", type=_angle, default=a1, metavar="RAD")
    p.add_argument("--alpha2", type=_angle, default=a2, metavar="RAD")
    p.add_argument("--chi1", type=_angle, default=c1, metavar="RAD")
    p.add_argument("--chi2", type=_angle, default=c2, metavar="RAD")
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
    _add_common(p)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


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
        config = replace(config, sign_convention=_sign_convention(convention))
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


def _print(report: dict, fmt: str, columns, rows) -> None:
    if fmt == "csv":
        sys.stdout.write(render_table(columns, rows))
    else:
        sys.stdout.write(render_json(report))


def _cmd_simulate(args) -> int:
    config = _resolve_config(args)
    report = run_simulate(config, config.out_dir)
    _print(report, args.format, ("path", "alpha_rad", "records"), report["scan_files"])
    return 0


def _cmd_fit(args) -> int:
    report = run_fit(args.scans, args.out if args.out is not None else "out")
    rows = [
        {**entry, "visibility_sigma": math.sqrt(max(entry["covariance_av_phi"][1][1], 0.0))}
        for entry in report["fits"]
    ]
    _print(report, args.format, _FIT_COLUMNS, rows)
    return 0


def _cmd_chsh(args) -> int:
    report = run_chsh(
        load_fit_report(args.fits),
        args.out if args.out is not None else "out",
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        chi1=args.chi1,
        chi2=args.chi2,
        sign_convention=_sign_convention(args.sign_convention),
    )
    _print(report, args.format, ("alpha_rad", "chi_rad", "sign", "value", "sigma"), report["terms"])
    return 0


def _cmd_threshold(args) -> int:
    kwargs = {"counts_per_point": args.counts, "seed": args.seed}
    if args.visibilities is not None:
        kwargs["visibilities"] = args.visibilities
    report = run_threshold(args.out if args.out is not None else "out", **kwargs)
    _print(report, args.format, THRESHOLD_COLUMNS, report["rows"])
    return 0


def _cmd_lhv(args) -> int:
    report = run_lhv(
        args.out if args.out is not None else "out",
        alphas=(args.alpha1, args.alpha2),
        chis=(args.chi1, args.chi2),
        shots=args.shots,
        seed=args.seed,
        sign_convention=_sign_convention(args.sign_convention),
    )
    rows = []
    for row in report["strategies"]:
        values = (row["index"], *row["spin_outcomes"], *row["path_outcomes"], row["s_value"])
        rows.append(dict(zip(_LHV_COLUMNS, values)))
    _print(report, args.format, _LHV_COLUMNS, rows)
    return 0


def _cmd_reproduce(args) -> int:
    config = _resolve_config(args)
    report = reproduce_pipeline(config, config.out_dir)
    _print(report, args.format, _REPRODUCE_COLUMNS, report["comparison"])
    return 0


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(render_json({"error": {"type": kind, "message": message}}, compact=True))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
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
