"""Flat ``key = value`` run configuration with exact pi-fraction literals.

Angle values accept ``pi`` multiples so that grid positions like ``0.79pi``
parse to exactly ``0.79 * math.pi`` with no decimal drift: ``pi``, ``-pi``,
``0.79pi``, ``pi/2``, ``-pi/4``, ``3pi/2`` are all valid, as are plain
numbers (radians). The writer emits plain numbers at 17 significant digits,
because re-deriving a pi coefficient from a float can shift the value by one
ulp and the round trip parse(write(config)) == config must be exact.

Lines are ``key = value``, one per key; blank lines and ``#`` comments are
ignored. Per-angle contrasts use bracketed keys: ``visibility[pi/2] = 0.73``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .analysis import check_negated_term
from .angles import check_scan_cells, uniform_chi_grid
from .apparatus import (
    DEFAULT_MEAN_RATE,
    REFERENCE_CONTRASTS,
    REFERENCE_PHASE_OFFSET,
    REFERENCE_SETTINGS,
    ApparatusModel,
)
from .errors import ConfigError, DomainError, check_int, check_real, check_reals
from .montecarlo import DEFAULT_ALPHAS, DEFAULT_CHI_POINTS, DEFAULT_REPETITIONS, check_seed
from .report import format_real, read_input, write_ascii

_PI_LITERAL = re.compile(
    r"""^(?P<sign>[+-]?)
        (?P<coef>\d+(?:\.\d*)?|\.\d+)?
        pi
        (?:/(?P<div>\d+(?:\.\d*)?))?$""",
    re.VERBOSE,
)


def parse_angle(token: str) -> float:
    """Parse a radian value, accepting exact pi-fraction literals."""
    if not isinstance(token, str):
        raise ConfigError(f"angle must be a str, got {type(token).__name__}")
    token = token.strip().lower().replace(" ", "")
    m = _PI_LITERAL.match(token)
    if m:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        if m.group("sign") == "-":
            coef = -coef
        value = coef * math.pi
        if m.group("div"):
            div = float(m.group("div"))
            if div == 0.0:
                raise ConfigError(f"division by zero in angle literal {token!r}")
            value /= div
        return value
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"cannot parse angle {token!r}") from None


def parse_sign_convention(token: str) -> int | None:
    """A sign convention as config files and the command line spell it:
    ``auto`` (None) or a negated CHSH term index 0..3. Any other token
    raises ``ValueError``."""
    return None if token.strip().lower() == "auto" else check_negated_term(int(token))


# Every key of a config file but out_dir and visibility[...], in canonical
# order, with its parser and its writer. The visibility[...] lines go after
# default_visibility.
_KEYS = {
    "seed": (lambda token: check_seed(int(token)), str),
    "mean_rate": (float, format_real),
    "default_visibility": (float, format_real),
    "phase_offset": (parse_angle, format_real),
    "drift_sigma": (parse_angle, format_real),
    "alphas": (
        lambda token: tuple(parse_angle(part) for part in token.split(",") if part.strip()),
        lambda alphas: ", ".join(map(format_real, alphas)),
    ),
    "chi_points": (int, str),
    "repetitions": (int, str),
    "alpha1": (parse_angle, format_real),
    "alpha2": (parse_angle, format_real),
    "chi1": (parse_angle, format_real),
    "chi2": (parse_angle, format_real),
    "sign_convention": (parse_sign_convention, lambda term: "auto" if term is None else str(term)),
}

# A comment start and the ASCII characters str.splitlines breaks at.
_UNSAVEABLE = "#\n\r\v\f\x1c\x1d\x1e"


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs: apparatus, scan shape, seed, output.

    ``sign_convention`` is the negated CHSH term index 0..3, or None for the
    maximum-violation choice (negate the most negative term). ``seed`` has no
    default on purpose: every stochastic run states its seed explicitly.
    """

    seed: int
    mean_rate: float = DEFAULT_MEAN_RATE
    default_visibility: float = 0.73
    visibilities: tuple[tuple[float, float], ...] = REFERENCE_CONTRASTS
    phase_offset: float = REFERENCE_PHASE_OFFSET
    drift_sigma: float = 0.0
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    chi_points: int = DEFAULT_CHI_POINTS
    repetitions: int = DEFAULT_REPETITIONS
    alpha1: float = REFERENCE_SETTINGS[0]
    alpha2: float = REFERENCE_SETTINGS[1]
    chi1: float = REFERENCE_SETTINGS[2]
    chi2: float = REFERENCE_SETTINGS[3]
    out_dir: str = "out"
    sign_convention: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        try:
            for name in ("chi_points", "repetitions"):
                object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
            check_scan_cells(self.chi_points, self.repetitions, "chi_points x repetitions")
            for name in ("alpha1", "alpha2", "chi1", "chi2"):
                object.__setattr__(self, name, check_real(getattr(self, name), name))
            object.__setattr__(self, "alphas", check_reals(self.alphas, "alphas"))
            if not isinstance(self.out_dir, (str, os.PathLike)):
                raise DomainError(f"out_dir must be a path, got {type(self.out_dir).__name__}")
            if self.sign_convention is not None:
                term = check_negated_term(self.sign_convention)
                object.__setattr__(self, "sign_convention", term)
            # Apparatus validation happens eagerly so bad values fail at load time.
            self.apparatus_model()
        except DomainError as exc:
            raise ConfigError(str(exc)) from None

    def apparatus_model(self) -> ApparatusModel:
        return ApparatusModel(
            mean_rate=self.mean_rate,
            visibility_map=self.visibilities,
            default_visibility=self.default_visibility,
            phase_offset=self.phase_offset,
            drift_sigma=self.drift_sigma,
        )

    def chi_grid(self) -> tuple[float, ...]:
        return uniform_chi_grid(self.chi_points)

    def canonical_text(self) -> str:
        """The configuration's identity: every field that influences results,
        in a fixed order. Excludes ``out_dir``, so the same run written to two
        directories hashes identically in the manifests."""
        lines = []
        for key, (_, write) in _KEYS.items():
            lines.append(f"{key} = {write(getattr(self, key))}")
            if key == "default_visibility":
                for alpha, v in self.visibilities:
                    lines.append(f"visibility[{format_real(alpha)}] = {format_real(v)}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """What :meth:`save` writes. Raises :class:`ConfigError` for an
        ``out_dir`` that would not read back as itself: one with a non-ASCII
        character, ``#``, a line break, or whitespace at either end."""
        out_dir = str(self.out_dir)
        bad = [c for c in out_dir if not c.isascii() or c in _UNSAVEABLE]
        bad += [c for c in out_dir[:1] + out_dir[-1:] if c.isspace()]
        if bad:
            raise ConfigError(f"out_dir {ascii(out_dir)} would not read back: {ascii(bad[0])}")
        return self.canonical_text() + f"out_dir = {out_dir}\n"

    def save(self, path) -> None:
        write_ascii(path, self.to_text())


def config_from_text(text: str, *, require_seed: bool = True) -> RunConfig:
    if not isinstance(text, str):
        raise ConfigError(f"config text must be a str, got {type(text).__name__}")
    values: dict = {}
    visibilities: list[tuple[float, float]] = []
    set_on: dict[str, int] = {}  # key -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            if key.startswith("visibility[") and key.endswith("]"):
                angle = parse_angle(key[len("visibility[") : -1])
                visibilities.append((angle, float(value)))
            elif key == "out_dir":
                values[key] = value
            elif key in _KEYS:
                values[key] = _KEYS[key][0](value)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if visibilities:
        values["visibilities"] = tuple(visibilities)
    if "seed" not in values:
        if require_seed:
            raise ConfigError("config must set a seed (no silent nondeterminism)")
        values["seed"] = 0
    return RunConfig(**values)


def load_config(path, *, require_seed: bool = True) -> RunConfig:
    return config_from_text(read_input(path, "config", ConfigError), require_seed=require_seed)
