"""Brute-force oracle for noncontextual outcome-assignment models.

A strategy predetermines one +/-1 outcome per analyzer setting, independent
of what is measured alongside. With two spin angles and two path phases
there are exactly 2^4 = 16 strategies; enumerating them (and convex mixtures
over them) certifies the classical bound |S| <= 2 that the entangled-state
pipeline exceeds. The strategies are the rows of :data:`OUTCOME_TABLE`, and
outcomes are read by position. Outcomes are keyed by the exact setting
values supplied; the two settings of a pair must be distinct angles on the
circle (more than 1e-9 apart), so that no analyzer position gets two keys. A
strategy or ensemble is scored and sampled only at the settings it is keyed
to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .analysis import chsh_sum, e_obs_from_counts, s_prime, term_signs
from .angles import angles_close
from .errors import DomainError, PreconditionError, check_int, check_real
from .montecarlo import _rekeyed_streams, check_seed, substream

SettingsPair = tuple[tuple[float, float], tuple[float, float]]

_STREAM_LHV = 3  # stream kind, disjoint from the montecarlo count/drift kinds

_OUTCOMES = (1, -1)

# Row r holds strategy r's outcomes (s(alpha1), s(alpha2), p(chi1), p(chi2)),
# in itertools.product order: spin outcomes vary slowest.
_ROWS = tuple(itertools.product(_OUTCOMES, repeat=4))
OUTCOME_TABLE = np.array(_ROWS, dtype=np.int64)
OUTCOME_TABLE.setflags(write=False)

# Setting pairs (j, k) for (alpha_j, chi_k), and the four outcome channels
# (spin, path) of a count table, in the order both are reported. The pairs
# are also the CHSH term order; their spin and path outcomes are these
# columns of an outcome table.
_PAIRS = tuple(itertools.product(range(2), range(2)))
_CHANNELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_SPIN_COLUMNS = [j for j, _ in _PAIRS]
_PATH_COLUMNS = [2 + k for _, k in _PAIRS]


def _check_settings(settings: SettingsPair) -> SettingsPair:
    (a1, a2), (c1, c2) = settings
    a1, a2, c1, c2 = (check_real(value, "each setting") for value in (a1, a2, c1, c2))
    if angles_close(a1, a2):
        raise DomainError(f"the two spin settings must be distinct angles, got {a1!r} and {a2!r}")
    if angles_close(c1, c2):
        raise DomainError(f"the two path settings must be distinct angles, got {c1!r} and {c2!r}")
    return ((a1, a2), (c1, c2))


def _check_keyed_to(keyed, kind: type, settings: SettingsPair) -> None:
    """``keyed`` is a ``kind`` (strategy or ensemble) that holds outcomes for
    exactly these settings, compared as floats like :func:`_check_settings`
    reads them."""
    if not isinstance(keyed, kind):
        raise DomainError(f"expected an {kind.__name__}, got {keyed!r}")
    (a1, a2), (c1, c2) = settings
    if keyed.settings != ((float(a1), float(a2)), (float(c1), float(c2))):
        raise DomainError(f"outcomes are keyed to settings {keyed.settings!r}, got {settings!r}")


@dataclass(frozen=True)
class LhvStrategy:
    """One deterministic assignment: +/-1 for each of the four settings,
    given as ``((alpha1, s1), (alpha2, s2))`` and ``((chi1, p1), (chi2, p2))``.

    ``settings`` and ``outcomes`` are the same data by position:
    ``((alpha1, alpha2), (chi1, chi2))`` and ``(s1, s2, p1, p2)``, a row of
    :data:`OUTCOME_TABLE`.
    """

    spin_outcomes: tuple[tuple[float, int], tuple[float, int]]
    path_outcomes: tuple[tuple[float, int], tuple[float, int]]
    settings: SettingsPair = field(init=False, repr=False, compare=False)
    outcomes: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            (a1, s1), (a2, s2) = self.spin_outcomes
            (c1, p1), (c2, p2) = self.path_outcomes
        except (TypeError, ValueError):
            raise DomainError("a strategy needs two (setting, outcome) pairs per side") from None
        outcomes = (s1, s2, p1, p2)
        for outcome in outcomes:
            if outcome not in _OUTCOMES:
                raise DomainError(f"outcomes must be +1 or -1, got {outcome!r}")
        object.__setattr__(self, "settings", _check_settings(((a1, a2), (c1, c2))))
        object.__setattr__(self, "outcomes", outcomes)


@dataclass(frozen=True)
class LhvEnsemble:
    """Convex mixture of strategies keyed to the same settings: non-negative
    weights summing to 1. ``settings`` are the members' settings and
    ``outcomes`` their (members, 4) outcome table."""

    strategies: tuple[LhvStrategy, ...]
    weights: tuple[float, ...]
    settings: SettingsPair = field(init=False, repr=False, compare=False)
    outcomes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.strategies) != len(self.weights) or not self.strategies:
            raise DomainError("ensemble needs equally many strategies and weights")
        for strategy in self.strategies:
            if not isinstance(strategy, LhvStrategy):
                raise DomainError(f"ensemble members must be LhvStrategy, got {strategy!r}")
        settings = self.strategies[0].settings
        for strategy in self.strategies:
            if strategy.settings != settings:
                raise DomainError(
                    f"ensemble members are keyed to different settings: "
                    f"{settings!r} and {strategy.settings!r}"
                )
        w = np.array(self.weights, dtype=float)
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1 within 1e-12, got {float(w.sum())!r}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "settings", settings)
        outcomes = np.array([strategy.outcomes for strategy in self.strategies], dtype=np.int64)
        outcomes.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)


def enumerate_strategies(settings: SettingsPair) -> list[LhvStrategy]:
    """All 16 deterministic strategies for the given setting pairs, one per
    row of :data:`OUTCOME_TABLE` and in its order."""
    settings = _check_settings(settings)
    return [_strategy_on(settings, row) for row in _ROWS]


def _strategy_on(settings: SettingsPair, outcomes: tuple[int, int, int, int]) -> LhvStrategy:
    # The strategy LhvStrategy(...) builds, for settings that _check_settings
    # has passed and an OUTCOME_TABLE row: checking the same settings again
    # for each of the 16 rows would cost more than the rest of the enumeration.
    (a1, a2), (c1, c2) = settings
    s1, s2, p1, p2 = outcomes
    strategy = object.__new__(LhvStrategy)
    object.__setattr__(strategy, "spin_outcomes", ((a1, s1), (a2, s2)))
    object.__setattr__(strategy, "path_outcomes", ((c1, p1), (c2, p2)))
    object.__setattr__(strategy, "settings", settings)
    object.__setattr__(strategy, "outcomes", outcomes)
    return strategy


def _ensemble_on(strategies: tuple[LhvStrategy, ...], weights: tuple[float, ...]) -> LhvEnsemble:
    # The ensemble LhvEnsemble(...) builds, for members of one
    # enumerate_strategies call and float weights that are non-negative and
    # sum to 1, without checking again what the enumeration has checked.
    ensemble = object.__new__(LhvEnsemble)
    object.__setattr__(ensemble, "strategies", strategies)
    object.__setattr__(ensemble, "weights", weights)
    object.__setattr__(ensemble, "settings", strategies[0].settings)
    outcomes = np.array([strategy.outcomes for strategy in strategies], dtype=np.int64)
    outcomes.setflags(write=False)
    object.__setattr__(ensemble, "outcomes", outcomes)
    return ensemble


def _row_s(outcomes: np.ndarray, negated_term: int) -> np.ndarray:
    """CHSH sum of every row (s1, s2, p1, p2) of an outcome table."""
    products = outcomes[:, _SPIN_COLUMNS] * outcomes[:, _PATH_COLUMNS]
    return products @ np.array(term_signs(negated_term))


def strategy_s(strategy: LhvStrategy, settings: SettingsPair, negated_term: int = 1) -> float:
    """CHSH sum of one strategy. Products factorize into
    s(a1)*[p(c1) -/+ p(c2)] + s(a2)*[p(c1) +/- p(c2)]; one bracket is always
    0 and the other +/-2, so every deterministic strategy scores exactly
    +/-2. Values between the extremes require mixtures."""
    _check_keyed_to(strategy, LhvStrategy, settings)
    s1, s2, p1, p2 = strategy.outcomes
    return chsh_sum((s1 * p1, s1 * p2, s2 * p1, s2 * p2), negated_term)


def ensemble_s(ensemble: LhvEnsemble, settings: SettingsPair, negated_term: int = 1) -> float:
    """Weighted mean of the member strategies' CHSH sums."""
    _check_keyed_to(ensemble, LhvEnsemble, settings)
    return float(np.dot(ensemble.weights, _row_s(ensemble.outcomes, negated_term)))


def max_abs_s(settings: SettingsPair, negated_term: int = 1) -> float:
    """max |S| over all 16 strategies; equals 2 for any valid settings."""
    _check_settings(settings)
    return float(np.max(np.abs(_row_s(OUTCOME_TABLE, negated_term))))


def sample_ensemble_counts(
    ensemble: LhvEnsemble,
    settings: SettingsPair,
    shots: int,
    seed: int,
) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """Simulated counting experiment on an ensemble.

    Each of the four setting pairs (indexed (j, k) for (alpha_j, chi_k)) is
    measured ``shots`` times: a strategy is drawn per shot from the ensemble
    weights, and its deterministic outcomes are tallied into the four outcome
    channels {(+1,+1), (+1,-1), (-1,+1), (-1,-1)}. Sampling is seeded and
    per-setting-pair substreams make the table independent of evaluation
    order: pair p's draws are
    ``substream(seed, 3, p).multinomial(shots, weights)``. Only pair 0's
    generator is built; it is re-keyed to the Philox keys of pairs 1-3,
    which numpy's ``SeedSequence`` derives as :func:`substream` does. Philox
    is counter-based, so a re-keyed generator gives exactly the draws of a
    fresh one, and re-keying costs a fraction of building a generator. A
    one-strategy ensemble takes every shot without a draw.
    """
    _check_keyed_to(ensemble, LhvEnsemble, settings)
    seed = check_seed(seed)
    shots = check_int(shots, "shots", 1, 2**63 - 1)  # multinomial takes an int64 count
    if len(ensemble.weights) == 1:
        # multinomial(shots, [1.0]) consumes no uniform and returns [shots].
        draws = np.full((len(_PAIRS), 1), shots, dtype=np.int64)
    else:
        weights = np.array(ensemble.weights, dtype=float)
        weights = weights / weights.sum()  # guard rounding; validated near 1 already
        # The Philox keys substream(seed, _STREAM_LHV, pair) has for pairs 1-3.
        keys = np.array(
            [
                np.random.SeedSequence([seed, _STREAM_LHV, pair]).generate_state(2, np.uint64)
                for pair in range(1, len(_PAIRS))
            ]
        )
        streams = _rekeyed_streams(substream(seed, _STREAM_LHV, 0), keys)
        draws = np.array([stream.multinomial(shots, weights) for stream in streams])
    # Channel index of each (member, setting pair): 2*[spin is -1] + [path is -1].
    spin = ensemble.outcomes[:, _SPIN_COLUMNS]
    path = ensemble.outcomes[:, _PATH_COLUMNS]
    channel = (1 - spin) + (1 - path) // 2
    # Integer tallies: exact up to the int64 shot bound.
    tallies = np.einsum("pm,mpc->pc", draws, channel[:, :, None] == np.arange(len(_CHANNELS)))
    return {pair: dict(zip(_CHANNELS, row)) for pair, row in zip(_PAIRS, tallies.tolist())}


def empirical_s(
    counts: dict[tuple[int, int], dict[tuple[int, int], int]],
    negated_term: int = 1,
) -> tuple[float, float]:
    """CHSH estimate and propagated sigma from a sampled count table, using
    the same four-channel estimator as the quantum pipeline. A missing
    setting pair or channel is a :class:`PreconditionError`."""
    estimates = []
    for pair in _PAIRS:
        try:
            ch = counts[pair]
        except KeyError:
            raise PreconditionError(f"count table lacks setting pair {pair}") from None
        try:
            n_pp, n_mm, n_pm, n_mp = ch[(1, 1)], ch[(-1, -1)], ch[(1, -1)], ch[(-1, 1)]
        except KeyError as exc:
            raise PreconditionError(
                f"count table lacks channel {exc.args[0]} at setting pair {pair}"
            ) from None
        estimates.append(e_obs_from_counts(n_pp, n_mm, n_pm, n_mp))
    result = s_prime(*estimates, negated_term=negated_term)
    return result.s_value, result.sigma
