"""Brute-force oracle for noncontextual outcome-assignment models.

A strategy predetermines one +/-1 outcome per analyzer setting, independent
of what is measured alongside. With two spin angles and two path phases
there are exactly 2^4 = 16 strategies; enumerating them (and convex mixtures
over them) certifies the classical bound |S| <= 2 that the entangled-state
pipeline exceeds. Outcomes are keyed by the exact setting values supplied;
the two settings of a pair must be distinct angles on the circle (more than
1e-9 apart), so that no analyzer position gets two keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import chsh_sum
from .angles import angles_close
from .errors import DomainError
from .montecarlo import check_seed, substream

SettingsPair = tuple[tuple[float, float], tuple[float, float]]

_STREAM_LHV = 3  # stream kind, disjoint from the montecarlo count/drift kinds

_OUTCOMES = (1, -1)


def _check_settings(settings: SettingsPair) -> SettingsPair:
    (a1, a2), (c1, c2) = settings
    a1, a2, c1, c2 = float(a1), float(a2), float(c1), float(c2)
    for value in (a1, a2, c1, c2):
        if not math.isfinite(value):
            raise DomainError(f"settings must be finite, got {value!r}")
    if angles_close(a1, a2):
        raise DomainError(f"the two spin settings must be distinct angles, got {a1!r} and {a2!r}")
    if angles_close(c1, c2):
        raise DomainError(f"the two path settings must be distinct angles, got {c1!r} and {c2!r}")
    return ((a1, a2), (c1, c2))


@dataclass(frozen=True)
class LhvStrategy:
    """One deterministic assignment: +/-1 for each of the four settings."""

    spin_outcomes: tuple[tuple[float, int], ...]
    path_outcomes: tuple[tuple[float, int], ...]

    def __post_init__(self):
        for table in (self.spin_outcomes, self.path_outcomes):
            for _, outcome in table:
                if outcome not in _OUTCOMES:
                    raise DomainError(f"outcomes must be +1 or -1, got {outcome!r}")

    def spin(self, alpha: float) -> int:
        for key, outcome in self.spin_outcomes:
            if key == alpha:
                return outcome
        raise DomainError(f"strategy has no outcome for spin setting {alpha!r}")

    def path(self, chi: float) -> int:
        for key, outcome in self.path_outcomes:
            if key == chi:
                return outcome
        raise DomainError(f"strategy has no outcome for path setting {chi!r}")


@dataclass(frozen=True)
class LhvEnsemble:
    """Convex mixture of strategies: non-negative weights summing to 1."""

    strategies: tuple[LhvStrategy, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.strategies) != len(self.weights) or not self.strategies:
            raise DomainError("ensemble needs equally many strategies and weights")
        w = np.array(self.weights, dtype=float)
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1 within 1e-12, got {float(w.sum())!r}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))


def enumerate_strategies(settings: SettingsPair) -> list[LhvStrategy]:
    """All 16 deterministic strategies for the given setting pairs, in a
    fixed enumeration order (spin outcomes vary slowest)."""
    (a1, a2), (c1, c2) = _check_settings(settings)
    out = []
    for sa1, sa2, pc1, pc2 in itertools.product(_OUTCOMES, repeat=4):
        out.append(
            LhvStrategy(
                spin_outcomes=((a1, sa1), (a2, sa2)),
                path_outcomes=((c1, pc1), (c2, pc2)),
            )
        )
    return out


def strategy_s(strategy: LhvStrategy, settings: SettingsPair, negated_term: int = 1) -> float:
    """CHSH sum of one strategy. Products factorize into
    s(a1)*[p(c1) -/+ p(c2)] + s(a2)*[p(c1) +/- p(c2)]; one bracket is always
    0 and the other +/-2, so every deterministic strategy scores exactly
    +/-2. Values between the extremes require mixtures."""
    (a1, a2), (c1, c2) = _check_settings(settings)
    values = [
        strategy.spin(a1) * strategy.path(c1),
        strategy.spin(a1) * strategy.path(c2),
        strategy.spin(a2) * strategy.path(c1),
        strategy.spin(a2) * strategy.path(c2),
    ]
    return chsh_sum(values, negated_term)


def ensemble_s(ensemble: LhvEnsemble, settings: SettingsPair, negated_term: int = 1) -> float:
    """Weighted mean of the member strategies' CHSH sums."""
    return float(
        sum(
            w * strategy_s(strat, settings, negated_term)
            for strat, w in zip(ensemble.strategies, ensemble.weights)
        )
    )


def max_abs_s(settings: SettingsPair, negated_term: int = 1) -> float:
    """max |S| over all 16 strategies; equals 2 for any valid settings."""
    return max(
        abs(strategy_s(s, settings, negated_term)) for s in enumerate_strategies(settings)
    )


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
    order.
    """
    (alphas, chis) = _check_settings(settings)
    check_seed(seed)
    if not isinstance(shots, int) or shots < 1:
        raise DomainError(f"shots must be a positive integer, got {shots!r}")
    if shots > 2**63 - 1:  # numpy's multinomial draw takes an int64 count
        raise DomainError(f"shots must not exceed 2**63 - 1 = 9223372036854775807, got {shots}")
    weights = np.array(ensemble.weights, dtype=float)
    weights = weights / weights.sum()  # guard rounding; validated near 1 already
    table: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for pair_index, (j, k) in enumerate(itertools.product(range(2), range(2))):
        rng = substream(seed, _STREAM_LHV, pair_index)
        per_strategy = rng.multinomial(shots, weights)
        channels = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
        for strat, n in zip(ensemble.strategies, per_strategy):
            if n == 0:
                continue
            outcome = (strat.spin(alphas[j]), strat.path(chis[k]))
            channels[outcome] += int(n)
        table[(j, k)] = channels
    return table


def empirical_s(
    counts: dict[tuple[int, int], dict[tuple[int, int], int]],
    negated_term: int = 1,
) -> tuple[float, float]:
    """CHSH estimate and propagated sigma from a sampled count table, using
    the same four-channel estimator as the quantum pipeline."""
    from .analysis import e_obs_from_counts, s_prime

    estimates = []
    for j, k in itertools.product(range(2), range(2)):
        ch = counts[(j, k)]
        estimates.append(
            e_obs_from_counts(ch[(1, 1)], ch[(-1, -1)], ch[(1, -1)], ch[(-1, 1)])
        )
    result = s_prime(*estimates, negated_term=negated_term)
    return result.s_value, result.sigma
