"""Noncontextual hidden-variable oracle: enumeration, mixtures, sampling."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinpath import (
    DomainError,
    LhvEnsemble,
    LhvStrategy,
    PreconditionError,
    empirical_s,
    ensemble_s,
    enumerate_strategies,
    max_abs_s,
    sample_ensemble_counts,
    strategy_s,
)
from spinpath.analysis import chsh_sum
from spinpath.angles import angles_close
from spinpath.apparatus import IDEAL_S
from spinpath.lhv import OUTCOME_TABLE, _STREAM_LHV, _ensemble_on
from spinpath.montecarlo import substream

SETTINGS = ((0.0, math.pi / 2.0), (0.79 * math.pi, 1.29 * math.pi))


def test_enumeration_is_complete_and_unique():
    strategies = enumerate_strategies(SETTINGS)
    assert len(strategies) == 16
    keys = {
        (s.spin_outcomes, s.path_outcomes)
        for s in strategies
    }
    assert len(keys) == 16
    # the all-plus strategy is among them
    (a1, a2), (c1, c2) = SETTINGS
    all_plus = LhvStrategy(((a1, 1), (a2, 1)), ((c1, 1), (c2, 1)))
    assert all_plus in strategies
    # row r of the outcome table, built as the constructor builds it
    for strat, row in zip(strategies, OUTCOME_TABLE.tolist()):
        s1, s2, p1, p2 = row
        built = LhvStrategy(((a1, s1), (a2, s2)), ((c1, p1), (c2, p2)))
        assert (strat, strat.settings, strat.outcomes) == (built, built.settings, built.outcomes)


def test_settings_validation():
    with pytest.raises(DomainError):
        enumerate_strategies(((0.0, 0.0), (1.0, 2.0)))
    with pytest.raises(DomainError):
        enumerate_strategies(((0.0, 1.0), (2.0, 2.0)))
    with pytest.raises(DomainError):
        enumerate_strategies(((0.0, math.inf), (1.0, 2.0)))


def test_settings_equal_on_the_circle_rejected():
    # one analyzer position must not get two outcome keys
    for settings in (
        ((0.0, 2.0 * math.pi), (1.0, 2.0)),
        ((0.5, 1.0), (-math.pi, math.pi)),
        ((0.0, 1.0), (2.0, 2.0 + 4.0 * math.pi)),
    ):
        with pytest.raises(DomainError, match="distinct angles"):
            enumerate_strategies(settings)


def test_strategy_validation_and_lookup():
    strat = LhvStrategy(((0.0, 1), (1.0, -1)), ((2.0, 1), (3.0, -1)))
    # outcomes by position: (s(alpha1), s(alpha2), p(chi1), p(chi2))
    assert strat.outcomes == (1, -1, 1, -1)
    assert strat.settings == ((0.0, 1.0), (2.0, 3.0))
    assert strategy_s(strat, ((0, 1), (2, 3)), negated_term=3) == chsh_sum([1, -1, -1, 1], 3)
    # a setting the strategy holds no outcome for
    with pytest.raises(DomainError, match="keyed to"):
        strategy_s(strat, ((0.5, 1.0), (2.0, 3.0)))
    with pytest.raises(DomainError, match="keyed to"):
        strategy_s(strat, ((1.0, 0.0), (2.0, 3.0)))
    with pytest.raises(DomainError):
        strategy_s("not a strategy", ((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(DomainError):
        LhvStrategy(((0.0, 2), (1.0, 1)), ((2.0, 1), (3.0, 1)))
    with pytest.raises(DomainError, match="two"):
        LhvStrategy(((0.0, 1), (1.0, 1), (2.0, 1)), ((2.0, 1), (3.0, 1)))
    with pytest.raises(DomainError, match="distinct angles"):
        LhvStrategy(((0.0, 1), (2.0 * math.pi, 1)), ((2.0, 1), (3.0, 1)))


def test_all_plus_strategy_scores_exactly_two():
    (a1, a2), (c1, c2) = SETTINGS
    strat = LhvStrategy(((a1, 1), (a2, 1)), ((c1, 1), (c2, 1)))
    # every term is +1, one carries the minus sign
    assert strategy_s(strat, SETTINGS, negated_term=1) == 2.0
    assert strategy_s(strat, SETTINGS, negated_term=0) == 2.0


def test_spin_flip_negates_s():
    (a1, a2), (c1, c2) = SETTINGS
    for sa1, sa2, pc1, pc2 in itertools.product((1, -1), repeat=4):
        strat = LhvStrategy(((a1, sa1), (a2, sa2)), ((c1, pc1), (c2, pc2)))
        flipped = LhvStrategy(((a1, -sa1), (a2, -sa2)), ((c1, pc1), (c2, pc2)))
        assert strategy_s(flipped, SETTINGS) == -strategy_s(strat, SETTINGS)


def test_every_strategy_scores_plus_or_minus_two():
    # one of the two brackets s(a)(p(c1) +- p(c2)) always vanishes and the
    # other has magnitude 2, for every sign convention
    for negated in range(4):
        values = {strategy_s(s, SETTINGS, negated) for s in enumerate_strategies(SETTINGS)}
        assert values == {-2.0, 2.0}


def test_exhaustive_bound_is_two():
    assert max_abs_s(SETTINGS) == 2.0
    rng = np.random.default_rng(61)
    for _ in range(100):
        a1, a2, c1, c2 = rng.uniform(-6.0, 6.0, size=4)
        if a1 == a2 or c1 == c2:
            continue
        settings = ((a1, a2), (c1, c2))
        for negated in range(4):
            assert max_abs_s(settings, negated) == 2.0


def test_uniform_ensemble_vanishes():
    strategies = tuple(enumerate_strategies(SETTINGS))
    uniform = LhvEnsemble(strategies, tuple([1.0 / 16.0] * 16))
    assert ensemble_s(uniform, SETTINGS) == 0.0


def test_point_mass_matches_strategy():
    strategies = enumerate_strategies(SETTINGS)
    for strat in strategies[:4]:
        point = LhvEnsemble((strat,), (1.0,))
        assert ensemble_s(point, SETTINGS) == strategy_s(strat, SETTINGS)


def test_ensemble_validation():
    strategies = tuple(enumerate_strategies(SETTINGS))
    with pytest.raises(DomainError):
        LhvEnsemble(strategies, tuple([1.0 / 8.0] * 16))  # sums to 2
    with pytest.raises(DomainError):
        LhvEnsemble(strategies[:2], (1.2, -0.2))
    with pytest.raises(DomainError):
        LhvEnsemble((), ())
    with pytest.raises(DomainError):
        LhvEnsemble(strategies[:2], (0.5,))
    with pytest.raises(DomainError, match="LhvStrategy"):
        LhvEnsemble(("x",), (1.0,))
    other = enumerate_strategies(((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(DomainError, match="different settings"):
        LhvEnsemble((strategies[0], other[0]), (0.5, 0.5))
    # an ensemble samples and scores only at its members' settings
    point = LhvEnsemble(strategies[:1], (1.0,))
    with pytest.raises(DomainError, match="keyed to"):
        sample_ensemble_counts(point, ((0.0, 1.0), (2.0, 3.0)), shots=10, seed=1)
    with pytest.raises(DomainError, match="keyed to"):
        ensemble_s(point, ((0.0, 1.0), (2.0, 3.0)))


def test_random_mixtures_respect_classical_bound():
    strategies = tuple(enumerate_strategies(SETTINGS))
    rng = np.random.default_rng(62)
    for _ in range(10_000):
        w = rng.dirichlet(np.ones(16))
        w = w / w.sum()
        ensemble = LhvEnsemble(strategies, tuple(w))
        s = ensemble_s(ensemble, SETTINGS)
        assert abs(s) <= 2.0 + 1e-12


def test_mixture_s_is_convex_combination():
    strategies = tuple(enumerate_strategies(SETTINGS))
    rng = np.random.default_rng(63)
    member = np.array([strategy_s(s, SETTINGS) for s in strategies])
    for _ in range(100):
        w = rng.dirichlet(np.ones(16))
        w = w / w.sum()
        ensemble = LhvEnsemble(strategies, tuple(w))
        assert abs(ensemble_s(ensemble, SETTINGS) - float(w @ member)) < 1e-12


def test_sampled_point_mass_is_exact():
    strategies = enumerate_strategies(SETTINGS)
    strat = strategies[0]
    point = LhvEnsemble((strat,), (1.0,))
    counts = sample_ensemble_counts(point, SETTINGS, shots=500, seed=5)
    assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for (j, k), channels in counts.items():
        assert sum(channels.values()) == 500
        outcome = (strat.outcomes[j], strat.outcomes[2 + k])
        assert channels[outcome] == 500
    s, sigma = empirical_s(counts)
    assert s == strategy_s(strat, SETTINGS)
    assert sigma == 0.0


def test_sampling_is_deterministic():
    strategies = tuple(enumerate_strategies(SETTINGS))
    weights = tuple([1.0 / 16.0] * 16)
    ensemble = LhvEnsemble(strategies, weights)
    a = sample_ensemble_counts(ensemble, SETTINGS, shots=1000, seed=9)
    b = sample_ensemble_counts(ensemble, SETTINGS, shots=1000, seed=9)
    assert a == b
    c = sample_ensemble_counts(ensemble, SETTINGS, shots=1000, seed=10)
    assert a != c


def test_sampling_validation():
    strategies = tuple(enumerate_strategies(SETTINGS))
    ensemble = LhvEnsemble(strategies, tuple([1.0 / 16.0] * 16))
    with pytest.raises(DomainError):
        sample_ensemble_counts(ensemble, SETTINGS, shots=0, seed=1)
    with pytest.raises(DomainError):
        sample_ensemble_counts(ensemble, SETTINGS, shots=100, seed=-1)


def test_uniform_ensemble_sampled_s_is_small():
    strategies = tuple(enumerate_strategies(SETTINGS))
    ensemble = LhvEnsemble(strategies, tuple([1.0 / 16.0] * 16))
    counts = sample_ensemble_counts(ensemble, SETTINGS, shots=1_000_000, seed=2)
    s, sigma = empirical_s(counts)
    assert abs(s) < 0.01
    assert abs(s) < 4.0 * sigma


def test_sampled_s_matches_ensemble_s():
    strategies = tuple(enumerate_strategies(SETTINGS))
    rng = np.random.default_rng(64)
    for trial in range(5):
        w = rng.dirichlet(np.ones(16))
        w = w / w.sum()
        ensemble = LhvEnsemble(strategies, tuple(w))
        truth = ensemble_s(ensemble, SETTINGS)
        counts = sample_ensemble_counts(ensemble, SETTINGS, shots=100_000, seed=trial)
        s, sigma = empirical_s(counts)
        assert abs(s - truth) < 4.0 * max(sigma, 1e-6)
        assert abs(s) <= 2.0 + 4.0 * sigma


def test_quantum_excess_over_classical_bound():
    # the entangled-state maximum exceeds anything the 16 strategies reach
    best = max_abs_s(SETTINGS)
    assert IDEAL_S - best >= 2.0 * math.sqrt(2.0) - 2.0 - 1e-9


def test_empirical_s_uses_four_channel_estimator():
    counts = {
        (0, 0): {(1, 1): 400, (1, -1): 100, (-1, 1): 100, (-1, -1): 400},
        (0, 1): {(1, 1): 400, (1, -1): 100, (-1, 1): 100, (-1, -1): 400},
        (1, 0): {(1, 1): 400, (1, -1): 100, (-1, 1): 100, (-1, -1): 400},
        (1, 1): {(1, 1): 400, (1, -1): 100, (-1, 1): 100, (-1, -1): 400},
    }
    s, sigma = empirical_s(counts, negated_term=1)
    # each correlation is 0.6; signs (+,-,+,+) sum to 1.2
    assert abs(s - chsh_sum([0.6, 0.6, 0.6, 0.6], 1)) < 1e-12
    assert sigma > 0.0


@pytest.mark.parametrize(
    "counts, missing",
    [
        ({}, r"setting pair \(0, 0\)"),
        (
            {
                pair: {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
                for pair in [(0, 0), (0, 1), (1, 0)]
            },
            r"setting pair \(1, 1\)",
        ),
        (
            {(0, 0): {(1, 1): 5, (-1, -1): 5, (1, -1): 5}},
            r"channel \(-1, 1\) at setting pair \(0, 0\)",
        ),
    ],
    ids=["empty", "missing_pair", "missing_channel"],
)
def test_empirical_s_names_what_is_missing(counts, missing):
    with pytest.raises(PreconditionError, match=missing):
        empirical_s(counts)


_WEIGHTS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=16, max_size=16).filter(
    lambda w: sum(w) > 1e-6
)


@given(
    raw=_WEIGHTS,
    angles=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
    negated=st.sampled_from([0, 1, 2, 3]),
)
def test_any_mixture_respects_the_classical_bound(raw, angles, negated):
    a1, a2, c1, c2 = angles
    assume(not angles_close(a1, a2) and not angles_close(c1, c2))
    settings = ((a1, a2), (c1, c2))
    w = np.array(raw)
    ensemble = LhvEnsemble(tuple(enumerate_strategies(settings)), tuple(w / w.sum()))
    assert abs(ensemble_s(ensemble, settings, negated)) <= 2.0 + 1e-12


@given(
    members=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8),
    raw=_WEIGHTS,
    shots=st.integers(min_value=1, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_table_tallies_match_a_per_strategy_loop(members, raw, shots, seed):
    strategies = enumerate_strategies(SETTINGS)
    chosen = tuple(strategies[i] for i in members)
    weights = np.array(raw[: len(members)]) + 1e-3
    ensemble = LhvEnsemble(chosen, tuple(weights / weights.sum()))
    counts = sample_ensemble_counts(ensemble, SETTINGS, shots, seed)
    # reference: the same draws, tallied one member at a time
    w = np.array(ensemble.weights)
    w = w / w.sum()
    for pair_index, (j, k) in enumerate(itertools.product(range(2), range(2))):
        per_strategy = substream(seed, _STREAM_LHV, pair_index).multinomial(shots, w)
        want = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
        for strat, n in zip(chosen, per_strategy):
            want[(strat.outcomes[j], strat.outcomes[2 + k])] += int(n)
        assert counts[(j, k)] == want
        assert list(counts[(j, k)]) == list(want)
        assert all(type(n) is int for n in counts[(j, k)].values())


@given(
    members=st.lists(st.integers(min_value=0, max_value=15), min_size=2, max_size=16),
    raw=_WEIGHTS,
    shots=st.integers(min_value=1, max_value=10**9),
    seed=st.integers(min_value=0, max_value=2**32 - 1)
    | st.integers(min_value=2**32, max_value=2**64 - 1)
    | st.just(2**64 - 1),
)
def test_re_keyed_draws_equal_fresh_substream_draws(members, raw, shots, seed):
    # Pairs 1-3 re-key pair 0's generator; every pair must still draw what a
    # fresh substream(seed, 3, pair) draws. Seeds below 2**32 are one word,
    # which SeedSequence pads to its pool; 2**64 - 1 is two full words.
    strategies = enumerate_strategies(SETTINGS)
    chosen = tuple(strategies[i] for i in members)
    weights = np.array(raw[: len(members)]) + 1e-3
    ensemble = LhvEnsemble(chosen, tuple(weights / weights.sum()))
    counts = sample_ensemble_counts(ensemble, SETTINGS, shots, seed)
    w = np.array(ensemble.weights)
    w = w / w.sum()
    spin = ensemble.outcomes[:, :2]
    path = ensemble.outcomes[:, 2:]
    for pair_index, (j, k) in enumerate(itertools.product(range(2), range(2))):
        draws = substream(seed, _STREAM_LHV, pair_index).multinomial(shots, w)
        for (s, p), n in counts[(j, k)].items():
            assert n == int(draws[(spin[:, j] == s) & (path[:, k] == p)].sum())


@pytest.mark.parametrize("members", [range(16), [3], [15, 0, 7]])
def test_ensemble_on_builds_what_the_constructor_builds(members):
    strategies = enumerate_strategies(((-1.0, 2.5e3), (0.25, -7.0)))
    chosen = tuple(strategies[i] for i in members)
    weights = (1.0 / len(chosen),) * len(chosen)
    built = _ensemble_on(chosen, weights)
    want = LhvEnsemble(chosen, weights)
    assert (built.strategies, built.weights, built.settings) == (
        want.strategies,
        want.weights,
        want.settings,
    )
    assert all(type(w) is float for w in built.weights)
    assert built.outcomes.dtype == want.outcomes.dtype
    assert np.array_equal(built.outcomes, want.outcomes)
    assert not built.outcomes.flags.writeable
