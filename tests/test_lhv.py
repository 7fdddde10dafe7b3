"""Noncontextual hidden-variable oracle: enumeration, mixtures as weight
vectors over the outcome table, sampling, and Fine's theorem."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from spinpath import (
    DomainError,
    Setting,
    bell_state,
    empirical_s,
    ensemble_s,
    enumerate_strategies,
    expectation,
    max_violation_settings,
    sample_ensemble_counts,
    strategy_s,
)
from spinpath import analysis
from spinpath.analysis import chsh_sum, e_obs_from_counts, s_prime
from spinpath.apparatus import IDEAL_S
from spinpath.lhv import OUTCOME_TABLE, _STREAM_LHV, _row_s
from spinpath.montecarlo import substream

SETTINGS = ((0.0, math.pi / 2.0), (0.79 * math.pi, 1.29 * math.pi))
UNIFORM = np.full(16, 1.0 / 16.0)
ONE_HOT = np.eye(16)
ROWS = OUTCOME_TABLE.tolist()
# Row r's four correlations (s1*p1, s1*p2, s2*p1, s2*p2), in CHSH term order.
PRODUCTS = OUTCOME_TABLE[:, [0, 0, 1, 1]] * OUTCOME_TABLE[:, [2, 3, 2, 3]]
# A count table's rows are these setting pairs (j, k), and its columns these
# (spin, path) outcome channels.
PAIRS = list(itertools.product(range(2), range(2)))
CHANNELS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_enumeration_is_complete_and_unique():
    settings, table = enumerate_strategies(((0, 1), (2, 3.5)))
    assert settings == ((0.0, 1.0), (2.0, 3.5))
    assert all(type(angle) is float for pair in settings for angle in pair)
    assert table is OUTCOME_TABLE
    assert table.shape == (16, 4) and table.dtype == np.int64
    assert not table.flags.writeable
    # every assignment of +/-1 to the four observables, once, spin slowest
    assert ROWS == [list(row) for row in itertools.product((1, -1), repeat=4)]


def test_settings_validation():
    with pytest.raises(DomainError):
        enumerate_strategies(((0.0, 0.0), (1.0, 2.0)))
    with pytest.raises(DomainError):
        enumerate_strategies(((0.0, 1.0), (2.0, 2.0)))
    with pytest.raises(DomainError):
        enumerate_strategies(((0.0, math.inf), (1.0, 2.0)))


def test_settings_equal_on_the_circle_rejected():
    # one analyzer position must not get two outcomes
    for settings in (
        ((0.0, 2.0 * math.pi), (1.0, 2.0)),
        ((0.5, 1.0), (-math.pi, math.pi)),
        ((0.0, 1.0), (2.0, 2.0 + 4.0 * math.pi)),
    ):
        with pytest.raises(DomainError, match="distinct angles"):
            enumerate_strategies(settings)


def test_strategy_validation_and_lookup():
    # outcomes by position: (s(alpha1), s(alpha2), p(chi1), p(chi2))
    assert strategy_s((1, -1, 1, -1), negated_term=3) == chsh_sum([1, -1, -1, 1], 3)
    assert strategy_s(OUTCOME_TABLE[5], 2) == strategy_s(ROWS[5], 2)
    assert strategy_s(np.array([1, -1, 1, -1], dtype=np.int8)) == strategy_s((1, -1, 1, -1))
    for outcomes in (
        (2, 1, 1, 1),
        (0, 1, 1, 1),
        (True, 1, 1, 1),
        (-1.0, 1, 1, 1),
        ("1", 1, 1, 1),
        (1, 1, 1),
        (1, 1, 1, 1, 1),
        1,
        None,
    ):
        with pytest.raises(DomainError):
            strategy_s(outcomes)
    with pytest.raises(DomainError):
        strategy_s((1, 1, 1, 1), negated_term=4)


def test_all_plus_strategy_scores_exactly_two():
    # every term is +1, one carries the minus sign
    assert strategy_s((1, 1, 1, 1), negated_term=1) == 2.0
    assert strategy_s((1, 1, 1, 1), negated_term=0) == 2.0


def test_spin_flip_negates_s():
    for sa1, sa2, pc1, pc2 in ROWS:
        assert strategy_s((-sa1, -sa2, pc1, pc2)) == -strategy_s((sa1, sa2, pc1, pc2))


def test_every_strategy_scores_plus_or_minus_two():
    # one of the two brackets s(a)(p(c1) +- p(c2)) always vanishes and the
    # other has magnitude 2, for every sign convention; the one-product score
    # of the table agrees row by row
    for negated in range(4):
        values = [strategy_s(row, negated) for row in ROWS]
        assert set(values) == {-2.0, 2.0}
        assert values == _row_s(OUTCOME_TABLE, negated).tolist()


def _abs_scores(settings, negated_term=1) -> set:
    # |S| of every strategy enumerated for the settings
    return {abs(strategy_s(row, negated_term)) for row in enumerate_strategies(settings)[1]}


def test_exhaustive_bound_is_two():
    # every enumerated strategy scores +-2, whatever the settings
    assert _abs_scores(SETTINGS) == {2.0}
    rng = np.random.default_rng(61)
    for _ in range(100):
        a1, a2, c1, c2 = rng.uniform(-6.0, 6.0, size=4)
        if a1 == a2 or c1 == c2:
            continue
        settings = ((a1, a2), (c1, c2))
        for negated in range(4):
            assert _abs_scores(settings, negated) == {2.0}


def test_uniform_ensemble_vanishes():
    assert ensemble_s(UNIFORM) == 0.0
    assert ensemble_s([1.0 / 16.0] * 16) == 0.0


def test_point_mass_matches_strategy():
    for negated in range(4):
        for row, weights in zip(ROWS, ONE_HOT):
            assert ensemble_s(weights, negated) == strategy_s(row, negated)
            assert ensemble_s(weights.tolist(), negated) == strategy_s(row, negated)


def test_ensemble_validation():
    for weights, message in (
        (np.full(16, 1.0 / 8.0), "sum to 1"),
        ([1.2, -0.2] + [0.0] * 14, "non-negative"),
        (np.r_[np.nan, np.zeros(15)], "finite"),
        (np.r_[np.inf, np.zeros(15)], "finite"),
        ([1.0], "one entry per outcome-table row"),
        ([], "one entry per outcome-table row"),
        (np.r_[ONE_HOT[0], 0.0], "one entry per outcome-table row"),
        (ONE_HOT[:1], "one entry per outcome-table row"),
        (["0.5", "0.5"] + [0.0] * 14, "real number"),
        ([True] + [0.0] * 15, "real number"),
        (np.r_[True, np.zeros(15, dtype=bool)], "real number"),
        ([[1.0]] + [0.0] * 15, "real number"),
        (1.0, "sequence of reals"),
        (None, "sequence of reals"),
    ):
        with pytest.raises(DomainError, match=message):
            ensemble_s(weights)
        with pytest.raises(DomainError, match=message):
            sample_ensemble_counts(weights, shots=10, seed=1)


def test_random_mixtures_respect_classical_bound():
    rng = np.random.default_rng(62)
    for _ in range(10_000):
        w = rng.dirichlet(np.ones(16))
        w = w / w.sum()
        assert abs(ensemble_s(w)) <= 2.0 + 1e-12


def test_mixture_s_is_convex_combination():
    rng = np.random.default_rng(63)
    member = np.array([strategy_s(row) for row in ROWS])
    for _ in range(100):
        w = rng.dirichlet(np.ones(16))
        w = w / w.sum()
        assert abs(ensemble_s(w) - float(w @ member)) < 1e-12


def _check_table(counts, shots):
    # a read-only (4, 4) int64 table whose every row sums to shots
    assert counts.shape == (4, 4) and counts.dtype == np.int64
    assert not counts.flags.writeable
    assert [sum(row) for row in counts.tolist()] == [shots] * 4


def test_sampled_point_mass_is_exact():
    for row, weights in zip(ROWS, ONE_HOT):
        counts = sample_ensemble_counts(weights, shots=500, seed=5)
        _check_table(counts, 500)
        for p, (j, k) in enumerate(PAIRS):
            assert counts[p, CHANNELS.index((row[j], row[2 + k]))] == 500
        s, sigma = empirical_s(counts)
        assert s == strategy_s(row)
        assert sigma == 0.0
    # the largest shot count takes every shot without overflow
    counts = sample_ensemble_counts(ONE_HOT[15], shots=2**63 - 1, seed=5)
    _check_table(counts, 2**63 - 1)
    assert counts[3, 3] == 2**63 - 1


def test_sampling_is_deterministic():
    a = sample_ensemble_counts(UNIFORM, shots=1000, seed=9)
    b = sample_ensemble_counts(UNIFORM, shots=1000, seed=9)
    _check_table(a, 1000)
    assert np.array_equal(a, b)
    c = sample_ensemble_counts(UNIFORM, shots=1000, seed=10)
    assert not np.array_equal(a, c)


def test_sampling_validation():
    with pytest.raises(DomainError):
        sample_ensemble_counts(UNIFORM, shots=0, seed=1)
    with pytest.raises(DomainError):
        sample_ensemble_counts(UNIFORM, shots=100, seed=-1)
    with pytest.raises(DomainError):
        sample_ensemble_counts(ONE_HOT[3], shots=2**63, seed=1)


def test_uniform_ensemble_sampled_s_is_small():
    counts = sample_ensemble_counts(UNIFORM, shots=1_000_000, seed=2)
    s, sigma = empirical_s(counts)
    assert abs(s) < 0.01
    assert abs(s) < 4.0 * sigma


def test_sampled_s_matches_ensemble_s():
    rng = np.random.default_rng(64)
    for trial in range(5):
        w = rng.dirichlet(np.ones(16))
        w = w / w.sum()
        truth = ensemble_s(w)
        counts = sample_ensemble_counts(w, shots=100_000, seed=trial)
        s, sigma = empirical_s(counts)
        assert abs(s - truth) < 4.0 * max(sigma, 1e-6)
        assert abs(s) <= 2.0 + 4.0 * sigma


def test_quantum_excess_over_classical_bound():
    # the entangled-state maximum exceeds anything the 16 strategies reach
    best = max(_abs_scores(SETTINGS))
    assert IDEAL_S - best >= 2.0 * math.sqrt(2.0) - 2.0 - 1e-9


def test_empirical_s_uses_four_channel_estimator():
    # columns (+1,+1), (+1,-1), (-1,+1), (-1,-1)
    counts = [[400, 100, 100, 400]] * 4
    s, sigma = empirical_s(counts, negated_term=1)
    # each correlation is 0.6; signs (+,-,+,+) sum to 1.2
    assert abs(s - chsh_sum([0.6, 0.6, 0.6, 0.6], 1)) < 1e-12
    assert sigma > 0.0


_BAD = {
    "None": None,
    "empty_list": [],
    "short_list": [1, 2],
    "string": "counts",
    "int": 5,
    "zeros_2x2": np.zeros((2, 2)),
}
_ROW = [1, 1, 1, 1]


def _with_row(index, bad):
    table = [list(_ROW) for _ in PAIRS]
    table[index] = bad
    return table


@pytest.mark.parametrize(
    "counts, message",
    [
        pytest.param(bad, r"must have shape \(4, 4\)", id=f"table-{name}")
        for name, bad in _BAD.items()
    ]
    + [
        pytest.param(_with_row(index, bad), r"got \(4,\)", id=f"row{index}-{name}")
        for index in (0, 2)
        for name, bad in _BAD.items()
    ]
    + [
        pytest.param({}, r"got \(\)", id="empty"),
        pytest.param({pair: dict(zip(CHANNELS, _ROW)) for pair in PAIRS}, r"got \(\)", id="dict"),
        pytest.param([_ROW] * 3, r"got \(3, 4\)", id="missing_pair"),
        pytest.param([_ROW[:3]] * 4, r"got \(4, 3\)", id="missing_channel"),
        pytest.param(np.ones((4, 5), dtype=np.int64), r"got \(4, 5\)", id="shape_4x5"),
        pytest.param(np.ones((4, 4, 1), dtype=np.int64), r"got \(4, 4, 1\)", id="shape_4x4x1"),
        pytest.param(
            [_ROW] * 3 + [[1, 1, 1, 10**5000]], "an integer of 5001 digits", id="huge_int"
        ),
    ],
)
def test_empirical_s_refuses_what_is_not_a_4x4_table_of_counts(counts, message):
    # Anything but a 4x4 table, the old dict table included, is one typed
    # error naming the shape; a bad cell is the channel count's error.
    with pytest.raises(DomainError, match=message):
        empirical_s(counts)


def _outcome(fn, *args, **kwargs):
    # A call's value, or its error's type and message.
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # both paths must fail alike
        return type(exc), str(exc)


def _via_estimates(counts, negated_term):
    estimates = [
        e_obs_from_counts(ch[(1, 1)], ch[(-1, -1)], ch[(1, -1)], ch[(-1, 1)])
        for ch in (dict(zip(CHANNELS, row)) for row in counts)
    ]
    result = s_prime(*estimates, negated_term=negated_term)
    return result.s_value, result.sigma


# Channel counts as the pipeline may pass them: Python ints up to the int64
# bound, numpy int64, and floats, including the extremes where a sum
# overflows.
_COUNT = (
    st.integers(min_value=0, max_value=2**63 - 1)
    | st.integers(min_value=0, max_value=1000)
    | st.integers(min_value=0, max_value=2**63 - 1).map(np.int64)
    | st.floats(min_value=0.0, max_value=1e6)
    | st.floats(min_value=0.0, allow_infinity=False)
)


@given(
    cells=st.lists(_COUNT, min_size=16, max_size=16),
    negated_term=st.integers(min_value=0, max_value=3),
)
# Rounding that shows the channel order (+1,-1) before (-1,+1), and Python
# ints read exactly, not through float64.
@example(cells=[0.3, 0.1, 0.2, 0.0] * 4, negated_term=1)
@example(cells=[2**53 + 1, 0.0, 1, 1] * 4, negated_term=1)
@example(cells=[2**63 - 1, 0.0, 1, 5508307607670594280] * 4, negated_term=1)
def test_empirical_s_equals_s_prime_of_the_estimates(cells, negated_term):
    counts = [cells[4 * p : 4 * p + 4] for p in range(len(PAIRS))]
    got = _outcome(empirical_s, counts, negated_term)
    assert repr(got) == repr(_outcome(_via_estimates, counts, negated_term))
    if type(got[0]) is float:
        assert all(type(x) is float for x in got)


_INT64_CELL = (
    st.integers(min_value=0, max_value=1000)
    | st.integers(min_value=2**53 - 4, max_value=2**53 + 4)
    | st.integers(min_value=0, max_value=(2**63 - 1) // 4)
    | st.sampled_from([0, 1, (2**63 - 1) // 4])
)


@st.composite
def _int64_tables(draw):
    # Sampled tables, as the oracle makes them, and hand-built ones up to a
    # quarter of the int64 range, so that no row sum overflows int64.
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 5), min_size=16, max_size=16)), float)
        assume(weights.sum() > 0)
        shots = draw(st.integers(min_value=1, max_value=10**6))
        seed = draw(st.integers(min_value=0, max_value=2**32))
        return sample_ensemble_counts(weights / weights.sum(), shots, seed)
    return np.array(draw(st.lists(_INT64_CELL, min_size=16, max_size=16)), np.int64).reshape(4, 4)


@given(table=_int64_tables(), negated_term=st.integers(min_value=0, max_value=3))
@example(table=np.full((4, 4), (2**63 - 1) // 4, np.int64), negated_term=1)
def test_empirical_s_reads_an_int64_table_as_the_object_path_does(table, negated_term):
    got = _outcome(empirical_s, table, negated_term)
    assert repr(got) == repr(_outcome(empirical_s, table.astype(object), negated_term))
    assert repr(got) == repr(_outcome(empirical_s, table.tolist(), negated_term))


@pytest.mark.parametrize(
    "row, message",
    [
        ([0, 0, 0, 0], "all four channels are zero; correlation undefined"),
        ([5, -1, 3, 2], "each channel count must be at least 0, got -1.0"),
    ],
    ids=["zero row", "negative cell"],
)
def test_an_int64_table_with_a_bad_row_is_refused_as_before(row, message):
    for index in range(len(PAIRS)):
        cells = [[3, 1, 4, 1]] * len(PAIRS)
        cells[index] = row
        for table in (np.array(cells, np.int64), cells):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                empirical_s(table)


@pytest.mark.parametrize(
    "table",
    [
        np.full((4, 4), 7, np.int32),
        np.full((4, 4), 7, np.uint64),
        np.full((4, 4), 7.0),
        [[7] * 4] * 4,
        np.full((4, 4), 7, np.int64),
    ],
    ids=["int32", "uint64", "float", "nested list", "int64"],
)
def test_only_an_int64_array_skips_the_per_cell_checks(table, monkeypatch):
    want = empirical_s([[7] * 4] * 4)
    checked = []
    monkeypatch.setattr(analysis, "_channel_count", lambda c: checked.append(c) or c)
    assert empirical_s(table) == want
    object_path = not (isinstance(table, np.ndarray) and table.dtype == np.int64)
    assert len(checked) == (16 if object_path else 0)


def test_strategy_s_equals_chsh_sum_of_its_products():
    for negated in range(4):
        for row, products in zip(ROWS, PRODUCTS.tolist()):
            value = strategy_s(row, negated)
            assert type(value) is float
            assert value == chsh_sum(products, negated)


@pytest.mark.parametrize(
    "outcomes, negated_term, message",
    [
        ((2, 1, 1, 1), 1, "strategy_s outcome must not exceed 1, got 2"),
        ((True, 1, 1, 1), 1, "strategy_s outcome must be an integer, got True"),
        ((0, 1, 1, 1), 1, "a strategy is four outcomes of +1 or -1, got (0, 1, 1, 1)"),
        ((1, 1, 1), 1, "a strategy is four outcomes of +1 or -1, got (1, 1, 1)"),
        (None, 1, "a strategy is four outcomes, got None"),
        ((2, 1, 1, 1), 4, "strategy_s outcome must not exceed 1, got 2"),
        ((1, 1, 1, 1), 4, "negated term index must not exceed 3, got 4"),
        ((1, 1, 1, 1), -1, "negated term index must be at least 0, got -1"),
        ((1, 1, 1, 1), 1.0, "negated term index must be an integer, got 1.0"),
    ],
)
def test_strategy_s_error_messages(outcomes, negated_term, message):
    with pytest.raises(DomainError) as info:
        strategy_s(outcomes, negated_term)
    assert str(info.value) == message


def _normalized(raw):
    w = np.array(raw)
    return w / w.sum()


# Weight vectors over the 16 rows: one-hot vectors, and mixtures whose
# entries are often exactly 0.
_WEIGHT_VECTORS = st.integers(min_value=0, max_value=15).map(lambda r: ONE_HOT[r]) | st.lists(
    st.just(0.0) | st.floats(min_value=0.0, max_value=1.0), min_size=16, max_size=16
).filter(lambda w: sum(w) > 1e-6).map(_normalized)


@given(weights=_WEIGHT_VECTORS)
def test_any_mixture_respects_the_classical_bound(weights):
    for negated in range(4):
        assert abs(ensemble_s(weights, negated)) <= 2.0 + 1e-12


def _tally(draws, j, k):
    # one setting pair's row of a count table, counted one strategy at a time
    want = dict.fromkeys(CHANNELS, 0)
    for row, n in zip(ROWS, draws):
        want[(row[j], row[2 + k])] += int(n)
    return list(want.values())


@given(
    weights=_WEIGHT_VECTORS,
    shots=st.integers(min_value=1, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_table_tallies_match_a_per_strategy_loop(weights, shots, seed):
    counts = sample_ensemble_counts(weights, shots, seed)
    # reference: the same draws, tallied one row at a time
    _check_table(counts, shots)
    w = weights / weights.sum()
    for pair_index, (j, k) in enumerate(PAIRS):
        per_row = substream(seed, _STREAM_LHV, pair_index).multinomial(shots, w)
        assert counts[pair_index].tolist() == _tally(per_row, j, k)


@given(
    weights=_WEIGHT_VECTORS,
    shots=st.integers(min_value=1, max_value=10**9),
    seed=st.integers(min_value=0, max_value=2**64 - 1) | st.sampled_from([0, 2**64 - 1]),
)
def test_re_keyed_draws_equal_fresh_substream_draws(weights, shots, seed):
    # Pairs 1-3 move pair 0's generator to their counters; every pair must
    # still draw what a fresh substream(seed, 3, pair) draws, for any 64-bit
    # seed as the first key word. A one-hot vector draws nothing and must
    # still give what its draw gives.
    counts = sample_ensemble_counts(weights, shots, seed)
    w = weights / weights.sum()
    spin = OUTCOME_TABLE[:, :2]
    path = OUTCOME_TABLE[:, 2:]
    for pair_index, (j, k) in enumerate(PAIRS):
        draws = substream(seed, _STREAM_LHV, pair_index).multinomial(shots, w)
        for (s, p), n in zip(CHANNELS, counts[pair_index].tolist()):
            assert n == int(draws[(spin[:, j] == s) & (path[:, k] == p)].sum())


@pytest.mark.parametrize("members", [range(16), [3], [15, 0, 7]])
def test_a_sub_ensemble_draws_as_its_members_in_table_order(members):
    # Equal weight on some rows draws what a multinomial over just those
    # rows, listed in table order, draws: zero weights consume no uniform.
    weights = np.zeros(16)
    weights[list(members)] = 1.0 / len(members)
    counts = sample_ensemble_counts(weights, shots=10_000, seed=2**40 + 3)
    rows = sorted(members)
    for pair_index, (j, k) in enumerate(PAIRS):
        stream = substream(2**40 + 3, _STREAM_LHV, pair_index)
        draws = np.zeros(16, dtype=np.int64)
        draws[rows] = stream.multinomial(10_000, [1.0 / len(rows)] * len(rows))
        assert counts[pair_index].tolist() == _tally(draws, j, k)


# Fine's theorem (A. Fine, PRL 48, 291, 1982): four correlations in [-1, 1]
# come from some weight vector over the 16 rows exactly when all eight CHSH
# inequalities |S| <= 2 hold. Feasibility is decided by a linear program;
# HiGHS holds constraints to 1e-7, so tuples within _FINE_MARGIN of a facet
# are left out rather than judged.
_FINE_MARGIN = 1e-6


def _weights_for(correlations):
    """A weight vector whose four correlations are ``correlations``, or None
    if there is none."""
    result = linprog(
        np.zeros(16),
        A_eq=np.vstack([PRODUCTS.T, np.ones(16)]),
        b_eq=[*correlations, 1.0],
        bounds=(0.0, None),
        method="highs",
    )
    assert result.status in (0, 2), result.message  # solved or infeasible
    return result.x if result.status == 0 else None


@given(correlations=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
def test_correlations_have_weights_exactly_when_every_chsh_inequality_holds(correlations):
    worst = max(abs(chsh_sum(correlations, negated)) for negated in range(4))
    assume(abs(worst - 2.0) > _FINE_MARGIN)
    weights = _weights_for(correlations)
    if worst > 2.0:
        assert weights is None
        return
    assert weights is not None
    assert np.all(weights >= -1e-9)
    assert np.allclose(PRODUCTS.T @ weights, correlations, rtol=0.0, atol=1e-9)
    weights = _normalized(np.clip(weights, 0.0, None))
    for negated in range(4):
        assert abs(ensemble_s(weights, negated) - chsh_sum(correlations, negated)) < 1e-8


def test_quantum_correlations_at_maximal_violation_have_no_weights():
    a1, a2, c1, c2 = max_violation_settings()
    bell = bell_state()
    correlations = [expectation(bell, Setting(a, c)) for a in (a1, a2) for c in (c1, c2)]
    assert chsh_sum(correlations) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert _weights_for(correlations) is None
    # the same correlations at the classical contrast sqrt(2)/2 sit on a facet,
    # and just below it they have weights
    assert _weights_for([0.999 * math.sqrt(0.5) * e for e in correlations]) is not None


def test_empirical_s_refuses_rows_numpy_cannot_stack():
    counts = [np.zeros(4)] * 3 + [np.zeros((4, 2))]
    with pytest.raises(DomainError, match="got ragged rows$"):
        empirical_s(counts)
