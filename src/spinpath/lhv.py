"""Brute-force oracle for noncontextual outcome-assignment models.

A strategy predetermines one +/-1 outcome per analyzer setting, independent
of what is measured alongside. With two spin angles and two path phases
there are exactly 2^4 = 16 strategies, the rows of :data:`OUTCOME_TABLE`,
and a hidden-variable model is a weight vector over those rows: 16
non-negative weights that sum to 1. Enumerating them certifies the classical
bound |S| <= 2 that the entangled-state pipeline exceeds. A row's outcomes
are read by position, so no score or tally depends on the setting angles;
the two settings of a pair must still be distinct angles on the circle
(more than 1e-9 apart), so that no analyzer position gets two outcomes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .analysis import _chsh, _correlation, _counts_correlation, _signed_sum, term_signs
from .angles import angles_close
from .errors import DomainError, check_int, check_real, check_reals
from .montecarlo import _STREAM_LHV, _counter_streams, check_seed, substream

SettingsPair = tuple[tuple[float, float], tuple[float, float]]

# Row r holds strategy r's outcomes (s(alpha1), s(alpha2), p(chi1), p(chi2)),
# in itertools.product order: spin outcomes vary slowest.
OUTCOME_TABLE = np.array(list(itertools.product((1, -1), repeat=4)), dtype=np.int64)
OUTCOME_TABLE.setflags(write=False)

# Setting pairs (j, k) for (alpha_j, chi_k) and the four outcome channels
# (spin, path): the rows and the columns of a count table. The pairs are
# also the CHSH term order; their spin and path outcomes are these columns
# of an outcome table.
_PAIRS = tuple(itertools.product(range(2), range(2)))
_CHANNELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_SPIN_COLUMNS = [j for j, _ in _PAIRS]
_PATH_COLUMNS = [2 + k for _, k in _PAIRS]

# _PAIR_HITS[p, r, c] is 1 where row r's outcomes at setting pair p fall in
# channel c: 2*[spin is -1] + [path is -1].
_CHANNEL_INDEX = (1 - OUTCOME_TABLE[:, _SPIN_COLUMNS]) + (1 - OUTCOME_TABLE[:, _PATH_COLUMNS]) // 2
_PAIR_HITS = (_CHANNEL_INDEX.T[:, :, None] == np.arange(len(_CHANNELS))).astype(np.int64)
_PAIR_HITS.setflags(write=False)


def _check_settings(settings: SettingsPair) -> SettingsPair:
    try:
        (a1, a2), (c1, c2) = settings
    except (TypeError, ValueError):
        raise DomainError(
            "settings must be two pairs of angles, ((alpha1, alpha2), (chi1, chi2))"
        ) from None
    a1, a2, c1, c2 = (check_real(value, "each setting") for value in (a1, a2, c1, c2))
    if angles_close(a1, a2):
        raise DomainError(f"the two spin settings must be distinct angles, got {a1!r} and {a2!r}")
    if angles_close(c1, c2):
        raise DomainError(f"the two path settings must be distinct angles, got {c1!r} and {c2!r}")
    return ((a1, a2), (c1, c2))


def _check_weights(weights) -> np.ndarray:
    """``weights`` as a float array with one finite, non-negative entry per
    row of :data:`OUTCOME_TABLE`, summing to 1 within 1e-12. Entries are
    checked by :func:`check_reals`; a float64 array needs no per-entry pass."""
    if not (isinstance(weights, np.ndarray) and weights.dtype == np.float64):
        weights = check_reals(weights, "weights")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(OUTCOME_TABLE),):
        raise DomainError(
            f"weights need one entry per outcome-table row ({len(OUTCOME_TABLE)}), "
            f"got shape {w.shape}"
        )
    total = float(w.sum())
    # With no entry negative or nan, the sum is finite exactly when every entry is.
    if not (w.min() >= 0.0 and math.isfinite(total)):
        raise DomainError("weights must be finite and non-negative")
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"weights must sum to 1 within 1e-12, got {total!r}")
    return w


def enumerate_strategies(settings: SettingsPair) -> tuple[SettingsPair, np.ndarray]:
    """The checked settings, as floats, and the 16 deterministic strategies
    for them: the read-only :data:`OUTCOME_TABLE`, one strategy per row."""
    return _check_settings(settings), OUTCOME_TABLE


def _row_s(outcomes: np.ndarray, negated_term: int) -> np.ndarray:
    """CHSH sum of every row (s1, s2, p1, p2) of an outcome table."""
    products = outcomes[:, _SPIN_COLUMNS] * outcomes[:, _PATH_COLUMNS]
    return products @ np.array(term_signs(negated_term))


def strategy_s(outcomes, negated_term: int = 1) -> float:
    """CHSH sum of one strategy, a row ``(s1, s2, p1, p2)`` of +/-1 outcomes.
    Products factorize into s1*[p1 -/+ p2] + s2*[p1 +/- p2]; one bracket is
    always 0 and the other +/-2, so every deterministic strategy scores
    exactly +/-2. Values between the extremes require mixtures."""
    try:
        row = [check_int(o, "strategy_s outcome", -1, 1) for o in outcomes]
    except TypeError:
        raise DomainError(f"a strategy is four outcomes, got {outcomes!r}") from None
    if len(row) != 4 or 0 in row:
        raise DomainError(f"a strategy is four outcomes of +1 or -1, got {outcomes!r}")
    s1, s2, p1, p2 = row
    return _signed_sum([s1 * p1, s1 * p2, s2 * p1, s2 * p2], negated_term)


def ensemble_s(weights, negated_term: int = 1) -> float:
    """CHSH sum of a mixture: the weighted mean of the rows' sums, with one
    weight per row of :data:`OUTCOME_TABLE`."""
    return float(np.dot(_check_weights(weights), _row_s(OUTCOME_TABLE, negated_term)))


def sample_ensemble_counts(weights, shots: int, seed: int) -> np.ndarray:
    """Simulated counting experiment on a mixture, one weight per row of
    :data:`OUTCOME_TABLE`, as a read-only ``(4, 4)`` int64 table
    ``counts[pair, channel]``: pairs (j, k) for (alpha_j, chi_k) in the
    order (0,0), (0,1), (1,0), (1,1); channels (spin, path) in the order
    (+1,+1), (+1,-1), (-1,+1), (-1,-1).

    Each pair is measured ``shots`` times, a row drawn per shot from the
    weights, so each table row sums to ``shots``. Per-pair substreams make
    the table independent of evaluation order: pair p's draws are
    ``substream(seed, 3, p).multinomial(shots, weights)``, from the Philox
    key (seed, 3) with the pair in counter word 1. Only pair 0's generator
    is built and its counter moved to each of pairs 1-3 in turn; Philox is
    counter-based, so the moved generator draws what a fresh one would. A
    vector with one nonzero weight puts every shot on its row without a draw.
    """
    w = _check_weights(weights)
    seed = check_seed(seed)
    shots = check_int(shots, "shots", 1, 2**63 - 1)  # multinomial takes an int64 count
    rows = np.flatnonzero(w)
    if len(rows) == 1:
        # multinomial(shots, one-hot) consumes no uniform and returns shots at the row.
        tallies = shots * _PAIR_HITS[:, rows[0]]
    else:
        w = w / w.sum()  # guard rounding; validated near 1 already
        pairs = [(pair,) for pair in range(len(_PAIRS))]
        streams = _counter_streams(substream(seed, _STREAM_LHV, 0), pairs)
        draws = np.array([stream.multinomial(shots, w) for stream in streams])
        # Integer tallies, one (1, 16) @ (16, 4) product per pair: exact up
        # to the int64 shot bound.
        tallies = (draws[:, None] @ _PAIR_HITS)[:, 0]
    tallies.setflags(write=False)
    return tallies


def empirical_s(counts, negated_term: int = 1) -> tuple[float, float]:
    """CHSH estimate and propagated sigma from a count table, using the same
    four-channel estimator as the quantum pipeline.

    ``counts`` is any 4x4 table of channel counts in the layout of
    :func:`sample_ensemble_counts`; its cells are read as objects, so Python
    ints stay exact. Any other shape is a :class:`DomainError`. A
    non-negative int64 table, as :func:`sample_ensemble_counts` returns, is
    checked once as a whole and read as Python ints, which is what the
    per-cell checks would pass on. The result equals the ``(s_value,
    sigma)`` of :func:`spinpath.analysis.s_prime` over the four
    :func:`spinpath.analysis.e_obs_from_counts` estimates, bit for bit: both
    go through the same two reductions."""
    shape = (len(_PAIRS), len(_CHANNELS))
    if (
        type(counts) is np.ndarray
        and counts.dtype == np.int64
        and counts.shape == shape
        and counts.min() >= 0
    ):
        rows, correlation = counts.tolist(), _counts_correlation
    else:
        try:
            got = (table := np.asarray(counts, dtype=object)).shape
        except (TypeError, ValueError):  # rows numpy cannot stack
            got = "ragged rows"
        if got != shape:
            raise DomainError(f"count table must have shape (4, 4), pairs by channels, got {got}")
        rows, correlation = table.tolist(), _correlation
    values, sigmas = zip(*(correlation(pp, mm, pm, mp) for pp, pm, mp, mm in rows))
    return _chsh(values, sigmas, negated_term)
