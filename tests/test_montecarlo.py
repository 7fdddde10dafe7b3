"""Seeded counting statistics: substreams, pinned Poisson sampler, CSV io."""

import itertools
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from spinpath import (
    ApparatusModel,
    CsvFormatError,
    DomainError,
    ScanPlan,
    ScanResult,
    Setting,
    noiseless_scan,
    predicted_rate,
    read_scan_csv,
    reference_apparatus,
    sample_full_experiment,
    sample_scan,
    split_repetitions,
    substream,
    write_scan_csv,
)
from spinpath.montecarlo import (
    CSV_HEADER,
    POISSON_MAX_MEAN,
    _counter_streams,
    _scan_rates,
    _standard_normal,
    check_seed,
    poisson,
)


def test_check_seed():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    for bad in (-1, 2**64, 1.5, "7", None, True):
        with pytest.raises(DomainError):
            check_seed(bad)


def test_substream_is_deterministic():
    a = substream(42, 0, 3, 1).random(5)
    b = substream(42, 0, 3, 1).random(5)
    assert np.array_equal(a, b)


def test_substream_keys_are_independent():
    a = substream(42, 0, 3, 1).random(5)
    b = substream(42, 0, 3, 2).random(5)
    c = substream(43, 0, 3, 1).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("bad", [-1, True, 1.5, "7", None])
def test_bad_substream_key_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="key parts"):
        substream(42, 0, bad)
    plan = ScanPlan(alpha=0.0, chi_values=(0.0, 1.0, 2.0, 3.0))
    with pytest.raises(DomainError, match="key parts"):
        sample_scan(reference_apparatus(10.0), plan, seed=42, scan_index=bad)


U64 = st.integers(0, 2**64 - 1)


def test_substream_parts_are_64_bit_words_and_kinds_stay_apart():
    # the seed and the kind are the two Philox key words; a cell's indices
    # fill counter words 1-3, and a shorter cell is padded with zeros
    for parts in [(2**64,), (0, 2**64), (0, 1, 2, 2**64), (0, 10**5000)]:
        with pytest.raises(DomainError, match=r"must not exceed 2\*\*64 - 1"):
            substream(1, *parts)
    with pytest.raises(DomainError, match="at most 3 indices, got 4"):
        substream(1, 0, 0, 0, 0, 0)
    top = 2**64 - 1
    state = substream(top, top, top, top, top).bit_generator.state["state"]
    assert (state["key"].tolist(), state["counter"].tolist()) == ([top] * 2, [0] + [top] * 3)
    assert substream(7, 0, 3, 2).bit_generator.state["state"]["counter"].tolist() == [0, 3, 2, 0]
    assert np.array_equal(substream(7, 0, 3).random(8), substream(7, 0, 3, 0, 0).random(8))
    assert not np.array_equal(substream(7, 0, 3, 2).random(8), substream(7, 1, 3, 2).random(8))


def test_rekeyed_generator_matches_fresh_substream():
    # a generator whose counter moves to another cell restarts there with an
    # empty buffer, even when the last draw left it in the middle of a block
    cells = [(0, 0, 0), (2**40, 7, 3), (5, 0, 0), (2**64 - 1, 2**64 - 1, 2**64 - 1), (0, 0, 0)]
    streams = _counter_streams(substream(1, 0, *cells[0]), cells)
    for cell, rng in zip(cells, streams, strict=True):
        assert np.array_equal(rng.random(9), substream(1, 0, *cell).random(9))
        assert rng.bit_generator.state["buffer_pos"] == 1


def test_poisson_validation_and_edges():
    rng = substream(1, 2)
    with pytest.raises(DomainError):
        poisson(rng, -1.0)
    with pytest.raises(DomainError):
        poisson(rng, math.inf)
    with pytest.raises(DomainError):
        poisson(rng, 5.0, size=-2)
    assert poisson(rng, 0.0) == 0
    assert isinstance(poisson(rng, 3.0), int)
    arr = poisson(rng, 3.0, size=10)
    assert arr.shape == (10,) and arr.dtype == np.int64


def test_poisson_mean_bound():
    # the bound keeps PTRS's acceptance test accurate to 1e-7 (see below) and
    # its draws inside int64; the scalar and the array draw refuse alike
    assert POISSON_MAX_MEAN == 1e7
    for bad in (3e7, 1e10, 1e12, 1e300, POISSON_MAX_MEAN * (1.0 + 1e-15)):
        for size in (None, 1):
            with pytest.raises(DomainError, match="must not exceed 1e\\+07"):
                poisson(substream(3, 2), bad, size=size)
    draws = poisson(substream(3, 2), POISSON_MAX_MEAN, size=2000)
    assert draws.dtype == np.int64 and draws.min() > 0
    spread = draws - POISSON_MAX_MEAN
    assert abs(spread.mean()) < 5.0 * math.sqrt(POISSON_MAX_MEAN / 2000)
    assert 0.85 < spread.var() / POISSON_MAX_MEAN < 1.15


def test_ptrs_acceptance_log_probability_is_accurate_at_the_bound():
    # PTRS accepts k when a log-uniform lies below log P(k) = -mean +
    # k log(mean) - lgamma(k + 1), computed in floats; its terms are of size
    # mean*log(mean) and cancel. Over +-6 sigma at the bound, on 2001 evenly
    # spaced k, the float value is within 1e-7 of the 50-digit value.
    mean = POISSON_MAX_MEAN
    spread = 6.0 * math.sqrt(mean)
    ks = np.unique(np.rint(np.linspace(mean - spread, mean + spread, 2001)).astype(np.int64))
    worst = 0.0
    with mpmath.workdps(50):
        log_mean = mpmath.log(mpmath.mpf(mean))
        for k in ks.tolist():
            value = -mean + k * math.log(mean) - math.lgamma(k + 1.0)
            exact = -mpmath.mpf(mean) + k * log_mean - mpmath.loggamma(k + 1)
            worst = max(worst, abs(float(mpmath.mpf(value) - exact)))
    assert worst < 1e-7


def test_poisson_moments_small_mean():
    # inverse-CDF branch
    rng = substream(5, 2)
    lam = 5.0
    n = 100_000
    draws = poisson(rng, lam, size=n)
    assert abs(draws.mean() - lam) < 4.0 * math.sqrt(lam / n)
    assert 0.95 < draws.var() / lam < 1.05


def test_poisson_moments_large_mean():
    # transformed-rejection branch
    rng = substream(6, 2)
    lam = 200.0
    n = 100_000
    draws = poisson(rng, lam, size=n)
    assert abs(draws.mean() - lam) < 4.0 * math.sqrt(lam / n)
    assert 0.95 < draws.var() / lam < 1.05


def test_poisson_tiny_mean_is_almost_surely_zero():
    rng = substream(8, 2)
    draws = poisson(rng, 1e-9, size=1_000_000)
    assert draws.mean() < 1e-6


def test_poisson_branch_boundary_moments():
    # means just around the algorithm switch at 30 stay unbiased
    for lam in (29.5, 30.5):
        rng = substream(9, 2)
        draws = poisson(rng, lam, size=50_000)
        assert abs(draws.mean() - lam) < 5.0 * math.sqrt(lam / 50_000)


def test_poisson_draws_are_frozen():
    # pinned sampler: these values must never change across releases
    rng = substream(7, 2)
    assert list(poisson(rng, 200.0, size=6)) == [194, 196, 217, 207, 190, 204]
    rng = substream(7, 2)
    assert list(poisson(rng, 5.0, size=6)) == [4, 4, 7, 6, 3, 5]


def _goodness_of_fit_p(draws: np.ndarray, mean: float) -> float:
    # Pearson's chi-square of the draws against Poisson(mean), over adjacent
    # values merged from below into bins that each expect at least 5 draws;
    # the outer bins take the tails.
    n = len(draws)
    sd = math.sqrt(mean)
    ks = np.arange(max(0, int(mean - 10.0 * sd - 10.0)), int(mean + 10.0 * sd + 10.0))
    expected = n * stats.poisson.pmf(ks, mean)
    expected[0] += n * stats.poisson.cdf(ks[0] - 1, mean)
    expected[-1] += n * stats.poisson.sf(ks[-1], mean)
    observed = np.bincount(np.clip(draws, ks[0], ks[-1]) - ks[0], minlength=len(ks))
    bins_o, bins_e = [0.0], [0.0]
    for o, e in zip(observed.tolist(), expected.tolist()):
        if bins_e[-1] >= 5.0:
            bins_o.append(0.0)
            bins_e.append(0.0)
        bins_o[-1] += o
        bins_e[-1] += e
    if bins_e[-1] < 5.0:  # the last bin joins the one below
        bins_o[-2:] = [sum(bins_o[-2:])]
        bins_e[-2:] = [sum(bins_e[-2:])]
    bins_o, bins_e = np.array(bins_o), np.array(bins_e)
    chi_square = float(((bins_o - bins_e) ** 2 / bins_e).sum())
    return float(stats.chi2.sf(chi_square, len(bins_e) - 1))


@pytest.mark.parametrize("index, mean", enumerate([5.0, 29.9, 30.0, 1e3, 1e6, POISSON_MAX_MEAN]))
def test_poisson_chi_square_goodness_of_fit(index, mean):
    # Both branches, on each side of the switch at 30 and at the bound, fit
    # Poisson(mean) over the whole distribution: p above 1e-3 on 20,000
    # fixed draws per mean (the streams are seeded, so p is too).
    draws = poisson(substream(2026, 3, index), mean, size=20_000)
    assert _goodness_of_fit_p(draws, mean) > 1e-3


PARITY_MEANS = (
    0.0, 1e-300, 1e-9, 0.3, 1.0, 4.5, 12.0, 20.0, 29.0, 29.999999,
    30.0, 30.5, 47.0, 100.0, 350.0, 2500.0, 1e5, 3e6, POISSON_MAX_MEAN,
)


@pytest.mark.parametrize("mean", PARITY_MEANS)
def test_scalar_draw_matches_size_one_array(mean):
    # the scalar fast path must return what the array path returns for one
    # draw from an equal stream, on both sides of the mean-30 switch
    for key in range(25):
        scalar = poisson(substream(2024, 4, key), mean)
        array = int(poisson(substream(2024, 4, key), mean, size=1)[0])
        assert type(scalar) is int
        assert scalar == array


class ScriptedGenerator:
    """Stand-in generator whose uniforms come from a fixed list."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self, n=None):
        if n is None:
            self.used += 1
            return self.values.pop(0)
        out = np.array(self.values[:n])
        del self.values[:n]
        self.used += n
        return out


@pytest.mark.parametrize(
    "mean, uniforms, expected",
    [
        # PTRS: u = 0 gives us == 0; the round is rejected and the next
        # (u, v) pair is accepted on the fast path
        (100.0, [0.0, 0.5, 0.6, 0.1], 103),
        # inverse CDF: the float CDF levels off below 1 - 2**-53, so the
        # search stops at its cap, int(mean + 60 sqrt(mean) + 60)
        (10.0, [1.0 - 2.0**-53], 259),
        # PTRS: v = 0 leaves k undecided by the fast tests; log(0) = -inf
        # accepts it in the squeeze test
        (100.0, [0.05, 0.0], 77),
    ],
    ids=["ptrs_us_zero", "inverse_cap", "ptrs_v_zero"],
)
def test_scalar_and_array_forms_agree_on_edge_uniforms(mean, uniforms, expected):
    scalar_rng = ScriptedGenerator(uniforms)
    array_rng = ScriptedGenerator(uniforms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = poisson(scalar_rng, mean)
        array = poisson(array_rng, mean, size=1)
    assert scalar == int(array[0])
    assert scalar_rng.used == array_rng.used == len(uniforms)
    assert scalar == expected


def test_sample_scan_counts_are_frozen():
    model = reference_apparatus(100.0)
    plan = ScanPlan(alpha=0.0, chi_values=(0.0, math.pi / 2.0, math.pi, 1.5 * math.pi), exposures=2)
    scan = sample_scan(model, plan, seed=123)
    assert scan.counts.dtype == np.int64
    assert scan.counts.tolist() == [[24, 96, 185, 106], [17, 97, 178, 101]]


class ReferenceCellStream:
    """Cell c's uniforms, counted, from fresh substreams alone: doubles
    4c..4c+3 of ``substream(seed, 0, scan)``, then its overflow lane
    ``substream(seed, 0, scan, c + 1)``."""

    def __init__(self, seed, scan_index, cell):
        self.first = substream(seed, 0, scan_index).random(4 * cell + 4)[4 * cell :].tolist()
        self.lane = substream(seed, 0, scan_index, cell + 1)
        self.used = 0

    def random(self):
        self.used += 1
        return self.first[self.used - 1] if self.used <= 4 else self.lane.random()


def reference_draws(model, plan, seed, scan_index):
    """The (count, uniforms read, mean) of every cell of a scan, in cell
    order c = rep * chi points + ci, each drawn on its own ReferenceCellStream;
    repetition r's drift reads doubles 2r and 2r + 1 of ``substream(seed, 1,
    scan)``."""
    drift_uniforms = substream(seed, 1, scan_index).random(2 * plan.exposures).tolist()
    draws = []
    for rep in range(plan.exposures):
        drift = model.drift_sigma * _standard_normal(*drift_uniforms[2 * rep : 2 * rep + 2])
        for ci, chi in enumerate(plan.chi_values):
            lam = predicted_rate(model, Setting(plan.alpha, chi + drift))
            stream = ReferenceCellStream(seed, scan_index, len(draws))
            draws.append((poisson(stream, lam), stream.used, lam))
    return draws


GRID_4 = (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)
GRID_32 = tuple(2.0 * math.pi * k / 32 for k in range(32))
DRIFTING = replace(reference_apparatus(100.0), drift_sigma=0.3)


REGENERATED_SCANS = [
    (reference_apparatus(100.0), ScanPlan(0.0, GRID_4, 16)),
    (DRIFTING, ScanPlan(math.pi / 2.0, GRID_32, 3)),
    (reference_apparatus(100.0), ScanPlan(0.0, GRID_32, 16)),
    (DRIFTING, ScanPlan(math.pi / 2.0, GRID_32, 8)),
    (reference_apparatus(30.0), ScanPlan(math.pi, GRID_32, 16)),
]


def test_sample_scan_record_regenerates_in_isolation():
    # any (point, repetition) count is reproducible from substreams alone,
    # with and without drift, in scans of 64 to 512 cells
    rates = []
    most_uniforms = 0
    for model, plan in REGENERATED_SCANS:
        # the smallest and largest key and counter words, and others
        for seed, scan_index in itertools.product((0, 123, 2**64 - 1), (5, 2**64 - 1)):
            scan = sample_scan(model, plan, seed=seed, scan_index=scan_index)
            assert scan.repetitions == tuple(range(plan.exposures))
            draws = reference_draws(model, plan, seed, scan_index)
            assert scan.counts.ravel().tolist() == [count for count, _, _ in draws]
            rates += [lam for _, _, lam in draws]
            most_uniforms = max(most_uniforms, *(used for _, used, _ in draws))
    # both samplers ran, and some draw went past its cell's first block
    assert min(rates) < 30.0 <= max(rates)
    assert most_uniforms > 4


@settings(max_examples=50)
@given(
    seed=U64,
    scan_index=U64,
    chi_points=st.integers(1, 40),
    exposures=st.integers(1, 8),
    mean_rate=st.sampled_from([20.0, 100.0]),
    drift_sigma=st.sampled_from([0.0, 0.3]),
)
@example(seed=0, scan_index=0, chi_points=1, exposures=1, mean_rate=20.0, drift_sigma=0.0)
@example(
    seed=2**64 - 1, scan_index=2**64 - 1, chi_points=40, exposures=8, mean_rate=100.0, drift_sigma=0.3
)
@example(seed=0, scan_index=2**64 - 1, chi_points=32, exposures=4, mean_rate=20.0, drift_sigma=0.3)
@example(seed=2**64 - 1, scan_index=0, chi_points=16, exposures=8, mean_rate=100.0, drift_sigma=0.0)
def test_sample_scan_counts_equal_draws_from_reference_substreams(
    seed, scan_index, chi_points, exposures, mean_rate, drift_sigma
):
    # one sampling path for every scan size: 1 to 320 cells, on both sides
    # of 128, where an earlier layout switched between two paths
    model = replace(reference_apparatus(mean_rate), drift_sigma=drift_sigma)
    plan = ScanPlan(1.0, tuple(0.3 * k for k in range(chi_points)), exposures)
    counts = sample_scan(model, plan, seed=seed, scan_index=scan_index).counts
    draws = reference_draws(model, plan, seed, scan_index)
    assert counts.ravel().tolist() == [count for count, _, _ in draws]


def test_sample_scan_rejects_bad_seed():
    model = reference_apparatus(10.0)
    plan = ScanPlan(alpha=0.0, chi_values=(0.0, 1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        sample_scan(model, plan, seed=-1)


def test_full_experiment_shape_and_streams():
    model = reference_apparatus(20.0)
    chis = tuple(2.0 * math.pi * i / 32 for i in range(32))
    alphas = (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)
    scans = sample_full_experiment(model, alphas, chis, exposures=16, seed=4)
    assert len(scans) == 4
    for scan, alpha in zip(scans, alphas):
        assert abs(scan.plan.alpha - alpha) < 1e-12
        assert scan.counts.shape == (16, 32)
    # scans at different alphas use different substreams even where the
    # predicted rates coincide
    assert not np.array_equal(scans[1].counts, scans[2].counts)


def test_full_experiment_reads_chi_values_once():
    # A one-shot iterator of chi values gives every alpha the whole grid, as
    # the tuple does; it was used up by the first plan.
    model = reference_apparatus(20.0)
    grid = tuple(2.0 * math.pi * i / 8 for i in range(8))
    alphas = (0.0, 1.0, 2.0)
    from_tuple = sample_full_experiment(model, alphas, grid, 2, 3)
    from_iterator = sample_full_experiment(model, alphas, (chi for chi in grid), 2, 3)
    assert len(from_iterator) == len(from_tuple) == 3
    for got, want in zip(from_iterator, from_tuple):
        assert got.plan == want.plan and got.plan.chi_values == grid
        assert np.array_equal(got.counts, want.counts)


def test_repetitions_are_uncorrelated():
    model = reference_apparatus(50.0)
    plan = ScanPlan(alpha=0.0, chi_values=(0.3,), exposures=10_000)
    counts = sample_scan(model, plan, seed=77).counts[:, 0]
    x = counts - counts.mean()
    lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(lag1) < 0.02


def test_phase_drift_changes_counts_deterministically():
    plan = ScanPlan(alpha=0.0, chi_values=(0.0, 1.0, 2.0, 3.0), exposures=4)
    stable = ApparatusModel(mean_rate=500.0, default_visibility=0.73)
    drifting = ApparatusModel(mean_rate=500.0, default_visibility=0.73, drift_sigma=0.5)
    a = sample_scan(stable, plan, seed=9).counts
    b = sample_scan(drifting, plan, seed=9).counts
    b2 = sample_scan(drifting, plan, seed=9).counts
    assert not np.array_equal(a, b)
    assert np.array_equal(b, b2)


def test_noiseless_scan_matches_rates():
    model = reference_apparatus(40.0)
    plan = ScanPlan(alpha=math.pi / 2.0, chi_values=(0.0, 0.7, 1.9, 4.1), exposures=2)
    scan = noiseless_scan(model, plan)
    assert scan.seed is None
    assert scan.counts.dtype == np.float64 and scan.counts.shape == (2, 4)
    for row in scan.counts:
        for chi, counts in zip(plan.chi_values, row):
            assert counts == predicted_rate(model, Setting(plan.alpha, chi))


def test_split_repetitions_preserves_indices_and_counts():
    model = reference_apparatus(30.0)
    plan = ScanPlan(alpha=0.0, chi_values=(0.0, 1.0, 2.0, 3.0), exposures=5)
    scan = sample_scan(model, plan, seed=13)
    parts = split_repetitions(scan)
    assert len(parts) == 5
    for rep, part in enumerate(parts):
        assert part.plan.exposures == 1
        assert part.plan.chi_values == plan.chi_values
        assert part.repetitions == (rep,)
        assert part.counts.tolist() == [scan.counts[rep].tolist()]


def test_csv_round_trip_is_exact(tmp_path):
    model = reference_apparatus(25.0)
    plan = ScanPlan(alpha=0.79 * math.pi, chi_values=tuple(0.1 + 0.5 * i for i in range(8)), exposures=3)
    scan = sample_scan(model, plan, seed=201)
    path = tmp_path / "scan.csv"
    write_scan_csv(scan, path)
    back = read_scan_csv(path)
    assert back.plan.chi_values == scan.plan.chi_values
    assert abs(back.plan.alpha - scan.plan.alpha) < 1e-16
    assert back.plan.exposures == scan.plan.exposures
    assert back.repetitions == scan.repetitions
    assert back.counts.dtype == np.int64
    assert np.array_equal(back.counts, scan.counts)
    # rewriting the parsed scan is byte-identical
    path2 = tmp_path / "scan2.csv"
    write_scan_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_round_trip_noiseless_floats(tmp_path):
    model = reference_apparatus(40.0)
    plan = ScanPlan(alpha=0.0, chi_values=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    scan = noiseless_scan(model, plan)
    path = tmp_path / "ref.csv"
    write_scan_csv(scan, path)
    back = read_scan_csv(path)
    assert back.counts.dtype == np.float64
    assert back.counts.tolist() == scan.counts.tolist()


def test_csv_rows_in_any_order(tmp_path):
    # rows fill the grid by (chi, repetition) cell, wherever they stand;
    # repetition labels are kept and sorted
    path = tmp_path / "shuffled.csv"
    rows = [CSV_HEADER, "0,1,7,4", "0,0,3,1", "0,0,7,3", "0,1,3,2"]
    path.write_text("\n".join(rows) + "\n")
    scan = read_scan_csv(path)
    assert scan.plan.chi_values == (1.0, 0.0)
    assert scan.repetitions == (3, 7)
    assert scan.counts.tolist() == [[2, 1], [4, 3]]
    assert [part.repetitions for part in split_repetitions(scan)] == [(3,), (7,)]


def test_csv_header_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,chi,rep,counts\n0,0,0,1\n")
    with pytest.raises(CsvFormatError) as err:
        read_scan_csv(path)
    assert err.value.line_number == 1


def test_csv_bad_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n0.0,0.0,0\n")
    with pytest.raises(CsvFormatError) as err:
        read_scan_csv(path)
    assert err.value.line_number == 2


def test_csv_negative_counts(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [CSV_HEADER, "0.0,0.0,0,5", "0.0,1.0,0,-3"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_scan_csv(path)
    assert err.value.line_number == 3
    assert "-3" in str(err.value)


def test_csv_non_numeric_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n0.0,zero,0,5\n")
    with pytest.raises(CsvFormatError) as err:
        read_scan_csv(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("row", ["0.0,nan,0,5", "inf,0.0,0,5", "0.0,0.0,0,nan"])
def test_csv_non_finite_field(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + row + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_scan_csv(path)
    assert err.value.line_number == 2


def test_csv_mixed_alpha_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [CSV_HEADER, "0.0,0.0,0,5", "1.0,1.0,0,5"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_scan_csv(path)
    assert "single alpha" in str(err.value)


@pytest.mark.parametrize(
    "rows, line_number",
    [
        (["0.0,0.0,0,5", "0.0,1.0,0,5", "0.0,0.0,1,5"], None),
        # as many rows as the grid has cells, but one cell twice
        (["0,0,0,5", "0,1,0,6", "0,0,1,7", "0,0,1,8"], 5),
    ],
    ids=["missing_row", "duplicate_row"],
)
def test_csv_incomplete_grid_rejected(tmp_path, rows, line_number):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_scan_csv(path)
    assert err.value.line_number == line_number


@pytest.mark.parametrize("count", ["9007199254740992", "9007199254740993", "1e16", "9.1e15"])
def test_csv_counts_from_two_to_the_53_are_rejected(tmp_path, count):
    # from 2**53 on, not every integer is a float, so a count could read back
    # as a neighbouring integer
    path = tmp_path / "big.csv"
    path.write_text("\n".join([CSV_HEADER, "0,0,0,1", f"0,1,0,{count}"]) + "\n")
    with pytest.raises(CsvFormatError, match="2\\*\\*53") as err:
        read_scan_csv(path)
    assert err.value.line_number == 3
    assert count in str(err.value)


def test_csv_largest_exact_count_reads_back(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("\n".join([CSV_HEADER, "0,0,0,9007199254740991", "0,1,0,0"]) + "\n")
    scan = read_scan_csv(path)
    assert scan.counts.dtype == np.int64
    assert scan.counts.tolist() == [[2**53 - 1, 0]]


def test_csv_empty_data_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(CsvFormatError):
        read_scan_csv(path)


def test_scan_result_validation():
    plan = ScanPlan(alpha=0.0, chi_values=(0.0, 1.0), exposures=2)
    scan = ScanResult(plan, [[1, 2], [3, 4]])
    assert scan.repetitions == (0, 1)
    assert scan.counts.dtype == np.int64
    assert not scan.counts.flags.writeable
    assert ScanResult(plan, [[1.5, 2], [3, 4]]).counts.dtype == np.float64
    for bad in ([[1, 2], [3, -4]], [[1, 2], [3, math.inf]], [[1, 2, 3], [4, 5, 6]], [1, 2, 3, 4]):
        with pytest.raises(DomainError):
            ScanResult(plan, bad)
    for labels in ((0,), (0, 0), (0, -1), (0, 1.0)):
        with pytest.raises(DomainError):
            ScanResult(plan, [[1, 2], [3, 4]], repetitions=labels)
    with pytest.raises(DomainError):
        ScanPlan(alpha=math.inf, chi_values=(0.0, 1.0))


@pytest.mark.parametrize("count", [2**53, 2**70, float(2**53), float(2**70)], ids=repr)
def test_scan_counts_from_two_to_the_53_are_refused(count):
    # the bound read_scan_csv enforces holds for every scan, so whatever
    # write_scan_csv writes reads back
    with pytest.raises(DomainError, match="2\\*\\*53"):
        ScanResult(ScanPlan(0.0, (0.0, 1.0, 2.0, 3.0)), [[1, 2, 3, count]])


def test_scan_count_checks_keep_their_messages():
    plan = ScanPlan(0.0, (0.0, 1.0))
    for bad in ([[1, math.nan]], [[1, -1]], [[1, -math.inf]], [[1, math.inf]]):
        with pytest.raises(DomainError, match="^counts must be finite and non-negative$"):
            ScanResult(plan, bad)


@pytest.mark.parametrize("count", [2**53 - 1, float(2**53 - 1)], ids=repr)
def test_largest_exact_scan_count_is_written_and_read_back(tmp_path, count):
    scan = ScanResult(ScanPlan(0.0, (0.0, 1.0, 2.0, 3.0)), [[1, 2, 3, count]])
    write_scan_csv(scan, tmp_path / "big.csv")
    back = read_scan_csv(tmp_path / "big.csv")
    assert back.counts.tolist() == [[1, 2, 3, 2**53 - 1]]
    assert back.plan == scan.plan


def test_noiseless_scan_refuses_rates_from_two_to_the_53():
    plan = ScanPlan(0.0, (0.0, 1.0, 2.0, 3.0))
    with pytest.raises(DomainError, match="2\\*\\*53"):
        noiseless_scan(ApparatusModel(2.0**53, default_visibility=0.5), plan)


CHI_VALUES = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False)
    | st.sampled_from([0.0, -0.0, math.nextafter(2.0 * math.pi, 0.0), 2.0 * math.pi, -math.pi]),
    min_size=1,
    max_size=8,
)


def _hex(settings):
    return [(s.alpha.hex(), s.chi.hex()) for s in settings]


@given(alpha=st.floats(-1e6, 1e6) | st.just(-0.0), chis=CHI_VALUES)
def test_plan_settings_equal_fresh_settings(alpha, chis):
    plan = ScanPlan(alpha, tuple(chis), 2)
    settings = plan._settings
    assert _hex(settings) == _hex(Setting(plan.alpha, chi) for chi in plan.chi_values)
    # the settings an undrifted scan built before they were kept with the plan
    assert _hex(settings) == _hex(Setting(plan.alpha, chi + 0.0) for chi in plan.chi_values)
    assert plan._settings is settings
    # kept outside the fields: equality and hash see only alpha, chi values
    # and exposures
    twin = ScanPlan(alpha, tuple(chis), 2)
    assert twin == plan and hash(twin) == hash(plan)
    moved = replace(plan, chi_values=tuple(chi + 1.0 for chi in chis))
    assert moved._settings is not settings
    assert _hex(moved._settings) == _hex(Setting(moved.alpha, chi) for chi in moved.chi_values)


@given(chis=CHI_VALUES, drift=st.sampled_from([0.0, -0.0, 0.3, -1e-300]) | st.floats(-3.0, 3.0))
def test_scan_rates_equal_rates_of_fresh_settings(chis, drift):
    model = reference_apparatus(1e5)
    plan = ScanPlan(math.pi / 2.0, tuple(chis))
    expected = [predicted_rate(model, Setting(plan.alpha, chi + drift)) for chi in plan.chi_values]
    assert [r.hex() for r in _scan_rates(model, plan, drift)] == [r.hex() for r in expected]
