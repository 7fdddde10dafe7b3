"""Seeded counting statistics: substreams, pinned Poisson sampler, CSV io."""

import math
import warnings

import numpy as np
import pytest

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
from spinpath.montecarlo import CSV_HEADER, POISSON_MAX_MEAN, check_seed, poisson


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
    # the bound keeps draws inside int64 instead of letting PTRS wrap around
    for bad in (1e300, POISSON_MAX_MEAN * (1.0 + 1e-15)):
        with pytest.raises(DomainError, match="1e\\+12"):
            poisson(substream(3, 2), bad)
    draws = poisson(substream(3, 2), POISSON_MAX_MEAN, size=2000)
    assert draws.dtype == np.int64 and draws.min() > 0
    spread = draws - POISSON_MAX_MEAN
    assert abs(spread.mean()) < 5.0 * math.sqrt(POISSON_MAX_MEAN / 2000)
    assert 0.85 < spread.var() / POISSON_MAX_MEAN < 1.15


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
    assert list(poisson(rng, 200.0, size=6)) == [201, 189, 224, 188, 196, 189]
    rng = substream(7, 2)
    assert list(poisson(rng, 5.0, size=6)) == [1, 4, 8, 3, 4, 3]


PARITY_MEANS = (
    0.0, 1e-300, 1e-9, 0.3, 1.0, 4.5, 12.0, 20.0, 29.0, 29.999999,
    30.0, 30.5, 47.0, 100.0, 350.0, 2500.0, 1e5, 3e7, 1e10, POISSON_MAX_MEAN,
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
    assert scan.counts.tolist() == [[26, 97, 168, 102], [18, 90, 190, 93]]


def test_sample_scan_record_regenerates_in_isolation():
    # any (point, repetition) count is reproducible from its substream alone
    model = reference_apparatus(100.0)
    chis = (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)
    plan = ScanPlan(alpha=0.0, chi_values=chis, exposures=3)
    scan = sample_scan(model, plan, seed=123, scan_index=5)
    assert scan.repetitions == (0, 1, 2)
    for rep in scan.repetitions:
        for ci, chi in enumerate(chis):
            lam = predicted_rate(model, Setting(plan.alpha, chi))
            rng = substream(123, 0, 5, ci, rep)
            assert poisson(rng, lam) == scan.counts[rep, ci]


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
