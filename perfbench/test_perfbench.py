"""Tests of the benchmark itself: every workload runs and passes its checks
at the size the benchmark measures, every named metric is printed with its
unit, corrupted output is counted as failed, tracing leaves the artifacts
unchanged and every hooked layer is reached.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker

worker.import_spinpath()

import spinpath  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


SEED = 3

# Spans one op of each workload must record at SEED; together they cover
# every reported layer, so a hook on a name the program no longer calls
# cannot leave a layer reading 0 unnoticed.
REACHED = {
    "reproduce": {
        "montecarlo.substream", "montecarlo.poisson_inverse", "montecarlo.poisson_ptrs",
        "apparatus.predicted_rate", "montecarlo.sample_scan", "montecarlo.write_scan_csv",
        "montecarlo.split_repetitions", "analysis.fit_rate_curve", "analysis.fit_sinusoid",
        "analysis.e_obs_from_fits", "analysis.weighted_average", "analysis.s_prime",
        "report.write_json", "pipeline.reproduce_pipeline",
    },
    "threshold": {
        "montecarlo.substream", "montecarlo.poisson_ptrs", "apparatus.predicted_rate",
        "montecarlo.sample_scan", "analysis.fit_rate_curve", "report.write_json",
        "pipeline.run_threshold",
    },
    "refit": {
        "cli.main", "montecarlo.read_scan_csv", "report.render_json", "analysis.fit_rate_curve",
        "analysis.fit_sinusoid", "report.write_json", "pipeline.run_fit", "pipeline.run_chsh",
    },
    "oracle": {
        "lhv.enumerate_strategies", "lhv.strategy_s", "lhv.sample_ensemble_counts",
        "lhv.empirical_s", "states.expectation", "report.write_json", "pipeline.run_lhv",
    },
}


@pytest.fixture(scope="module")
def refit_workload(tmp_path_factory):
    """The refit scan CSVs take a few seconds to make; make them once."""
    workload = workloads.Refit(SEED, tmp_path_factory.mktemp("refit"))
    workload.prepare()
    return workload


def full_size(name: str, request, tmp_path: Path):
    if name == "refit":
        return request.getfixturevalue("refit_workload")
    return workloads.WORKLOADS[name](SEED, tmp_path / "fixture")


def test_benchmark_json_names_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_smoke_run_passes_checks_and_is_deterministic(name, request, tmp_path):
    workload = full_size(name, request, tmp_path)
    first, problems = worker.digest_op(workload, 0, tmp_path / "a")
    assert problems == []
    stats = worker.measure_loop(workload, 0.0, tmp_path / "ops")
    assert stats["attempted"] == worker.MIN_OPS
    assert stats["failed"] == 0, stats["problems"]
    assert len(stats["cals"]) == stats["attempted"] + 1
    again, _ = worker.digest_op(workload, 0, tmp_path / "b")
    assert again == first


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_artifacts_are_byte_identical(name, request, tmp_path):
    workload = full_size(name, request, tmp_path)
    untraced, _ = worker.digest_op(workload, 0, tmp_path / "a")
    tracer = tracing.Tracer()
    originals = {(m, a): getattr(getattr(spinpath, m), a, None) for m, a, _, _ in tracing.HOOKS}
    tracer.install(spinpath)
    try:
        traced, problems = worker.digest_op(workload, 0, tmp_path / "b", tracer)
    finally:
        tracer.uninstall()
    assert problems == []
    assert traced == untraced
    assert tracer.missing == []
    for (module, attr), original in originals.items():
        assert getattr(getattr(spinpath, module), attr, None) is original
    layers = tracer.self_times()
    assert layers[tracing.OP_SPAN][0] == 1
    op_span = 0
    total_ns = tracer.end_col[op_span] - tracer.start_col[op_span]
    assert sum(self_ns for _, self_ns, _ in layers.values()) == total_ns
    assert REACHED[name] - {span for span, (calls, _, _) in layers.items() if calls > 0} == set()


def test_reached_layers_cover_every_reported_layer():
    reached = set().union(*REACHED.values())
    assert {span for span, _ in run.LAYERS} | set(tracing.PIPELINE_SPANS) <= reached


def test_corrupted_output_counts_as_failed(tmp_path):
    class CorruptThreshold(workloads.Threshold):
        def op(self, index, out):
            report = super().op(index, out)
            report["rows"][index % len(report["rows"])]["s_analytic"] += 1e-6
            return report

    stats = worker.measure_loop(CorruptThreshold(1, tmp_path), 0.0, tmp_path / "ops")
    assert stats["failed"] == stats["attempted"] == worker.MIN_OPS


def test_exception_counts_as_failed(tmp_path):
    class Broken(workloads.Oracle):
        def op(self, index, out):
            if index % 2:
                raise RuntimeError("boom")
            return super().op(index, out)

    stats = worker.measure_loop(Broken(1, tmp_path), 0.0, tmp_path / "ops")
    assert stats["failed"] == 3
    assert "boom" in stats["problems"][0]


def test_reproduce_check_catches_an_inconsistent_summary(tmp_path):
    workload = workloads.Reproduce(2, tmp_path)
    out = tmp_path / "out"
    summary = workload.op(0, out)
    assert workload.check(0, out, summary) == []
    summary["s_prime"]["sigma_total"] *= 1.001
    (out / "chsh.json").unlink()
    problems = workload.check(0, out, summary)
    assert any("sigma_total" in p for p in problems)
    assert any("chsh.json" in p for p in problems)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 201)]
    assert run.tail_percentile(values) == (180.0, 90.0)
    value, used = run.tail_percentile(values[:40])
    assert value == 30.0 and used == 75.0


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "threshold",
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float)
        assert any(ln.startswith(f"# {name} = ") and ln.endswith(metric["unit"]) for ln in lines)
    assert any(ln.startswith("# failed_ratio = 0 ratio") for ln in lines)
    assert any(ln.startswith("# env ") for ln in lines)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
