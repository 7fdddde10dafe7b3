"""spinpath benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; spinpath is imported from its
``src`` directory. Workloads (see ``workloads.py`` for why each exists):
reproduce, threshold, refit, oracle.

Load model: a batch tool, so each workload is a closed loop with one client
in one process and one thread (BLAS/OpenMP thread variables set to 1), ops
back to back. Every op's output is checked; exceptions and failed checks are
counted. Op 0 of the seed is the warm-up and is run again after the loop;
its artifact digest must not change, across processes either.

``--trace 0`` prints the end-to-end metrics: set-up time (median of several
fresh interpreters that import spinpath and run one warm-up op), op wall
time p50 and p90, throughput, CPU seconds per op and peak RSS.
``--trace 1`` runs untraced and traced ops alternately in one process and
prints per-layer counts and self times per traced op, plus the tracing
overhead; spans go to ``.bench_out/``.

Times are scaled to a reference core speed. On a shared host the speed of a
core changes by up to 2x within seconds (a busy neighbour on the same
physical core), and op wall and CPU time follow it. A fixed calibration
kernel (``worker.calibration_kernel``) runs between ops; each op's wall and
CPU time is multiplied by ``CALIBRATION_REF_S`` over the mean kernel time
around it, and each set-up time by ``CALIBRATION_REF_S`` over the kernel time
right after it. The unscaled figures are printed as ``#`` lines.

The failed-op ratio is always 0 on correct code, so it is printed as a ``#``
line rather than as a metric (a relative bound on 0 is meaningless); the
result line carries the same counts as ``attempted`` and ``failed``.

Informational lines start with ``#``; the last line of stdout is the result
as one JSON object. The exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import OP_SPAN, PIPELINE_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reproduce", "threshold", "refit", "oracle")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every process of one run ends within this
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
# Nominal time of worker.calibration_kernel on a quiet core of the host the
# benchmark was defined on (Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.007

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

# (span name, fields reported per traced op)
LAYERS = (
    ("montecarlo.substream", ("calls", "s")),
    ("montecarlo.poisson_inverse", ("calls", "s")),
    ("montecarlo.poisson_ptrs", ("calls", "s")),
    ("apparatus.predicted_rate", ("calls", "s")),
    ("montecarlo.sample_scan", ("s",)),
    ("montecarlo.write_scan_csv", ("s", "bytes")),
    ("montecarlo.split_repetitions", ("s",)),
    ("montecarlo.read_scan_csv", ("s", "bytes")),
    ("cli.main", ("s",)),
    ("report.render_json", ("s",)),
    ("analysis.fit_rate_curve", ("calls", "s")),
    ("analysis.fit_sinusoid", ("s",)),
    ("analysis.e_obs_from_fits", ("calls", "s")),
    ("analysis.weighted_average", ("s",)),
    ("analysis.s_prime", ("s",)),
    ("report.write_json", ("calls", "s", "bytes")),
    ("lhv.enumerate_strategies", ("s",)),
    ("lhv.strategy_s", ("calls", "s")),
    ("lhv.sample_ensemble_counts", ("s",)),
    ("lhv.empirical_s", ("s",)),
    ("states.expectation", ("calls", "s")),
)
FIELD_UNITS = {"calls": "count", "s": "s", "bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{field}": FIELD_UNITS[field] for span, fields in LAYERS for field in fields
    }
    units.update({"pipeline.self_s": "s", "op.self_s": "s", "trace.overhead_ratio": "ratio"})
    return units


class BenchError(Exception):
    pass


def tail_percentile(values: list[float], q: float = 0.9) -> tuple[float, float]:
    """The ``q`` quantile (nearest rank), or the highest rank that still has
    ``TAIL_BEYOND`` samples beyond it. Returns (value, percentile used)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(q * n) - 1, n - 1 - TAIL_BEYOND)
    rank = max(rank, n // 2)  # never below the median
    return ordered[rank], 100.0 * (rank + 1) / n


class Worker:
    """One worker process; it is killed if the run's deadline passes."""

    def __init__(self, mode: str, args, work: Path, deadline: float):
        command = [
            sys.executable, str(HERE / "worker.py"),
            mode, args.workload, str(args.seed), str(args.seconds), str(work),
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        try:
            return json.loads(line)
        except ValueError:
            self.close()
            raise BenchError(
                f"worker exited with status {self.proc.returncode} before reporting"
            ) from None

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def finish(self) -> None:
        self.proc.wait()
        self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with status {self.proc.returncode}")


def run_worker(mode: str, args, work: Path, deadline: float, workers: list) -> dict:
    """Run one worker to completion and return its last message. For modes
    that warm up, that message also holds the ready message (``ready``) and
    the seconds from starting the process to it (``setup_s``)."""
    worker = Worker(mode, args, work, deadline)
    workers.append(worker)
    message = worker.read()
    if message["event"] == "ready":
        ready, setup_s = message, time.perf_counter() - worker.started
        message = worker.read()
        message.update(ready=ready, setup_s=setup_s)
    worker.finish()
    return message


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def adjusted_ops(result: dict, traced: bool = False) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of the completed (un)traced ops, each scaled to
    the reference core speed: multiplied by ``CALIBRATION_REF_S`` over the
    mean of the calibration times from two ops before to two ops after it.
    The core's speed can switch several times within one op, so one kernel
    run next to the op estimates it less well than six around it."""
    walls, cpus = [], []
    cals = result["cals"]
    for i, (wall, cpu, was_traced) in enumerate(result["ops"]):
        if wall is None or was_traced != traced:
            continue
        scale = CALIBRATION_REF_S / statistics.fmean(cals[max(i - 2, 0) : i + 4])
        walls.append(wall * scale)
        cpus.append(cpu * scale)
    return walls, cpus


def end_to_end(samples: list[dict], result: dict) -> tuple[dict, list[str]]:
    walls, cpus = adjusted_ops(result)
    raw = [wall for wall, _, _ in result["ops"] if wall is not None]
    p90, used = tail_percentile(walls)
    metrics = {
        "setup_s": statistics.median(m["setup_s"] * CALIBRATION_REF_S / m["cal"] for m in samples),
        "op_s_p50": statistics.median(walls),
        "op_s_p90": p90,
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s_per_op": sum(cpus) / len(cpus),
        "peak_rss_mb": result["max_rss_kb"] / 1024.0,
    }
    notes = [
        f"op_s_p90 is the p{used:.1f} of {len(walls)} timed ops "
        f"(highest rank up to p90 with {TAIL_BEYOND} ops beyond it)",
        f"op times are scaled to a calibration time of {CALIBRATION_REF_S} s; measured "
        f"calibration median {statistics.median(result['cals']):.6f} s, "
        f"unscaled op wall p50 {statistics.median(raw):.6f} s, "
        f"p{used:.1f} {tail_percentile(raw)[0]:.6f} s",
        f"setup_s is the scaled median of {len(samples)} fresh interpreters; unscaled: "
        + ", ".join(f"{m['setup_s']:.4f}" for m in samples),
    ]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    layers = result["layers"]
    ops = result["traced_ops"]
    units = per_layer_units()
    values = {}
    for span, fields in LAYERS:
        calls, self_ns, nbytes = layers.get(span, (0, 0, 0))
        per_field = {"calls": calls / ops, "s": self_ns / 1e9 / ops, "bytes": nbytes / ops}
        for field in fields:
            values[f"{span}.{field}"] = per_field[field]
    values["pipeline.self_s"] = sum(layers.get(s, (0, 0, 0))[1] for s in PIPELINE_SPANS) / 1e9 / ops
    values["op.self_s"] = layers.get(OP_SPAN, (0, 0, 0))[1] / 1e9 / ops
    untraced, _ = adjusted_ops(result)
    traced, _ = adjusted_ops(result, traced=True)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    notes = [
        f"per-layer values are per op, over {ops} traced ops (self times unscaled); "
        f"spans in {result['trace_file']}",
        f"trace.overhead_ratio compares {len(traced)} traced with {len(untraced)} "
        "alternating untraced ops",
    ]
    if result["missing_hooks"]:
        notes.append("hooks not found (their layers read 0): " + ", ".join(result["missing_hooks"]))
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, notes


def run(args) -> dict:
    if not (ROOT / "src" / "spinpath" / "__init__.py").is_file():
        raise BenchError(f"no spinpath sources under {ROOT / 'src'}")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **host_info()}
    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    workers: list[Worker] = []
    try:
        work.mkdir(parents=True)
        prepared = run_worker("prepare", args, work, deadline, workers)
        info.update(prepared["env"])
        print("# env " + json.dumps(info), flush=True)
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(run_worker("setup", args, work, deadline, workers))
        result = run_worker("trace" if args.trace else "measure", args, work, deadline, workers)
        samples.append(result)
    finally:
        for worker in workers:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if not any(wall is not None for wall, _, _ in result["ops"]):
        raise BenchError("no op completed")

    # Every process ran op 0 once: all of its artifact digests must agree.
    readies = [m["ready"] for m in samples]
    digests = {r["digest"] for r in readies} | {result["repeat_digest"]}
    problems = [p for r in readies for p in r["problems"]] + result["problems"]
    problems += result["repeat_problems"]
    attempted = len(readies) + result["attempted"] + 1
    failed = sum(bool(r["problems"]) for r in readies) + result["failed"]
    failed += bool(result["repeat_problems"])
    if args.trace:
        digests.add(result["traced_digest"])
        problems += result["traced_problems"]
        attempted += 1
        failed += bool(result["traced_problems"])
    if len(digests) != 1 or None in digests:
        problems.append(f"artifacts of op 0 differ between runs: {sorted(map(str, digests))}")
        failed += 1

    metrics, notes = per_layer(result) if args.trace else end_to_end(samples, result)
    print(f"# artifact digest ({args.workload}, seed {args.seed}, op 0): {result['digest']}")
    for note in notes:
        print(f"# {note}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for problem in problems[:20]:
        print(f"# problem: {problem.strip()}", file=sys.stderr)
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinpath benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
