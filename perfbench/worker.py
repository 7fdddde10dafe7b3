"""One benchmark process: ``python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORK_DIR``.

``run.py`` starts it; it is not meant to be run by hand. It prints JSON lines
on stdout: the result of its mode, preceded in the setup, measure and trace
modes by a ``ready`` line once spinpath is imported and the warm-up op is
done.

Modes:
  prepare  write the run's shared inputs and report the environment
  setup    import and warm up, time the calibration kernel, exit
  measure  warm up, run ops back to back for SECONDS, repeat op 0
  trace    as measure, alternating untraced and traced ops
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    # One thread per process: set before numpy is imported anywhere.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 5  # ops per loop even when SECONDS is shorter than that many take


def import_spinpath():
    """Import spinpath from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spinpath

    if Path(spinpath.__file__).resolve().parent != src / "spinpath":
        raise ImportError(f"spinpath imported from {spinpath.__file__}, not from {src}")
    return spinpath


def run_op(workload, index: int, out: Path, tracer=None) -> dict:
    """Run and check one op. Returns its wall and CPU seconds, its problems
    (an exception counts as one) and the op's result."""
    span = None
    try:
        workload.make_output(out)
        c0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is not None:
            span = tracer.begin_op(index)
        try:
            result = workload.op(index, out)
        finally:
            if span is not None:
                tracer.end_op(span)
        t1 = time.perf_counter()
        c1 = time.process_time()
        problems = workload.check(index, out, result)
    except Exception:
        return {"wall": None, "cpu": None, "problems": [traceback.format_exc()], "result": None}
    return {"wall": t1 - t0, "cpu": c1 - c0, "problems": problems, "result": result}


def digest_op(workload, index: int, out: Path, tracer=None) -> tuple[str | None, list[str]]:
    """Run op ``index`` in a fresh directory and return its artifact digest."""
    shutil.rmtree(out, ignore_errors=True)
    done = run_op(workload, index, out, tracer)
    digest = None if done["problems"] else workload.digest(out, done["result"])
    shutil.rmtree(out, ignore_errors=True)
    return digest, done["problems"]


def calibration_kernel() -> float:
    """Fixed work with the workloads' instruction mix: seeding Philox
    streams, small numpy array calls and float formatting in the
    interpreter. How long it takes tracks how fast this core runs right now,
    which on a shared host changes by up to 2x within seconds."""
    import numpy as np

    acc = 0.0
    lines = []
    for k in range(100):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, k])))
        acc += float(np.cumsum(rng.random(16))[-1])
        for j in range(60):
            lines.append(f"{math.sin(k + j):.17g},{j}")
    return acc + len("\n".join(lines))


def time_calibration() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def measure_loop(workload, seconds: float, ops_dir: Path, tracer=None) -> dict:
    """Closed loop over inputs 1, 2, ... for ``seconds`` of wall time (and at
    least ``MIN_OPS`` ops). The calibration kernel runs before every op and
    after the last. With a tracer, every second op is traced."""
    ops = []
    cals = []
    attempted = failed = 0
    problems: list[str] = []
    out = ops_dir / "op"
    deadline = time.perf_counter() + seconds
    index = 1
    while attempted < MIN_OPS or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 0
        cals.append(time_calibration())
        if traced:
            tracer.install(sys.modules["spinpath"])
        try:
            done = run_op(workload, index, out, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        if done["problems"]:
            failed += 1
            problems += [f"op {index}: {p}" for p in done["problems"][:3]]
        ops.append((done["wall"], done["cpu"], traced))
        index += 1
    cals.append(time_calibration())
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ops": ops,
        "cals": cals,
    }


def environment() -> dict:
    import numpy

    import spinpath

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "spinpath": getattr(spinpath, "__version__", "unknown"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, work = argv
    seed, seconds, work = int(seed), float(seconds), Path(work)
    import_spinpath()
    import workloads

    workload = workloads.WORKLOADS[name](seed, work / "fixture")
    if mode == "prepare":
        workload.prepare()
        emit({"event": "prepared", "env": environment()})
        return 0

    digest, problems = digest_op(workload, 0, work / f"warmup-{os.getpid()}")
    emit({"event": "ready", "digest": digest, "problems": problems})
    calibration_kernel()  # its first run is slower: numpy sets up Philox and SeedSequence
    if mode == "setup":
        emit({"event": "setup", "cal": time_calibration()})
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
    stats = measure_loop(workload, seconds, work / "ops", tracer)
    repeat, repeat_problems = digest_op(workload, 0, work / "repeat")
    stats.update(
        event="result",
        cal=stats["cals"][0],
        digest=digest,
        repeat_digest=repeat,
        repeat_problems=repeat_problems,
        max_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.install(sys.modules["spinpath"])
        try:
            stats["traced_digest"], stats["traced_problems"] = digest_op(
                workload, 0, work / "traced", tracer
            )
        finally:
            tracer.uninstall()
        stats["layers"] = tracer.self_times()
        stats["traced_ops"] = sum(traced for _, _, traced in stats["ops"]) + 1
        stats["missing_hooks"] = tracer.missing
        trace_file = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.jsonl.gz"
        trace_file.parent.mkdir(exist_ok=True)
        tracer.write(trace_file)
        stats["trace_file"] = str(trace_file.relative_to(ROOT))
    emit(stats)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
