"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: :class:`Tracer` replaces
the public functions of each layer at the module attribute their callers
look up (``spinpath.pipeline.sample_scan``, ``spinpath.lhv.substream``, ...)
with a wrapper that records a span, and restores the originals afterwards.
Nothing inside the program changes.

A span is (name, parent span, start ns, end ns, bytes, op index). Spans are
held in memory in integer columns, so recording them allocates no objects
the garbage collector must track, and are written out when the run ends.
A layer's self time is its span's duration minus the durations of its
direct child spans; calls are strictly nested in one thread, so the
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
from array import array
from time import perf_counter_ns

# Span names whose self time is reported together as ``pipeline.self_s``:
# the bodies of the pipeline workflows, including residual-CSV rendering and
# everything else no finer layer covers.
PIPELINE_SPANS = (
    "pipeline.reproduce_pipeline",
    "pipeline.run_threshold",
    "pipeline.run_fit",
    "pipeline.run_chsh",
    "pipeline.run_lhv",
)

# Root span of one benchmark operation; its self time is the benchmark's own
# glue plus program code outside every hooked layer.
OP_SPAN = "op"

POISSON_SWITCH_MEAN = 30.0  # spinpath's inverse-CDF / PTRS switch point


def _poisson_span(args, kwargs) -> str:
    mean = kwargs["mean"] if "mean" in kwargs else args[1]
    if float(mean) < POISSON_SWITCH_MEAN:
        return "montecarlo.poisson_inverse"
    return "montecarlo.poisson_ptrs"


def _size_of(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _path_arg(position: int, keyword: str):
    def size(args, kwargs) -> int:
        path = kwargs[keyword] if keyword in kwargs else args[position]
        return _size_of(path)

    return size


# (module, attribute looked up by the callers, span name or namer, byte counter)
HOOKS = (
    ("montecarlo", "substream", "montecarlo.substream", None),
    ("lhv", "substream", "montecarlo.substream", None),
    ("montecarlo", "poisson", _poisson_span, None),
    ("montecarlo", "predicted_rate", "apparatus.predicted_rate", None),
    ("montecarlo", "sample_scan", "montecarlo.sample_scan", None),
    ("pipeline", "sample_scan", "montecarlo.sample_scan", None),
    ("pipeline", "write_scan_csv", "montecarlo.write_scan_csv", _path_arg(1, "path")),
    ("pipeline", "split_repetitions", "montecarlo.split_repetitions", None),
    ("pipeline", "read_scan_csv", "montecarlo.read_scan_csv", _path_arg(0, "path")),
    ("analysis", "fit_rate_curve", "analysis.fit_rate_curve", None),
    ("pipeline", "fit_sinusoid", "analysis.fit_sinusoid", None),
    ("pipeline", "e_obs_from_fits", "analysis.e_obs_from_fits", None),
    ("pipeline", "weighted_average", "analysis.weighted_average", None),
    ("pipeline", "s_prime", "analysis.s_prime", None),
    ("analysis", "s_prime", "analysis.s_prime", None),
    ("pipeline", "write_json", "report.write_json", _path_arg(0, "path")),
    # CLI stdout rendering; write_json renders its own text inside its span.
    ("cli", "render_json", "report.render_json", None),
    ("pipeline", "enumerate_strategies", "lhv.enumerate_strategies", None),
    ("lhv", "enumerate_strategies", "lhv.enumerate_strategies", None),
    ("pipeline", "strategy_s", "lhv.strategy_s", None),
    ("lhv", "strategy_s", "lhv.strategy_s", None),
    ("pipeline", "sample_ensemble_counts", "lhv.sample_ensemble_counts", None),
    ("pipeline", "empirical_s", "lhv.empirical_s", None),
    ("states", "expectation", "states.expectation", None),
    ("pipeline", "reproduce_pipeline", "pipeline.reproduce_pipeline", None),
    ("pipeline", "run_threshold", "pipeline.run_threshold", None),
    ("pipeline", "run_lhv", "pipeline.run_lhv", None),
    ("pipeline", "run_fit", "pipeline.run_fit", None),
    ("pipeline", "run_chsh", "pipeline.run_chsh", None),
    ("cli", "run_fit", "pipeline.run_fit", None),
    ("cli", "run_chsh", "pipeline.run_chsh", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records nested spans around hooked functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.bytes_col = array("q")
        self.op_col = array("q")
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name: str) -> int:
        span = len(self.name_col)
        self.name_col.append(self._intern(name))
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.end_col.append(0)
        self.bytes_col.append(0)
        self.op_col.append(self._op)
        self._stack.append(span)
        self.start_col.append(perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.end_col[span] = perf_counter_ns()
        self._stack.pop()

    def begin_op(self, index: int) -> int:
        self._op = index
        return self._open(OP_SPAN)

    def end_op(self, span: int) -> None:
        self._close(span)
        self._op = -1

    def wrap(self, fn, name, count_bytes=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if count_bytes is not None:
                    tracer.bytes_col[span] = count_bytes(args, kwargs)

        return traced

    def install(self, package) -> None:
        """Hook every layer function in ``HOOKS``. A hook whose module
        attribute no longer exists is skipped and listed in ``missing``."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, count_bytes in HOOKS:
            module = getattr(package, module_name)
            original = getattr(module, attr, None)
            if original is None:
                label = f"{module_name}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count_bytes))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, self ns, bytes) summed over all spans."""
        n = len(self.name_col)
        child_ns = [0] * n
        for span in range(n):
            parent = self.parent_col[span]
            if parent >= 0:
                child_ns[parent] += self.end_col[span] - self.start_col[span]
        totals: dict[str, list[int]] = {}
        for span in range(n):
            entry = totals.setdefault(self.names[self.name_col[span]], [0, 0, 0])
            entry[0] += 1
            entry[1] += self.end_col[span] - self.start_col[span] - child_ns[span]
            entry[2] += self.bytes_col[span]
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path) -> None:
        """Write every span as one JSON line, after a header line naming the
        columns; gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write(
                json.dumps({"columns": ["name", "parent", "start_ns", "end_ns", "bytes", "op"]})
                + "\n"
            )
            for span in range(len(self.name_col)):
                row = (
                    self.names[self.name_col[span]],
                    self.parent_col[span],
                    self.start_col[span],
                    self.end_col[span],
                    self.bytes_col[span],
                    self.op_col[span],
                )
                fh.write(json.dumps(row) + "\n")
