"""The benchmark's op-0 artifacts at seed 1, frozen: the SHA-256 that
``perfbench/run.py --workload W --seed 1`` prints as the artifact digest of
op 0, computed here in process through ``perfbench/workloads.py`` and
``worker.digest_op``. The perfbench modules are loaded read-only, under
names of their own."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

OP0_DIGESTS_SEED_1 = {
    "reproduce": "f20d3f5f6f5d7fe329c0af27866f57024c30157e1ffcaa3fea06b2874b26f1cc",
    "threshold": "c03182a54460ad9f47791332b2570b0d8c4c9f1f688c987a3bbff65503bf0c77",
    "refit": "b704ea8fb1065e4cd560d24531dea839cfe6fe06b58dc534c901b4cd00acde66",
    "oracle": "dd10ef8b8a28ae625c5128ee59b0f3d249bae0da74ca02fe83374b8a9026c713",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
worker = _load("worker")


@pytest.mark.parametrize("name", list(OP0_DIGESTS_SEED_1))
def test_benchmark_op0_artifacts_are_frozen(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path / "fixture")
    workload.prepare()
    digest, problems = worker.digest_op(workload, 0, tmp_path / "op")
    assert problems == []
    assert digest == OP0_DIGESTS_SEED_1[name]
