"""The benchmark's in-process workloads still produce the outputs they were measured on.

``perfbench/workloads.py`` is loaded as it stands, never changed here.
Each digest hashes one seeded round's outputs, so a change that moves a
seeded bit of a check, hunt, probe, certificate or threshold fails here,
and its new value must be listed when it is updated.  The cli-session
workload spawns processes and is left to the benchmark itself.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

DIGESTS = {
    "check-sweep": ("a59a87ce42b88f56", "5eab365bc255d26a", "328affbf5b291d64"),
    "frontier-hunt": ("176805dca4149750", "139192e47da21900", "5eac33f7d5068a4d"),
    "certify": ("c2e71c45ec7cc1e8", "62b7f0352cabcb67", "7059bc5b2074eec7"),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    yield module.WORKLOADS
    del sys.modules[spec.name]


@pytest.mark.parametrize("name, seed, digest", [
    (name, seed, digest) for name, digests in DIGESTS.items()
    for seed, digest in enumerate(digests, start=1)])
def test_a_round_reproduces_its_digest(workloads, name, seed, digest):
    workload = workloads[name](seed)
    verdict = workload.verify(workload.run_round())
    assert verdict.failed == 0
    assert verdict.digest == digest
