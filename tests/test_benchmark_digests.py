"""The benchmark's in-process workloads still produce the outputs they were measured on.

``perfbench/workloads.py`` is loaded as it stands, never changed here.
Each digest hashes one seeded round's outputs, so a change that moves a
seeded bit of a check, hunt, probe, certificate or threshold fails here,
and its new value must be listed when it is updated.  The cli-session
workload spawns processes and is left to the benchmark itself.
``perfbench/tracing.py`` is loaded the same way, and its tracer is built
but not installed: every public name it traces must still exist.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DIGESTS = {
    "check-sweep": ("a59a87ce42b88f56", "5eab365bc255d26a", "328affbf5b291d64"),
    "frontier-hunt": ("176805dca4149750", "139192e47da21900", "5eac33f7d5068a4d"),
    "certify": ("c2e71c45ec7cc1e8", "62b7f0352cabcb67", "7059bc5b2074eec7"),
}


def _load(name: str):
    """``perfbench/<name>.py`` loaded by path as ``perfbench_<name>``, writing no bytecode."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


@pytest.fixture(scope="module")
def workloads():
    module = _load("workloads")
    yield module.WORKLOADS
    del sys.modules[module.__name__]


@pytest.mark.parametrize("name, seed, digest", [
    (name, seed, digest) for name, digests in DIGESTS.items()
    for seed, digest in enumerate(digests, start=1)])
def test_a_round_reproduces_its_digest(workloads, name, seed, digest):
    workload = workloads[name](seed)
    verdict = workload.verify(workload.run_round())
    assert verdict.failed == 0
    assert verdict.digest == digest


def test_every_traced_target_resolves():
    # a renamed public name fails here, not first in a traced benchmark run
    tracing = _load("tracing")
    try:
        init = tracing.meanineq.Configuration.__init__
        patched = {(owner, key) for owner, key, _, _ in tracing.Tracer()._patches}
        assert tracing.meanineq.Configuration.__init__ is init  # built, not installed
        for _, module, attr in tracing.TARGETS:
            assert (sys.modules[module], attr) in patched, (module, attr)
    finally:
        del sys.modules[tracing.__name__]
