"""The benchmark's in-process workloads still produce the outputs they were measured on.

``perfbench/workloads.py`` is loaded as it stands, never changed here.
Each digest hashes one seeded round's outputs, so a change that moves a
seeded bit of a check, hunt, probe, certificate or threshold fails here,
and its new value must be listed when it is updated.  The cli-session
workload spawns processes and is left to the benchmark itself.
``perfbench/tracing.py`` runs in a fresh interpreter, as ``run.py --trace 1``
runs it, so what its tracer needs of the package's loader shows there.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import run_fresh

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


# As run.py --trace 1: the tracer is built while search's body has not run,
# the first round is untraced, and then a round runs traced.
TRACED_RUN = """
import sys
sys.path.insert(0, {perfbench!r})
import meanineq
from tracing import TARGETS, Tracer

search = sys.modules.get("meanineq.search")  # read without running its body
assert search is None or "counterexample_hunt" not in object.__getattribute__(search, "__dict__")
tracer = Tracer()
originals = {{(module, attr): getattr(sys.modules[module], attr) for _, module, attr in TARGETS}}
cfg = meanineq.Configuration([1.0, 2.0, 4.0], [0.25, 0.25, 0.5])
meanineq.check("mg-sigma-upper", cfg, r=1.5)
tracer.install()
try:
    unpatched = [key for key, fn in originals.items()
                 if getattr(getattr(sys.modules[key[0]], key[1]), "__wrapped__", None) is not fn]
    meanineq.check("mg-sigma-upper", cfg, r=1.5)
    meanineq.counterexample_hunt("mg-sigma-upper", r=1.5,
                                 budget=meanineq.SearchBudget(max_evals=10))
finally:
    tracer.uninstall()
spans, notes = tracer.take()
print(repr(([(tracer.names[name], parent) for name, _, _, parent in spans], notes, unpatched)))
"""


def test_every_traced_target_resolves():
    # a renamed public name, or a loader that hides a module or a bound name
    # from the tracer, fails here, not first in a traced benchmark run
    proc = run_fresh(["-B", "-c", TRACED_RUN.format(perfbench=str(PERFBENCH))], timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans, notes, unpatched = ast.literal_eval(proc.stdout)
    assert unpatched == []  # every target is patched in its defining module
    assert spans == [("inequalities.check", -1), ("search.counterexample_hunt", -1),
                     ("means.Configuration", 1)]
    assert notes == {0: ("mg-sigma-upper", "Holds", True), 1: 10}
