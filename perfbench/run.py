"""meanineq benchmark: one process, one client, four closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` pairs an untraced round with a round traced at the module
boundaries (see ``tracing.py``) and reports the per-layer metrics, plus the
tracing overhead: the traced round's time minus the untraced one's.  The
spans of the first traced round are written to ``.bench_out/``.

Set-up time comes from fresh interpreters, each importing meanineq and
making the workload's first calls (so lazy work such as the cached r0 root
is included) until it prints 'ready'; it is the median of several, taken
at even intervals between the rounds of the measured run.  Before the run,
one unmeasured round lets the benchmark's own process finish its lazy
work; then rounds repeat the workload's fixed input until ``--seconds``
have passed.

The shared host this was written on runs the same single-threaded code up
to three times slower at some moments than at others, in phases of a
fraction of a second to minutes, whatever this process does.  Raw times,
even the best of a run, then report the host's phase more than the
program.  So a fixed pure-Python loop, the reference, is timed after every
round and every fresh interpreter, and each time is stated at the
reference speed: divided by the mean of the reference times just before
and after it, and multiplied by ``REF_LOOP_S``, the loop's time on that
host in its fast phase.  (Timing the reference between the calls of a
round as well made the figures spread more, not less, so a call's
reference is its round's.)  Every time metric is a median of such times
over the run; the log also gives the raw times and the range of the
reference.  The process, and the interpreters it starts, stay on one
CPU, so that the reference times the CPU that did the work: the host's
CPUs change speed independently.

Every output is checked.  A call whose output fails its check counts in
``failed`` and the run goes on.  ``attempted`` and ``failed`` count the
fixed input once, so they depend on the seed only; a call that fails in
any round counts as failed.  ``correct`` is false when the rounds of a
run, which repeat identical input, disagree: different outputs, or
different per-layer counts.  The last line of standard output is the
JSON result; the lines before it give machine facts, sample counts and
spreads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 12
PROBE_SAMPLES = 6
MIN_ROUNDS = 3
# The reference loop's time on the host this was written on (Intel Xeon,
# Python 3.11.7) in its fast phase; time metrics read as seconds there.
REF_LOOP_S = 0.0075

# The per-workload name of the generic throughput metric (see README.md).
THROUGHPUT_NAMES = {
    "check-sweep": "checks_per_s",
    "frontier-hunt": "hunt_evals_per_s",
    "certify": "grid_points_per_s",
    "cli-session": "cli_commands_per_s",
}


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _reference_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


class Speed:
    """The host's speed over the run, from the reference loop timed between pieces of work.

    ``sample`` times the loop now.  ``around(start, end)`` is the mean of
    the last loop time before ``start`` and the first after ``end``: what
    the loop took around that piece of work.  A sample must follow every
    piece before it is asked for.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        loop = _reference_loop()
        self.starts.append(start)
        self.loops.append(loop)
        self.ends.append(time.perf_counter())

    def around(self, start: float, end: float) -> float:
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        return (self.loops[before] + self.loops[after]) / 2


def _at_ref(seconds: float, ref: float) -> float:
    return REF_LOOP_S * seconds / ref


def _hold_one_cpu() -> list[int]:
    """Keeps this process and its children on the first CPU it may use; returns that set."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return [cpu]


def _machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "cpu_pinning": "none at machine level (its settings are off limits); spread is reported",
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _per_call(rounds, speed: Speed) -> list[float]:
    """Each call of the fixed input: its median time over the rounds at the reference speed."""
    return [statistics.median(_at_ref(end - start, speed.around(start, end))
                              for start, end in spans)
            for spans in zip(*(r.calls for r in rounds))]


def _round_ref(rnd, speed: Speed) -> float:
    return speed.around(rnd.calls[0][0], rnd.calls[-1][1])


def _spawn_at_ref(spawn, code: str, speed: Speed) -> float:
    """One fresh interpreter's time to 'ready', at the reference speed."""
    start = time.perf_counter()
    seconds = spawn(code)
    end = time.perf_counter()
    speed.sample()
    return _at_ref(seconds, speed.around(start, end))


def _tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile of the calls' times with ten calls beyond it.

    An input of fewer than 11 calls has no such percentile; its slowest
    call is taken instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"slowest of the input's {n} calls (too few for 10 beyond a percentile)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f} of the input's {n} calls (10 beyond it)"


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _emit(metrics: dict[str, tuple[float, str]], mode: str, verdict: dict) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)[mode]
    if {m["name"] for m in declared} != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {mode}")
    for m in declared:
        if metrics[m["name"]][1] != m["unit"]:
            raise SystemExit(f"perfbench: unit of {m['name']} is {metrics[m['name']][1]}, "
                             f"declared {m['unit']}")
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)


def _spawn_samples(spawn, code: str, speed: Speed, count: int) -> list[float]:
    """Fresh-interpreter times at the reference speed, after one unmeasured start."""
    spawn(code)  # compiles bytecode and warms the file cache; not counted
    speed.sample()
    return [_spawn_at_ref(spawn, code, speed) for _ in range(count)]


class SetupSampler:
    """Fresh-interpreter set-up times, taken at even intervals over the run.

    A burst of starts at one moment all meets the same phase of the host's
    speed (see the module docstring); spread over the run, their median
    hardly depends on when the run began.  Call ``due`` between rounds and
    ``finish`` after the last.
    """

    def __init__(self, spawn, code: str, speed: Speed, seconds: float) -> None:
        self.spawn, self.code, self.speed = spawn, code, speed
        self.interval = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self.start = time.perf_counter()

    def _take(self) -> None:
        self.samples.append(_spawn_at_ref(self.spawn, self.code, self.speed))

    def due(self) -> None:
        elapsed = time.perf_counter() - self.start
        while (len(self.samples) < SETUP_SAMPLES
               and elapsed >= len(self.samples) * self.interval):
            self._take()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self._take()
        return self.samples


class Tally:
    """Accumulates the verdicts of every round of a run.

    Every round checks the same fixed input, so ``attempted`` is one round's
    count and ``failed`` the most calls any round failed.
    """

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.digests: set[str] = set()
        self.notes: list[str] = []

    def add(self, verdict) -> None:
        self.attempted = max(self.attempted, verdict.attempted)
        self.failed = max(self.failed, verdict.failed)
        self.digests.add(verdict.digest)
        for note in verdict.notes:
            if note not in self.notes and len(self.notes) < 5:
                self.notes.append(note)


def _report_lines(label: str, values: list[float], unit: str, scale: float = 1.0) -> None:
    q1, q2, q3 = _quartiles([v * scale for v in values])
    print(f"  {label}: median {q2:.6g} {unit}, quartiles [{q1:.6g}, {q3:.6g}], "
          f"n={len(values)}")


def _rounds(seconds: float):
    """Round indices until ``seconds`` have passed, and at least MIN_ROUNDS."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() < deadline:
        yield i
        i += 1


def run_untraced(workload, seconds: float, spawn) -> tuple[dict, Tally]:
    tally = Tally()
    rounds = []
    workload.verify(workload.run_round())  # lazy work in this process; not counted
    spawn(workload.warmup)  # compiles bytecode and warms the file cache; not counted
    speed = Speed()
    setup = SetupSampler(spawn, workload.warmup, speed, seconds)
    for _ in _rounds(seconds):
        rnd = workload.run_round()
        speed.sample()
        tally.add(workload.verify(rnd))
        rnd.outputs = None
        rounds.append(rnd)
        setup.due()
    setup_samples = setup.finish()
    calls = _per_call(rounds, speed)
    work_calls = rounds[0].work_calls or [True] * len(calls)
    work_s = sum(t for t, counts in zip(calls, work_calls) if counts)
    throughput = rounds[0].work / work_s
    tail, how = _tail(calls)
    print(f"rounds: {len(rounds)}, calls per round: {len(calls)}")
    _report_lines("reference loop (raw)", speed.loops, "ms", 1e3)
    _report_lines("wall_s per round (raw)", [sum(r.latencies_s) for r in rounds], "s")
    _report_lines("setup_s (at the reference speed)", setup_samples, "s")
    _report_lines("call latency (at the reference speed)", calls, "ms", 1e3)
    print(f"  call_tail_ms is the {how}")
    print(f"  {THROUGHPUT_NAMES[workload.name]} = {throughput:.6g} 1/s")
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(calls),
        "throughput_per_s": throughput,
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_tail_ms": 1e3 * tail,
    }
    return metrics, tally


def run_traced(workload, seed: int, seconds: float, spawn) -> tuple[dict, Tally, bool]:
    from tracing import Tracer, layer_metrics

    tally = Tally()
    tracer = Tracer()
    if hasattr(workload, "in_process"):
        workload.in_process = True  # spans are only seen inside this process
    workload.verify(workload.run_round())
    speed = Speed()
    plain, traced, per_round = [], [], []
    first_spans = None
    for _ in _rounds(seconds):
        rnd = workload.run_round()
        speed.sample()
        tally.add(workload.verify(rnd))
        rnd.outputs = None
        plain.append(rnd)
        tracer.install()
        try:
            rnd = workload.run_round()
        finally:
            tracer.uninstall()
        speed.sample()
        spans, notes = tracer.take()
        tally.add(workload.verify(rnd))
        rnd.outputs = None
        traced.append(rnd)
        per_round.append(layer_metrics(tracer.names, spans, notes))
        if first_spans is None:
            first_spans = spans
    layers: dict[str, float] = {}
    consistent = True
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        if key.endswith(("self_s", "us_per_call")):
            layers[key] = statistics.median(_at_ref(v, _round_ref(rnd, speed))
                                            for v, rnd in zip(values, traced))
        else:
            layers[key] = values[0]
            if any(v != values[0] for v in values):
                consistent = False
                tally.notes.append(f"count {key} differs between rounds: {sorted(set(values))}")
    interp = statistics.median(
        _spawn_samples(spawn, "print('ready', flush=True)", speed, PROBE_SAMPLES))
    imported = statistics.median(
        _spawn_samples(spawn, "import meanineq.cli\nprint('ready', flush=True)", speed,
                       PROBE_SAMPLES))
    plain_calls, traced_calls = _per_call(plain, speed), _per_call(traced, speed)
    layers["cli.interp_ms"] = 1e3 * interp
    layers["cli.import_ms"] = 1e3 * (imported - interp)
    layers["cli.command_ms"] = (1e3 * statistics.median(plain_calls)
                                if workload.name == "cli-session" else 0.0)
    layers["trace.overhead_s"] = sum(traced_calls) - sum(plain_calls)
    print(f"round pairs: {len(traced)}, spans in first traced round: {len(first_spans)}")
    _report_lines("reference loop (raw)", speed.loops, "ms", 1e3)
    _report_lines("untraced wall_s per round (raw)", [sum(r.latencies_s) for r in plain], "s")
    _report_lines("traced wall_s per round (raw)", [sum(r.latencies_s) for r in traced], "s")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": tracer.names, "fields": ["name", "start", "end", "parent"],
                   "spans": first_spans}, handle)
    print(f"spans written to {path.relative_to(ROOT)}")
    return layers, tally, consistent


UNITS = (
    ("self_s", "s"), ("us_per_call", "us"), ("_ratio", "ratio"), ("bytes_computed", "B"),
    ("_ms", "ms"), ("overhead_s", "s"),
)


def _layer_unit(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "meanineq" / "__init__.py").is_file():
        print(f"perfbench: no meanineq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    machine = _machine()
    machine["cpus_used"] = _hold_one_cpu()
    print("machine: " + json.dumps(machine))
    workload = cls(args.seed)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        layers, tally, consistent = run_traced(workload, args.seed, args.seconds,
                                               workloads.spawn_until_ready)
        metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
        mode = "per_layer"
    else:
        e2e, tally = run_untraced(workload, args.seconds, workloads.spawn_until_ready)
        consistent = True
        rss = _rss_mb(resource.RUSAGE_CHILDREN if workload.name == "cli-session"
                      else resource.RUSAGE_SELF)
        metrics = {
            "setup_s": (e2e["setup_s"], "s"),
            "wall_s": (e2e["wall_s"], "s"),
            "throughput_per_s": (e2e["throughput_per_s"], "1/s"),
            "call_p50_ms": (e2e["call_p50_ms"], "ms"),
            "call_tail_ms": (e2e["call_tail_ms"], "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        mode = "end_to_end"
    correct = consistent and len(tally.digests) == 1
    if len(tally.digests) > 1:
        tally.notes.append(f"outputs differ between rounds ({len(tally.digests)} digests)")
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted})")
    for note in tally.notes:
        print(f"  note: {note}")
    _emit(metrics, mode, {"correct": correct, "attempted": tally.attempted,
                          "failed": tally.failed})
    return 0


if __name__ == "__main__":
    sys.exit(main())
