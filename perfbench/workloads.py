"""The four benchmark workloads: seeded inputs, one timed round, output checks.

Every workload is a closed loop with one client: each call starts when the
previous one has returned.  A round runs the workload's whole fixed input
once; the benchmark repeats rounds for the measured time.  Inputs depend
only on the seed, so every round of a run does identical work and the
counts it produces must repeat exactly.

A round returns when each call started and ended, in the same order every
round, the units of work done (checks, hunt evaluations, grid points, CLI
commands) with the calls that did them, and the outputs.  ``verify`` then
checks the outputs outside the timed region and returns how many calls
were attempted, how many failed their check, and a digest that must be
equal for every round of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import meanineq as mi

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Round:
    """One pass over a workload's fixed input."""

    calls: list[tuple[float, float]]  # (start, end) of each call
    work: float            # units of work completed (checks, evals, points, commands)
    outputs: list = field(default_factory=list)
    work_calls: list[bool] | None = None  # the calls that did that work; None: all

    @property
    def latencies_s(self) -> list[float]:
        return [end - start for start, end in self.calls]


class Calls:
    """Times a round's calls, one at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((start, time.perf_counter()))
        return out


@dataclass
class Verdict:
    attempted: int
    failed: int
    digest: str
    notes: list[str] = field(default_factory=list)


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MEANINEQ_TOL", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_until_ready(code: str) -> float:
    """Seconds from starting a fresh interpreter on ``code`` to its 'ready' line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            env=_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code_ = proc.wait()
    if line.strip() != "ready" or code_ != 0:
        raise RuntimeError(f"set-up probe failed (exit {code_}): {code[:60]!r}")
    return ready


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# check-sweep


# Tags stated for x_1 > 0; the other six admit a zero sample.
_POSITIVE_ONLY = frozenset({
    "mix-variance-upper", "mix-variance-lower", "cartwright-field-lower",
    "cartwright-field-upper", "mg-sigma-lower", "mg-sigma-upper",
    "half-mean-var-upper", "half-mean-var-lower",
})


def _draw_params(rng, tag: str, r0: float) -> dict:
    """Parameters drawn across the tag's proven range.

    The three-mean bounds are proven at the triple (1, 1/r, 0) with alpha
    between 1 and the solved threshold; the Cartwright-Field pair is drawn
    where its classical case r = 1, s = 0 lies.  Orders reaching toward 0
    are log-uniform down to 1e-9.
    """
    if tag == "diananda-upper":
        r = rng.uniform(1.0, 2.0)
        return {"triple": (1.0, 1.0 / r, 0.0),
                "alpha": rng.uniform(1.0, mi.alpha_threshold_upper(r))}
    if tag == "diananda-lower":
        r = rng.uniform(2.0, 6.0)
        return {"triple": (1.0, 1.0 / r, 0.0),
                "alpha": rng.uniform(mi.alpha_threshold_lower(r), 1.0)}
    if tag in ("diananda-base-upper", "diananda-base-lower"):
        return {}
    if tag == "half-mean-var-upper":
        return {"r": rng.uniform(r0, 1.0)}
    if tag.startswith("cartwright-field"):
        s = 0.0 if rng.random() < 0.1 else _loguniform(rng, 1e-9, 1.0)
        return {"r": rng.uniform(1.0, 2.0), "s": s}
    if tag == "mg-sigma-upper":
        return {"r": _loguniform(rng, 1e-9, 2.0)}
    lo, hi = _R_RANGES[tag]
    r = rng.uniform(lo, hi)
    return {"r": hi if r == lo and tag in _OPEN_BELOW else r}


# Proven ranges of r for the one-parameter tags; lower ends in _OPEN_BELOW
# are excluded.
_R_RANGES = {
    "mix-variance-upper": (2.0, 8.0),
    "mix-variance-lower": (1.0, 2.0),
    "mg-sigma-lower": (1.0, 3.0),
    "half-mean-lower": (0.5, 1.0),
    "half-mean-upper": (1.0, 6.0),
    "half-mean-var-lower": (1.0, 2.0),
}
_OPEN_BELOW = frozenset({"mix-variance-lower", "half-mean-lower"})


class CheckSweep:
    name = "check-sweep"
    configs = 600
    zero_prob = 0.2
    warmup = (
        "import meanineq as m\n"
        "c = m.Configuration([1.0, 2.0, 5.0], [0.2, 0.3, 0.5])\n"
        "for tag, p in [('diananda-upper', {'triple': (1, 0.6, 0), 'alpha': 1.0}),"
        " ('diananda-base-upper', {}), ('mix-variance-upper', {'r': 3.0}),"
        " ('cartwright-field-upper', {'r': 1.0, 's': 0.0}), ('mg-sigma-upper', {'r': 1.0}),"
        " ('half-mean-upper', {'r': 2.0}), ('half-mean-var-upper', {'r': 0.8})]:\n"
        "    m.check(tag, c, **p)\n"
        "print('ready', flush=True)\n"
    )

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        r0 = mi.r0_value()
        tags = [tag.value for tag in mi.InequalityId]
        # Sizes n = 2..8 and the zero-sample share are stratified, so the
        # work in a round hardly depends on the seed.
        sizes = rng.permutation(np.arange(self.configs) % 7 + 2)
        zeros = rng.permutation(np.arange(self.configs) < self.zero_prob * self.configs)
        self.inputs = []
        for n, zero in zip(sizes.tolist(), zeros.tolist()):
            x = np.exp(rng.normal(0.0, 1.0, n))
            q = rng.dirichlet(np.ones(n))
            if zero:
                x[np.argmin(x)] = 0.0
            chosen = [t for t in tags if not (zero and t in _POSITIVE_ONLY)]
            self.inputs.append((x, q, [(t, _draw_params(rng, t, r0)) for t in chosen]))
        self.checks_per_round = sum(len(item[2]) for item in self.inputs)

    @staticmethod
    def _check_all(x, q, checks) -> list:
        cfg = mi.Configuration(x, q)
        return [mi.check(tag, cfg, **params) for tag, params in checks]

    def run_round(self) -> Round:
        timed = Calls()
        outputs = [timed(self._check_all, x, q, checks) for x, q, checks in self.inputs]
        return Round(timed.spans, self.checks_per_round, outputs)

    def verify(self, rnd: Round) -> Verdict:
        failed, items, notes = 0, [], []
        for reports in rnd.outputs:
            for rep in reports:
                items.append((rep.status.value, rep.residual))
                if rep.status is mi.CheckStatus.VIOLATED:
                    failed += 1
                    if len(notes) < 3:
                        notes.append(f"Violated inside the proven range: {rep.id.value} "
                                     f"{rep.params} residual_rel={rep.residual_rel:.3e}")
        return Verdict(self.checks_per_round, failed, _digest(items), notes)


# ---------------------------------------------------------------------------
# frontier-hunt


class FrontierHunt:
    name = "frontier-hunt"
    budget = 3000
    probe_budget = 2000
    # The probe's cost depends strongly on the pinned weight, so it is fixed;
    # the seed only moves the random streams.
    q_target = 0.3
    frontier = (
        ("mg-sigma-upper", 2.5, "ViolationFound"),
        ("mg-sigma-upper", 2.0, "NoViolationFound"),
        ("mg-sigma-lower", 3.5, "ViolationFound"),
        ("mg-sigma-lower", 3.0, "NoViolationFound"),
    )
    warmup = (
        "import meanineq as m\n"
        "m.counterexample_hunt('mg-sigma-upper', r=2.5, budget=m.SearchBudget(max_evals=50))\n"
        "m.sharpness_probe('diananda-upper', triple=(1, 0.5, 0), q_target=0.3,"
        " budget=m.SearchBudget(max_evals=50))\n"
        "print('ready', flush=True)\n"
    )

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.seeds = [int(s) for s in rng.integers(0, 2**32, len(self.frontier) + 1)]

    def run_round(self) -> Round:
        timed = Calls()
        outputs = [timed(mi.counterexample_hunt, tag, r=r,
                         budget=mi.SearchBudget(max_evals=self.budget, seed=seed))
                   for (tag, r, _), seed in zip(self.frontier, self.seeds)]
        outputs.append(timed(
            mi.sharpness_probe, "diananda-upper", triple=(1.0, 0.5, 0.0), alpha=1.0,
            q_target=self.q_target,
            budget=mi.SearchBudget(max_evals=self.probe_budget, seed=self.seeds[-1])))
        return Round(timed.spans, sum(rep.evals_used for rep in outputs), outputs)

    def verify(self, rnd: Round) -> Verdict:
        failed, notes = 0, []
        for (tag, r, want), rep in zip(self.frontier, rnd.outputs):
            ok = rep.verdict == want
            if ok and want == "ViolationFound":
                again = mi.check(tag, rep.best_config, r=r, force=True)
                ok = again.status is mi.CheckStatus.VIOLATED
            if not ok:
                failed += 1
                notes.append(f"{tag} r={r}: {rep.verdict}, expected {want}")
        probe = rnd.outputs[-1]
        if probe.verdict != "SupremumGap" or not probe.boundary_gap <= 1e-12:
            failed += 1
            notes.append(f"sharpness probe: {probe.verdict} boundary_gap={probe.boundary_gap}")
        digest = _digest([json.dumps(rep.to_json_dict()) for rep in rnd.outputs])
        return Verdict(len(rnd.outputs), failed, digest, notes)


# ---------------------------------------------------------------------------
# certify


def _jittered(rng, lo: float, hi: float, count: int) -> list[float]:
    """One seeded point in each of ``count`` equal cells of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + width * (i + float(rng.uniform(0.0, 1.0))) * (1 - 1e-9)
            for i in range(count)]


class Certify:
    name = "certify"
    sweep_points = 16
    warmup = (
        "import meanineq as m\n"
        "m.aux_sign_check('exponent-margin')\n"
        "m.min_a_r(1.5)\n"
        "m.alpha_threshold_upper(1.5)\n"
        "print('ready', flush=True)\n"
    )

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        r0 = mi.r0_value()
        r_lo, r_hi = float(rng.uniform(1.1, 1.3)), float(rng.uniform(1.6, 1.9))
        a_max = min(mi.min_a_r(float(r))[1] for r in np.linspace(r_lo, r_hi, 20))
        q_lo = float(rng.uniform(1e-3, 1e-2))
        w_lo, w_hi = float(rng.uniform(0.22, 0.26)), float(rng.uniform(0.40, 0.44))
        ax = mi.GridAxis
        # Custom grids near the 10^6-point cap, inside each claimed domain.
        self.dense = [
            ("core-upper", {"r": ax(r_lo, r_hi, 20), "a": ax(0.0, a_max, 10),
                            "t": ax(0.0, 1.0, 5000, open_lo=True, open_hi=True)}, 1e-9),
            ("tangent-cubic", {"x": ax(1.0, 100.0, 200, log=True), "q": ax(q_lo, 1 / 3, 100),
                               "r": ax(r0, 1.0, 50)}, 1e-10),
            ("three-sample-lower", {"y": ax(1.0, 100.0, 40, log=True), "q1": ax(w_lo, w_hi, 50),
                                    "q2": ax(w_lo, w_hi, 50),
                                    "r": ax(1.0, float(rng.uniform(1.2, 1.4)), 10)}, 1e-10),
        ]
        k = self.sweep_points
        self.r_profile = _jittered(rng, 1.05, 5.0, k)
        self.r_upper = _jittered(rng, 1.01, 1.99, k)
        # The lower threshold is solved on (2, 3) and closed-form beyond, so
        # each piece gets a fixed share of the points.
        self.r_lower = _jittered(rng, 2.01, 3.0, k // 2) + _jittered(rng, 3.0, 6.0, k // 2)
        self.r_t2 = _jittered(rng, 2.01, 2.99, k // 2)

    def run_round(self) -> Round:
        timed = Calls()
        outputs = []
        points = 0
        for tag in mi.AuxFunctionId:
            rep = timed(mi.aux_sign_check, tag)
            points += rep.points_checked
            outputs.append(("aux", rep))
        for tag, grid, tol in self.dense:
            rep = timed(mi.aux_sign_check, tag, grid=grid, tolerance=tol)
            points += rep.points_checked
            outputs.append(("aux", rep))
        for r in self.r_profile:
            outputs.append(("min_a_r", r, timed(mi.min_a_r, r)))
        for r in self.r_upper:
            outputs.append(("alpha_upper", r, timed(mi.alpha_threshold_upper, r)))
            outputs.append(("solve", timed(mi.solve_t1, r)))
        for r in self.r_lower:
            outputs.append(("alpha_lower", r, timed(mi.alpha_threshold_lower, r)))
        for r in self.r_t2:
            outputs.append(("solve", timed(mi.solve_t2, r)))
        outputs.append(("solve", timed(mi.solve_r0)))
        aux_calls = len(mi.AuxFunctionId) + len(self.dense)
        return Round(timed.spans, points, outputs,
                     [i < aux_calls for i in range(len(timed.spans))])

    def verify(self, rnd: Round) -> Verdict:
        failed, notes, items = 0, [], []
        for out in rnd.outputs:
            kind = out[0]
            if kind == "aux":
                rep = out[1]
                ok = rep.verdict == "AllSatisfy"
                items.append((rep.id.value, rep.points_checked, rep.margin))
            elif kind == "solve":
                ok = abs(out[1].residual) <= 1e-12
                items.append((out[1].value, out[1].iterations))
            elif kind == "min_a_r":
                r, (t_star, a_star) = out[1], out[2]
                ok = a_star >= 0.0 and abs(mi.a_r_fn(r, t_star) - a_star) <= 1e-12
                items.append((t_star, a_star))
            else:
                r, alpha = out[1], out[2]
                ok = alpha > 1.0 if kind == "alpha_upper" else 0.0 < alpha < 1.0
                items.append(alpha)
            if not ok:
                failed += 1
                notes.append(f"{kind}: {out[1:]}")
        return Verdict(len(rnd.outputs), failed, _digest(items), notes)


# ---------------------------------------------------------------------------
# cli-session


_CLI_MAIN = "import sys; from meanineq.cli import main; main()"


class CliSession:
    name = "cli-session"
    warmup = "import meanineq.cli as c\nc.build_parser()\nprint('ready', flush=True)\n"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        n = int(rng.integers(2, 7))
        x = ",".join(repr(float(v)) for v in np.round(np.exp(rng.normal(0.0, 1.0, n)), 6))
        q = ",".join(repr(float(v)) for v in np.round(rng.dirichlet(np.ones(n)), 9))
        lo = round(float(rng.uniform(2.05, 2.5)), 4)
        self.commands = [
            (["mean", "--x", x, "--q", q, "--r", repr(round(float(rng.uniform(-3, 3)), 4))], 0),
            (["check", "--ineq", "diananda-base-upper", "--x", x, "--q", q], 0),
            (["threshold", "--which", "r0"], 0),
            (["sweep", "--quantity", "alpha-threshold", "--grid", f"{lo},6,24"], 0),
            # Far past the frontier (r = 2) a small budget finds a violation
            # at every seed tried, so the command stays close to start-up time.
            (["hunt", "--ineq", "mg-sigma-upper", "--r", "6", "--budget", "500",
              "--seed", str(int(rng.integers(0, 2**31)))], 1),
        ]
        self.in_process = False
        self.first_outputs: list[bytes] | None = None

    def _run_subprocess(self, argv: list[str]) -> tuple[int, bytes]:
        proc = subprocess.run([sys.executable, "-c", _CLI_MAIN, *argv], env=_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        return proc.returncode, proc.stdout

    def _run_in_process(self, argv: list[str]) -> tuple[int, bytes]:
        import meanineq.cli as cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(argv)
        return code, buffer.getvalue().encode()

    def run_round(self) -> Round:
        run = self._run_in_process if self.in_process else self._run_subprocess
        timed = Calls()
        outputs = [timed(run, argv) for argv, _ in self.commands]
        return Round(timed.spans, len(self.commands), outputs)

    def verify(self, rnd: Round) -> Verdict:
        """Exit codes as expected, and each report byte-identical to its first run."""
        reports = [out for _, out in rnd.outputs]
        if self.first_outputs is None:
            self.first_outputs = reports
        failed, notes = 0, []
        for (argv, want), (code, out), first in zip(self.commands, rnd.outputs,
                                                    self.first_outputs):
            if code != want or not out:
                failed += 1
                notes.append(f"{argv[0]}: exit {code}, expected {want}")
            elif out != first:
                failed += 1
                notes.append(f"{argv[0]}: report differs from its first run")
        return Verdict(len(self.commands), failed, _digest(reports), notes)


WORKLOADS = {w.name: w for w in (CheckSweep, FrontierHunt, Certify, CliSession)}
