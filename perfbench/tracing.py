"""Spans at meanineq's module boundaries, recorded from outside the library.

A :class:`Tracer` replaces each traced public function with a wrapper in
every namespace that binds it: the defining module, every meanineq module
that imported it by name (``meanineq.search.check`` as well as
``meanineq.inequalities.check``) and the package itself.  Configuration
construction is traced by wrapping ``Configuration.__init__``, which every
caller reaches.  Each call records one span ``(name, start, end, parent)``;
spans stay in memory until the benchmark writes them out at the end.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap
each other and always lie inside their parent.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import meanineq
import meanineq.cli  # noqa: F401  (its names are traced too)

# (span name, defining module, attribute); the span name is the layer
# (module) followed by the function.
TARGETS = (
    ("means.log_power_mean", "meanineq.means", "log_power_mean"),
    ("means.power_mean", "meanineq.means", "power_mean"),
    ("means.variance_sigma", "meanineq.means", "variance_sigma"),
    ("means.delta", "meanineq.means", "delta"),
    ("means.c_constant", "meanineq.means", "c_constant"),
    ("inequalities.check", "meanineq.inequalities", "check"),
    ("search.counterexample_hunt", "meanineq.search", "counterexample_hunt"),
    ("search.sharpness_probe", "meanineq.search", "sharpness_probe"),
    ("thresholds.bisect", "meanineq.thresholds", "bisect"),
    ("thresholds.golden_section_min", "meanineq.thresholds", "golden_section_min"),
    ("thresholds.min_a_r", "meanineq.thresholds", "min_a_r"),
    ("thresholds.solve_t1", "meanineq.thresholds", "solve_t1"),
    ("thresholds.solve_t2", "meanineq.thresholds", "solve_t2"),
    ("thresholds.solve_r0", "meanineq.thresholds", "solve_r0"),
    ("thresholds.alpha_threshold_upper", "meanineq.thresholds", "alpha_threshold_upper"),
    ("thresholds.alpha_threshold_lower", "meanineq.thresholds", "alpha_threshold_lower"),
    ("thresholds.r0_value", "meanineq.thresholds", "r0_value"),
    ("proof_aux.aux_sign_check", "meanineq.proof_aux", "aux_sign_check"),
    ("cli.run", "meanineq.cli", "run"),
)
CONFIGURATION = "means.Configuration"
SEARCH_SPANS = ("search.counterexample_hunt", "search.sharpness_probe")

INEQUALITY_TAGS = tuple(tag.value for tag in meanineq.InequalityId)
AUX_TAGS = tuple(tag.value for tag in meanineq.AuxFunctionId)
STATUSES = tuple(status.value for status in meanineq.CheckStatus)


def _note_check(args, kwargs, report):
    return report.id.value, report.status.value, math.isfinite(report.residual_rel)


def _note_delta(args, kwargs, value):
    return math.isfinite(value)


def _note_search(args, kwargs, report):
    return report.evals_used


def _note_bisect(args, kwargs, result):
    return result.iterations


def _note_aux(args, kwargs, report):
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return report.id.value, report.points_checked, len(report.worst_point), grid


NOTES = {
    "inequalities.check": _note_check,
    "means.delta": _note_delta,
    "search.counterexample_hunt": _note_search,
    "search.sharpness_probe": _note_search,
    "thresholds.bisect": _note_bisect,
    "proof_aux.aux_sign_check": _note_aux,
}


class Tracer:
    """Installs span-recording wrappers; spans accumulate until :meth:`take`."""

    def __init__(self) -> None:
        self.names: list[str] = [CONFIGURATION] + [t[0] for t in TARGETS]
        self.spans: list = []
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "meanineq" or name.startswith("meanineq.")]
        cls = meanineq.Configuration
        self._patches.append(
            (cls, "__init__", cls.__init__, self._wrap(0, cls.__init__, None)))
        for name_id, (span, module, attr) in enumerate(TARGETS, start=1):
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name_id, original, NOTES.get(span))
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def _wrap(self, name_id: int, fn, note):
        spans, notes, stack = self.spans, self.notes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def take(self) -> tuple[list, dict]:
        """The spans and notes recorded since the last call, then forget them."""
        spans, notes = list(self.spans), dict(self.notes)
        self.spans.clear()
        self.notes.clear()
        return spans, notes


def layer_metrics(names: list[str], spans: list, notes: dict) -> dict[str, float]:
    """Per-layer counts and self times of one traced round of work."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = {name: 0 for name in names}
    self_s = {name: 0.0 for name in names}
    tag_s = {tag: 0.0 for tag in INEQUALITY_TAGS}
    tag_calls = {tag: 0 for tag in INEQUALITY_TAGS}
    status = {s: 0 for s in STATUSES}
    aux_self = {tag: 0.0 for tag in AUX_TAGS}
    attempted = useful = evals = iterations = points = bytes_computed = 0
    custom_kept = custom_raw = 0
    search_ids = {names.index(n) for n in SEARCH_SPANS}
    check_id = names.index("inequalities.check")
    delta_id = names.index("means.delta")
    for index, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        own = duration - child[index]
        calls[name] += 1
        self_s[name] += own
        note = notes.get(index)
        if name_id in (check_id, delta_id) and parent >= 0 \
                and spans[parent][0] in search_ids:
            attempted += 1
            useful += bool(note and (note[2] if name_id == check_id else note))
        if note is None:
            continue
        if name_id == check_id:
            tag_calls[note[0]] += 1
            tag_s[note[0]] += duration
            status[note[1]] += 1
        elif name_id in search_ids:
            evals += note
        elif name == "thresholds.bisect":
            iterations += note
        elif name == "proof_aux.aux_sign_check":
            tag, kept, arity, grid = note
            aux_self[tag] += own
            points += kept
            bytes_computed += kept * arity * 8
            if grid is not None:
                custom_kept += kept
                custom_raw += math.prod(
                    len(meanineq.GridAxis.from_json_dict(a).points()
                        if isinstance(a, dict) else a.points())
                    for a in grid.values())
    out: dict[str, float] = {
        "means.Configuration.calls": calls[CONFIGURATION],
        "means.Configuration.self_s": self_s[CONFIGURATION],
        "means.log_power_mean.calls": calls["means.log_power_mean"],
        "means.log_power_mean.self_s": self_s["means.log_power_mean"],
        "means.delta.self_s": self_s["means.delta"],
        "means.variance_sigma.self_s": self_s["means.variance_sigma"],
        "inequalities.check.calls": calls["inequalities.check"],
        "inequalities.check.self_s": self_s["inequalities.check"],
    }
    for tag in INEQUALITY_TAGS:
        n = tag_calls[tag]
        out[f"inequalities.check.{tag}.us_per_call"] = 1e6 * tag_s[tag] / n if n else 0.0
    for s in STATUSES:
        out[f"inequalities.check.status.{s}"] = status[s]
    out["search.evals"] = evals
    out["search.self_s"] = sum(self_s[n] for n in SEARCH_SPANS)
    out["search.useful_ratio"] = useful / attempted if attempted else 0.0
    out["thresholds.bisect.calls"] = calls["thresholds.bisect"]
    out["thresholds.bisect.iterations"] = iterations
    out["thresholds.min_a_r.calls"] = calls["thresholds.min_a_r"]
    out["thresholds.min_a_r.self_s"] = self_s["thresholds.min_a_r"]
    out["thresholds.golden_section_min.calls"] = calls["thresholds.golden_section_min"]
    for tag in AUX_TAGS:
        out[f"proof_aux.aux_sign_check.{tag}.self_s"] = aux_self[tag]
    out["proof_aux.points"] = points
    out["proof_aux.bytes_computed"] = bytes_computed
    out["proof_aux.admissible_ratio"] = custom_kept / custom_raw if custom_raw else 0.0
    return out
