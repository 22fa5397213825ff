"""Command-line front end.

Six subcommands: ``mean`` (evaluate a power mean), ``check`` (one
inequality on one configuration), ``threshold`` (solve a sharp parameter
threshold), ``sharpness`` (boundary-configuration probe), ``hunt``
(counterexample search) and ``sweep`` (emit plot-ready tables).

Exit codes: 0 when the outcome is Holds/Equality/AllSatisfy/
NoViolationFound/SupremumGap, 1 when it is Violated/ViolationFound, 2 on
usage or domain errors.  Reports are single JSON documents (default) or
headered CSV; numbers are emitted in shortest round-trip decimal form, so
identical invocations produce byte-identical reports.

Each option (its flag and its JSON types) is written once, in ``_OPTIONS``,
and each command (its help, executor and options) once, in ``_COMMANDS``.
The parser and the config-file checks read both, so a file option that the
command does not take is a usage error, as its flag would be.

Weights given on the command line are normalized by their sum when it is
within 1e-6 of 1 and rejected otherwise.  The default relative tolerance
of ``check`` can be set via the MEANINEQ_TOL environment variable and
overridden per run with --tol.  A JSON run-configuration file mirroring
the flags can be supplied at the top level: ``meanineq --config run.json
[command ...]``; explicit flags win over file entries.  A number in the
file is read by the library's rule: an integer past the float range reads
as +-inf, which the command then refuses with its usual message.

A command loads only the modules it runs.  This module imports no numpy,
and reads ``means``, ``inequalities`` and ``search`` as module attributes
when a command runs: the package registers them without running their
bodies, and a body runs, binding its names in the package, only on its
first attribute read (see ``meanineq/__init__.py``).  ``threshold`` and
``sweep --quantity alpha-threshold`` therefore run without numpy: the
sweep's axis is computed in Python floats equal to ``np.linspace`` bit
for bit, and the ``--ineq`` catalog listing is rendered only when help is
printed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from . import inequalities, means, search
from .errors import MeanIneqError, _to_float
from .thresholds import (
    alpha_threshold_lower,
    alpha_threshold_upper,
    a_r_values,
    min_a_r,
    solve_r0,
    solve_t1,
    solve_t2,
)

_TOL_ENV = "MEANINEQ_TOL"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """One parsed run: a command plus its options; round-trips through JSON."""

    command: str
    options: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "json"

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunConfig":
        if not isinstance(payload, dict):
            raise MeanIneqError("a run configuration must be a JSON object")
        options = payload.get("options", {})
        if not isinstance(options, dict):
            raise MeanIneqError("'options' must be a JSON object")
        for key, value in options.items():
            if key not in _OPTIONS:
                raise MeanIneqError(f"unknown option {key!r}")
            kind = _OPTIONS[key][0]
            # type(), not isinstance(): true and false are no numbers
            if value is not None and type(value) not in kind.json:
                raise MeanIneqError(f"option {key!r} must be {kind.what}, got {json.dumps(value)}")
        command = payload.get("command", "")
        if not isinstance(command, str):
            raise MeanIneqError(f"'command' must be a string, got {json.dumps(command)}")
        output = payload.get("output")
        if not isinstance(output, (str, type(None))):
            raise MeanIneqError(f"'output' must be a path, got {json.dumps(output)}")
        fmt = payload.get("format", "json")
        if fmt not in _FORMATS:
            raise MeanIneqError(f"'format' must be {' or '.join(map(json.dumps, _FORMATS))}, "
                                f"got {json.dumps(fmt)}")
        # a number by the library's rule: an integer past the float range reads as +-inf
        return cls(command=command,
                   options={key: _to_float(value) if _OPTIONS[key][0] is _NUMBER else value
                            for key, value in options.items() if value is not None},
                   output=output, format=fmt)


# The report formats, for --format and a run configuration's "format".
_FORMATS = ("json", "csv")

# The most rows a sweep emits; a larger grid count is refused before any is built.
_MAX_GRID_ROWS = 10**6


def _floats(value) -> list[float]:
    """Numbers given as a comma-separated string or, in a config file, as a list."""
    parts = value if isinstance(value, list) else str(value).split(",")
    # float() reads true and false as 1.0 and 0.0, but they are no numbers
    if not any(isinstance(part, bool) for part in parts):
        try:
            return [float(part) for part in parts if part != ""]
        except (TypeError, ValueError, OverflowError):
            pass
    raise MeanIneqError(f"could not parse number list {value!r}")


def _grid_triplet(text: str) -> tuple[float, float, int]:
    parts = str(text).split(",")
    if len(parts) != 3:
        raise MeanIneqError("--grid expects lo,hi,count")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise MeanIneqError(
            f"--grid expects numbers lo,hi and an integer count, got {text!r}") from None


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """``np.linspace(lo, hi, count).tolist()``, bit for bit, without numpy.

    numpy takes point i as i * step + lo with step = (hi - lo) / (count - 1),
    as i / (count - 1) * (hi - lo) + lo when that step underflows to 0, and
    sets the last point to hi; a single point is 0 * (hi - lo) + lo.
    """
    delta = hi - lo
    if count == 1:
        return [0.0 * delta + lo]
    div = count - 1
    step = delta / div
    if step == 0.0:
        return [*(i / div * delta + lo for i in range(div)), hi]
    return [*(i * step + lo for i in range(div)), hi]


def _configuration(options: dict) -> means.Configuration:
    x = options.get("x")
    q = options.get("q")
    if x is None or q is None:
        raise MeanIneqError("both --x and --q are required")
    xs, qs = _floats(x), _floats(q)
    total = sum(qs)
    if abs(total - 1.0) > 1e-6:
        raise MeanIneqError(
            f"weights sum to {total!r}; more than 1e-6 away from 1, refusing to normalize"
        )
    qs = [v / total for v in qs]
    return means.Configuration(xs, qs)


def _ineq_params(options: dict) -> dict:
    """The tag parameters given, and ``triple`` always (None when not given)."""
    out = {key: options[key] for key in ("alpha", "r", "s") if key in options}
    out["triple"] = options.get("triple")
    if out["triple"] is not None:
        out["triple"] = tuple(_floats(out["triple"]))
        if len(out["triple"]) != 3:
            raise MeanIneqError("--triple expects three comma-separated orders")
    return out


def _budget(options: dict) -> search.SearchBudget:
    default = search.SearchBudget()
    return search.SearchBudget(
        max_evals=options.get("budget", default.max_evals),
        seed=options.get("seed", default.seed),
        n_range=(options.get("n_min", default.n_range[0]),
                 options.get("n_max", default.n_range[1])),
        restarts=options.get("restarts", default.restarts),
    )


def _required(options: dict, key: str, where: str = ""):
    """Option ``key``, which the command needs (``where``: for what)."""
    if options.get(key) is None:
        raise MeanIneqError(f"--{key.replace('_', '-')} is required{where}")
    return options[key]


def _tolerance(options: dict) -> float | None:
    """--tol, else MEANINEQ_TOL, refused under its own name unless finite and >= 0."""
    name, tol = "--tol", options.get("tol")
    if tol is None:
        name, env = _TOL_ENV, os.environ.get(_TOL_ENV)
        if not env:
            return None
        try:
            tol = float(env)
        except ValueError:
            raise MeanIneqError(f"{_TOL_ENV} must be a number, got {env!r}") from None
    if not math.isfinite(tol):
        raise MeanIneqError(f"{name} must be a finite real number, got {tol}")
    if tol < 0.0:
        raise MeanIneqError(f"{name} must be >= 0, got {tol}")
    return tol


def _exec_mean(options: dict):
    cfg = _configuration(options)
    return means.power_mean(cfg, float(_required(options, "r"))), EXIT_OK


def _exec_check(options: dict):
    tag = inequalities.InequalityId(_required(options, "ineq"))
    cfg = _configuration(options)
    report = inequalities.check(
        tag,
        cfg,
        force=bool(options.get("force")),
        rel_tol=_tolerance(options),
        **_ineq_params(options),
    )
    code = EXIT_VIOLATION if report.status is inequalities.CheckStatus.VIOLATED else EXIT_OK
    return report.to_json_dict(), code


def _lookup(table: dict, options: dict, key: str, command: str, what: str):
    """The entry of ``table`` that option ``key`` names; it refuses options it does not read."""
    name = _required(options, key)
    if name not in table:
        raise MeanIneqError(f"unknown {what} {name!r}")
    run, takes = table[name]
    for extra in options:
        if extra != key and extra not in takes:
            raise MeanIneqError(f"{command} {name} takes no option {extra!r}")
    return run


def _at_r(report):
    """A threshold solved at --r: ``report(r)``, once --r is given; it reads --r."""
    def run(options: dict):
        return report(float(_required(options, "r", f" for --which {options['which']}")))

    return run, ("r",)


# --which: each threshold's report, and the options it reads besides --which.
_THRESHOLDS = {
    "r0": (lambda options: solve_r0().to_json_dict(), ()),
    "t1": _at_r(lambda r: solve_t1(r).to_json_dict()),
    "t2": _at_r(lambda r: solve_t2(r).to_json_dict()),
    "alpha-upper": _at_r(lambda r: {"r": r, "value": alpha_threshold_upper(r)}),
    "alpha-lower": _at_r(lambda r: {"r": r, "value": alpha_threshold_lower(r)}),
    "min-a": _at_r(lambda r: dict(zip(("r", "t_star", "a_star"), (r, *min_a_r(r))))),
}


def _exec_threshold(options: dict):
    return _lookup(_THRESHOLDS, options, "which", "threshold", "threshold")(options), EXIT_OK


def _exec_sharpness(options: dict):
    report = search.sharpness_probe(inequalities.InequalityId(_required(options, "ineq")),
                                    q_target=float(_required(options, "q_target")),
                                    budget=_budget(options), **_ineq_params(options))
    return report.to_json_dict(), EXIT_OK


def _exec_hunt(options: dict):
    report = search.counterexample_hunt(
        inequalities.InequalityId(_required(options, "ineq")),
        budget=_budget(options),
        **_ineq_params(options),
    )
    code = EXIT_VIOLATION if report.verdict == "ViolationFound" else EXIT_OK
    return report.to_json_dict(), code


def _sweep_profile(options: dict, lo: float, hi: float, axis: list[float]) -> dict:
    r = float(_required(options, "r", " for the profile sweep"))
    if not 0.0 <= lo <= hi <= 1.0:
        raise MeanIneqError("the profile sweep needs a t-grid inside [0, 1]")
    rows = [[t, a] for t, a in zip(axis, a_r_values(r, axis).tolist())]
    return {"columns": ["t", "a_r"], "rows": rows}


def _sweep_alpha_threshold(options: dict, lo: float, hi: float, axis: list[float]) -> dict:
    rows = [[r, (alpha_threshold_upper if r < 2.0 else alpha_threshold_lower)(r)]
            for r in axis]
    return {"columns": ["r", "alpha"], "rows": rows}


def _sweep_residual_boundary(options: dict, lo: float, hi: float, axis: list[float]) -> dict:
    ids = inequalities.InequalityId
    tag = ids(options.get("ineq") or "diananda-base-upper")
    if tag not in (ids.DIANANDA_BASE_UPPER, ids.DIANANDA_BASE_LOWER):
        raise MeanIneqError("the boundary sweep applies to the parameter-free base inequalities")
    if not 0.0 < lo <= hi <= 0.5:
        raise MeanIneqError("the boundary sweep needs a q-grid inside (0, 1/2]")
    rows = []
    for q in axis:
        low = inequalities.check(tag, means.Configuration([0.0, 1.0], [q, 1.0 - q]))
        high = inequalities.check(tag, means.Configuration([0.0, 1.0], [1.0 - q, q]))
        rows.append([q, low.residual, high.residual])
    return {"columns": ["q", "residual_min_on_zero", "residual_min_on_unit"], "rows": rows}


# --quantity: each sweep's table over the grid (lo, hi, points), and the
# options it reads besides --quantity.
_SWEEPS = {
    "a-r-profile": (_sweep_profile, ("grid", "r")),
    "alpha-threshold": (_sweep_alpha_threshold, ("grid",)),
    "residual-boundary": (_sweep_residual_boundary, ("grid", "ineq")),
}


def _exec_sweep(options: dict):
    sweep = _lookup(_SWEEPS, options, "quantity", "sweep", "sweep quantity")
    lo, hi, count = _grid_triplet(_required(options, "grid"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise MeanIneqError(f"grid ends must be finite (got {lo}, {hi})")
    if not 1 <= count <= _MAX_GRID_ROWS:
        raise MeanIneqError(f"grid count must lie between 1 and {_MAX_GRID_ROWS}")
    return sweep(options, lo, hi, _linspace(lo, hi, count)), EXIT_OK


class _Kind(NamedTuple):
    flag: dict  # argparse keywords of the flag
    json: tuple  # the JSON types a run configuration may give the option
    what: str  # their name, in messages and in the README's option table


_NUMBER = _Kind({"type": float}, (float, int), "a number")
_INTEGER = _Kind({"type": int}, (int,), "an integer")
_STRING = _Kind({}, (str,), "a string")
_NUMBERS = _Kind({}, (str, list), "a string or a list of numbers")
_SWITCH = _Kind({"action": "store_true", "default": None}, (bool,), "true or false")

# Every option: its kind, and the rest of its flag --<name> (underscores as
# hyphens).  The search defaults in the help are SearchBudget()'s.
_OPTIONS = {
    "x": (_NUMBERS, {"help": "comma-separated samples"}),
    "q": (_NUMBERS, {"help": "comma-separated weights (sum within 1e-6 of 1)"}),
    "ineq": (_STRING, {"help": "inequality tag, with its stated hypotheses: "}),
    "triple": (_NUMBERS, {"help": "three comma-separated mean orders"}),
    "alpha": (_NUMBER, {"help": "comparison exponent"}),
    "r": (_NUMBER, {"help": "mean order, or the tag's order parameter"}),
    "s": (_NUMBER, {"help": "the tag's second order parameter"}),
    "tol": (_NUMBER, {"help": f"relative tolerance override (or env {_TOL_ENV})"}),
    "force": (_SWITCH, {"help": "evaluate outside the stated hypothesis ranges"}),
    "which": (_STRING, {"choices": tuple(_THRESHOLDS), "help": "threshold to solve"}),
    "q_target": (_NUMBER, {"help": "pinned minimum weight in (0, 1/2]"}),
    "budget": (_INTEGER, {"help": "evaluation budget (default 100000)"}),
    "seed": (_INTEGER, {"help": "random seed (default 0)"}),
    "restarts": (_INTEGER, {"help": "random restarts (default 20)"}),
    "n_min": (_INTEGER, {"help": "smallest n (default 2)"}),
    "n_max": (_INTEGER, {"help": "largest n (default 4)"}),
    "quantity": (_STRING, {"choices": tuple(_SWEEPS), "help": "quantity to tabulate"}),
    "grid": (_STRING, {"help": f"axis as lo,hi,count (count at most {_MAX_GRID_ROWS})"}),
}


class _Command(NamedTuple):
    help: str
    execute: Callable[[dict], tuple]  # options -> (report, exit code)
    options: tuple  # the keys of _OPTIONS it takes


_CONFIG = ("x", "q")
_TAG = ("ineq", "triple", "alpha")
_SEARCH = ("budget", "seed", "restarts", "n_min", "n_max")

_COMMANDS = {
    "mean": _Command("evaluate a weighted power mean", _exec_mean, (*_CONFIG, "r")),
    "check": _Command("check one inequality on one configuration", _exec_check,
                      (*_CONFIG, *_TAG, "r", "s", "tol", "force")),
    "threshold": _Command("solve a sharp parameter threshold", _exec_threshold, ("which", "r")),
    "sharpness": _Command("probe sharpness at the two-point boundary configuration",
                          _exec_sharpness, (*_TAG, "q_target", *_SEARCH)),
    "hunt": _Command("search configurations for a violation", _exec_hunt,
                     (*_TAG, "r", "s", *_SEARCH)),
    "sweep": _Command("emit a plot-ready table for one quantity", _exec_sweep,
                      ("quantity", "r", "grid", "ineq")),
}


class _HelpFormatter(argparse.HelpFormatter):
    """Help whose --ineq entry lists the catalog, rendered only when help is printed.

    Building the parser then does not load ``inequalities``.
    """

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.dest != "ineq":
            return super()._get_help_string(action)
        return action.help + "; ".join(f"{id.value} ({tag.hypotheses})"
                                       for id, tag in inequalities._CATALOG.items())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument("--format", choices=_FORMATS, default=None,
                        help="report format (default json)")
    parser = argparse.ArgumentParser(
        prog="meanineq",
        description="Evaluate weighted power-mean inequalities, solve their sharp "
                    "thresholds and search configurations for counterexamples.",
    )
    parser.add_argument("--config", help="JSON run-configuration file mirroring the flags")
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        # no prefix matching: sharpness --r would otherwise be read as --restarts
        p = sub.add_parser(name, parents=[common], help=command.help, allow_abbrev=False,
                           formatter_class=_HelpFormatter)
        for key in command.options:
            kind, flag = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, **kind.flag, **flag)
    return parser


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {key: getattr(args, key) for key in _OPTIONS if getattr(args, key, None) is not None}
    file_rc = RunConfig(command="")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            file_rc = RunConfig.from_json_dict(json.load(handle))
    command = args.command or file_rc.command
    if not command:
        raise MeanIneqError("no command given (flag or config file)")
    output = getattr(args, "output", None) or file_rc.output
    fmt = getattr(args, "format", None) or file_rc.format
    return RunConfig(command=command, options={**file_rc.options, **options}, output=output,
                     format=fmt)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str)):
        return str(value)
    if value is None:
        return ""
    return json.dumps(value, sort_keys=True)


def _to_csv(payload) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if isinstance(payload, dict) and "columns" in payload and "rows" in payload:
        rows = [payload["columns"], *payload["rows"]]
    elif isinstance(payload, dict):
        rows = [list(payload), list(payload.values())]
    else:
        rows = [["value"], [payload]]
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buffer.getvalue()


def _emit(payload, run_config: RunConfig) -> None:
    if run_config.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if run_config.output:
        with open(run_config.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _is_numbers(token: str) -> bool:
    """Whether each comma-separated part of ``token`` reads as a float."""
    try:
        for part in token.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with ``--flag -1e-3`` as ``--flag=-1e-3``, for each flag that takes a value.

    argparse reads a token that starts with ``-`` as a flag unless it looks
    like a plain negative number, so an exponent (``-1e-3``) or a list
    (``-1,1,3``) would otherwise be refused as a missing value.
    """
    flags = {"--" + key.replace("_", "-") for key, (kind, _) in _OPTIONS.items()
             if kind is not _SWITCH}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-") and _is_numbers(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute exactly one command, write one report."""
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        run_config = _run_config_from_args(args)
        command = _COMMANDS.get(run_config.command)
        if command is None:
            raise MeanIneqError(f"unknown command {run_config.command!r}")
        for key in run_config.options:
            if key not in command.options:
                raise MeanIneqError(f"{run_config.command} takes no option {key!r}")
        payload, code = command.execute(run_config.options)
        _emit(payload, run_config)
    except (MeanIneqError, OSError, ValueError) as exc:
        print(f"meanineq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
