"""Every public entry reads its numeric arguments by the one rule in ``meanineq.errors``.

``ROWS`` holds one valid baseline call for every callable in
``meanineq.__all__`` and for the public methods, written as a function of
its numeric arguments; ``EXEMPT`` names the callables that take none, with
the reason.  Each numeric argument in turn is replaced by each value of
``HOSTILE``, and so is one element of an array argument.  Every
substitution must raise a ``MeanIneqError`` subclass, never a TypeError,
ValueError, OverflowError or ZeroDivisionError; None may also be accepted
where the row lists it as the argument's default.
"""

import math
from typing import Callable, NamedTuple

import pytest

import meanineq
from meanineq import (
    Configuration, DeltaParams, DomainError, GridAxis, MeanIneqError, MeanValue, SearchBudget,
    a_r_fn, a_r_values, alpha_threshold_lower, alpha_threshold_upper, aux_eval, aux_sign_check,
    bisect, c_constant, check, claimed_bound, counterexample_hunt, delta, equality_witness,
    finite_difference_probe, gap_exponent_lower, gap_exponent_upper, golden_section_min,
    log_power_mean, mean_value, min_a_r, order_triple, power_mean, r0_value, sharpness_probe,
    solve_r0, solve_t1, solve_t2, variance_sigma,
)
from meanineq.errors import _show

HOSTILE = ("1.5", True, None, 1j, 10**400, -10**400, 10**5000, math.nan, math.inf)

CFG = Configuration([1.0, 4.0], [0.25, 0.75])
HALF = Configuration([1.0, 4.0], [0.5, 0.5])
BUDGET = SearchBudget(max_evals=20, restarts=1)


def _parabola(x):
    return (x - 0.3) ** 2


class Row(NamedTuple):
    name: str  # the public callable, as its package name or Class.method
    call: Callable  # takes the numeric arguments as keywords
    args: dict  # their baseline values
    arrays: tuple = ()  # the arguments that are arrays or tuples of numbers
    optional: tuple = ()  # the arguments whose default is None


ROWS = [
    # means
    Row("Configuration", Configuration, {"x": [1.0, 4.0], "q_weights": [0.25, 0.75]},
        ("x", "q_weights")),
    Row("Configuration.scaled", CFG.scaled, {"c": 2.0}),
    Row("Configuration.from_json_dict",
        lambda x, q: Configuration.from_json_dict({"x": x, "q": q}),
        {"x": [1.0, 4.0], "q": [0.25, 0.75]}, ("x", "q")),
    Row("DeltaParams", DeltaParams, {"r": 1.0, "s": 0.5, "t": 0.0, "alpha": 2.0}),
    Row("MeanValue", MeanValue, {"value": 2.0}),
    Row("c_constant", c_constant, {"r": 1.0, "s": 0.5, "t": 0.0, "xarg": 0.5}),
    Row("delta", lambda: delta(CFG, DeltaParams(1.0, 0.5, 0.0)), {}),
    Row("log_power_mean", lambda r: log_power_mean(CFG, r), {"r": 2.0}),
    Row("mean_value", lambda r: mean_value(CFG, r), {"r": 2.0}),
    Row("order_triple", order_triple, {"a": 0.0, "b": 1.0, "c": 0.5}),
    Row("power_mean", lambda r: power_mean(CFG, r), {"r": 2.0}),
    Row("variance_sigma", lambda: variance_sigma(CFG), {}),
    # inequalities
    Row("check", lambda **kw: check("diananda-upper", CFG, **kw),
        {"triple": (1.0, 0.5, 0.0), "alpha": 1.5, "rel_tol": 1e-9, "abs_floor": 1e-12},
        ("triple",), ("alpha", "rel_tol", "abs_floor")),
    Row("check", lambda r, s: check("cartwright-field-upper", CFG, r=r, s=s),
        {"r": 1.0, "s": 0.0}),
    Row("equality_witness", lambda r, tol: equality_witness("half-mean-var-upper", HALF, r=r,
                                                            tol=tol),
        {"r": 1.0, "tol": 1e-12}, (), ("r",)),
    # thresholds
    Row("a_r_fn", a_r_fn, {"r": 1.5, "t": 0.5}),
    Row("a_r_values", a_r_values, {"r": 1.5, "t": [0.25, 0.5]}, ("t",)),
    Row("alpha_threshold_lower", alpha_threshold_lower, {"r": 2.5}),
    Row("alpha_threshold_upper", alpha_threshold_upper, {"r": 1.5}),
    Row("bisect", lambda **kw: bisect(lambda x: x - 0.3, **kw),
        {"lo": 0.0, "hi": 1.0, "xtol": 1e-13, "max_iter": 200}),
    Row("gap_exponent_lower", gap_exponent_lower, {"r": 2.5}),
    Row("gap_exponent_upper", gap_exponent_upper, {"r": 1.5}),
    Row("golden_section_min", lambda **kw: golden_section_min(_parabola, **kw),
        {"lo": 0.0, "hi": 1.0, "xtol": 1e-10, "max_iter": 200}),
    Row("min_a_r", min_a_r, {"r": 1.5}),
    Row("r0_value", r0_value, {}),
    Row("solve_r0", solve_r0, {}),
    Row("solve_t1", solve_t1, {"r": 1.5}),
    Row("solve_t2", solve_t2, {"r": 2.5}),
    # proof_aux
    Row("GridAxis", GridAxis, {"lo": 0.75, "hi": 1.0, "count": 3}),
    Row("GridAxis.from_json_dict", lambda **kw: GridAxis.from_json_dict(kw),
        {"lo": 0.75, "hi": 1.0, "count": 3}),
    Row("aux_eval", lambda args: aux_eval("exponent-margin", args), {"args": (0.75, 1.0)},
        ("args",)),
    Row("aux_sign_check", lambda **kw: aux_sign_check("exponent-margin", **kw),
        {"tolerance": 1e-10, "max_points": 10**6}),
    Row("claimed_bound", lambda: claimed_bound("exponent-margin"), {}),
    # search
    Row("SearchBudget", SearchBudget,
        {"max_evals": 20, "seed": 1, "n_range": (2, 3), "restarts": 1}, ("n_range",)),
    Row("counterexample_hunt", lambda r: counterexample_hunt("mg-sigma-upper", r=r,
                                                             budget=BUDGET),
        {"r": 1.0}),
    Row("finite_difference_probe",
        lambda r, a: finite_difference_probe("smallest-sample-slope", CFG, r=r, a=a),
        {"r": 1.5, "a": 0.05}, (), ("a",)),
    Row("sharpness_probe", lambda **kw: sharpness_probe("diananda-upper", **kw, budget=BUDGET),
        {"triple": (1.0, 0.5, 0.0), "alpha": 1.0, "q_target": 0.3}, ("triple",), ("alpha",)),
]

# The public callables that take no numeric argument a caller supplies.
EXEMPT = {
    **dict.fromkeys(("ConfigError", "DegenerateInput", "DomainError", "MeanIneqError"),
                    "an exception type"),
    **dict.fromkeys(("AuxFunctionId", "CheckStatus", "InequalityId", "ProbeClaim"),
                    "an enum of names, not numbers"),
    **dict.fromkeys(("CheckReport", "SearchReport", "SignCheckReport", "ThresholdResult"),
                    "a report type: the library builds it from values it has read"),
}

# Calls that each raised a foreign exception or were accepted before every
# public entry read its arguments by the rule.
NAMED = {
    "Configuration([1, 10**400], q)": lambda: Configuration([1, 10**400], [0.5, 0.5]),
    "log_power_mean(cfg, '1')": lambda: log_power_mean(CFG, "1"),
    "log_power_mean(cfg, 10**400)": lambda: log_power_mean(CFG, 10**400),
    "power_mean(cfg, 1j)": lambda: power_mean(CFG, 1j),
    "DeltaParams('1', .5, 0)": lambda: DeltaParams("1", 0.5, 0),
    "DeltaParams(10**400, .5, 0)": lambda: DeltaParams(10**400, 0.5, 0),
    "c_constant('1', .5, 0, .3)": lambda: c_constant("1", 0.5, 0, 0.3),
    "c_constant(10**400, .5, 0, .3)": lambda: c_constant(10**400, 0.5, 0, 0.3),
    "MeanValue('1')": lambda: MeanValue("1"),
    "cfg.scaled('2')": lambda: CFG.scaled("2"),
    "bisect(f, '0', 1.0)": lambda: bisect(lambda x: x, "0", 1.0),
    "Configuration(['1', '2'], q)": lambda: Configuration(["1", "2"], [0.5, 0.5]),
    "Configuration([True, 2], q)": lambda: Configuration([True, 2], [0.5, 0.5]),
    "log_power_mean(cfg, True)": lambda: log_power_mean(CFG, True),
    "mean_value(cfg, True)": lambda: mean_value(CFG, True),
    "DeltaParams(True, .5, 0)": lambda: DeltaParams(True, 0.5, 0),
    "cfg.scaled(True)": lambda: CFG.scaled(True),
    "a_r_fn(1.5, '0.5')": lambda: a_r_fn(1.5, "0.5"),
    "equality_witness(..., tol='1')": lambda: equality_witness("diananda-upper", CFG, tol="1"),
    "Configuration([1+0j, 2], q)": lambda: Configuration([1 + 0j, 2], [0.5, 0.5]),
    "SearchBudget(n_range=5)": lambda: SearchBudget(n_range=5),
    "SearchBudget(n_range=(2, 3, 4))": lambda: SearchBudget(n_range=(2, 3, 4)),
}


def test_every_public_callable_has_a_row_or_an_exemption():
    public = {name for name in meanineq.__all__ if callable(getattr(meanineq, name))}
    rows = {row.name for row in ROWS}
    assert public - rows - set(EXEMPT) == set()
    assert rows & set(EXEMPT) == set()
    assert (rows | set(EXEMPT)) - public == {
        "Configuration.scaled", "Configuration.from_json_dict", "GridAxis.from_json_dict"}


def _substitutions():
    for row in ROWS:
        for arg in row.args:
            yield pytest.param(row, arg, False, id=f"{row.name}-{arg}")
            if arg in row.arrays:
                yield pytest.param(row, arg, True, id=f"{row.name}-{arg}[0]")


def _outcome(call, args: dict):
    """The exception the call raises, or None."""
    try:
        call(**args)
    except Exception as exc:  # noqa: BLE001 -- which exception is the subject here
        return exc
    return None


@pytest.mark.parametrize("row, arg, element", _substitutions())
def test_hostile_argument_raises_a_library_error(row, arg, element):
    assert _outcome(row.call, row.args) is None, "the baseline call must succeed"
    wrong = []
    for value in HOSTILE:
        if element:
            value = type(row.args[arg])([value, *row.args[arg][1:]])
        exc = _outcome(row.call, {**row.args, arg: value})
        accepted_default = value is None and arg in row.optional
        if not isinstance(exc, MeanIneqError) and not (accepted_default and exc is None):
            wrong.append(f"{_show(value)}: {'accepted' if exc is None else repr(exc)}")
    assert wrong == []


@pytest.mark.parametrize("call", NAMED.values(), ids=NAMED.keys())
def test_named_hostile_call_raises_a_library_error(call):
    with pytest.raises(MeanIneqError):
        call()


# 10**5000 has more digits than ``repr`` writes for an int; these messages
# used to raise ValueError while echoing it.
@pytest.mark.parametrize("call, message", [
    (lambda: SearchBudget(max_evals=10**5000),
     "max_evals must be an integer of at most 64 bits, got <int of 16610 bits>"),
    (lambda: GridAxis(0, 1, 10**5000),
     "count must be an integer of at most 64 bits, got <int of 16610 bits>"),
    (lambda: Configuration([10**5000, 1], [0.5, 0.5]),
     "samples must be real numbers, got [<int of 16610 bits>, 1]"),
    (lambda: SearchBudget(n_range=10**5000),
     "n_range must be two integers, got <int of 16610 bits>"),
    (lambda: GridAxis(0, 1, 3, log=10**5000),
     "log must be true or false, got <int of 16610 bits>"),
    (lambda: aux_eval("exponent-margin", 10**5000),
     "exponent-margin takes arguments ('x', 'r'), got <int of 16610 bits>"),
    (lambda: check("diananda-upper", CFG, triple=10**5000),
     "diananda-upper needs a triple of three orders (got <int of 16610 bits>)"),
    (lambda: MeanValue(1.0, 10**5000), "unknown convention <int of 16610 bits>"),
    (lambda: GridAxis.from_json_dict({"lo": 0, "hi": 1, "count": 3, 10**5000: 1}),
     "a JSON axis has unknown keys [<int of 16610 bits>]"),
    (lambda: aux_sign_check("exponent-margin", {10**5000: None}),
     "grid has axes (<int of 16610 bits>,), but this tag takes ('x', 'r')"),
], ids=["max_evals", "count", "samples", "n_range", "log-flag", "aux-args", "triple",
        "convention", "axis-key", "grid-key"])
def test_an_integer_too_long_to_print_is_named_by_its_bits(call, message):
    with pytest.raises(MeanIneqError) as info:
        call()
    assert str(info.value) == message


# Each was accepted before: a negative tolerance made equality_witness answer
# False where the default answers True, and the solvers returned a point.
@pytest.mark.parametrize("call, message", [
    (lambda: equality_witness("diananda-base-upper", Configuration([0, 1], [0.3, 0.7]), tol=-1),
     "tol must be finite and >= 0 (got -1.0)"),
    (lambda: bisect(lambda x: x - 0.3, 0, 1, max_iter=-3), "max_iter must be >= 0 (got -3)"),
    (lambda: bisect(lambda x: x - 0.3, 0, 1, xtol=-1e-13),
     "xtol must be finite and >= 0 (got -1e-13)"),
    (lambda: golden_section_min(_parabola, 0, 1, xtol=-1.0),
     "xtol must be finite and >= 0 (got -1.0)"),
    (lambda: golden_section_min(_parabola, 0, 1, max_iter=-1), "max_iter must be >= 0 (got -1)"),
], ids=["witness-tol", "bisect-max_iter", "bisect-xtol", "golden-xtol", "golden-max_iter"])
def test_a_negative_tolerance_or_iteration_cap_is_refused(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_zero_tolerance_and_iteration_cap_are_accepted():
    assert equality_witness("diananda-base-upper", Configuration([0, 1], [0.3, 0.7]))
    assert equality_witness("diananda-base-upper", Configuration([0, 1], [0.3, 0.7]), tol=0.0)
    assert bisect(lambda x: x - 0.3, 0, 1, xtol=0.0, max_iter=0).iterations == 0
    # no iteration: the best of the two ends and the first two interior points
    assert golden_section_min(_parabola, 0, 1, xtol=0.0, max_iter=0)[0] == pytest.approx(
        (3.0 - math.sqrt(5.0)) / 2.0)
