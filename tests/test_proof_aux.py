import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from meanineq import (
    AuxFunctionId,
    DomainError,
    GridAxis,
    a_r_fn,
    aux_eval,
    aux_sign_check,
    claimed_bound,
    gap_exponent_lower,
    gap_exponent_upper,
    min_a_r,
    r0_value,
)
from meanineq import proof_aux
from meanineq.proof_aux import DEFAULT_SIGN_TOL

from conftest import rst_table_rows

R0 = r0_value()


class TestAuxEval:
    def test_exponent_margin_anchor(self):
        # e(x, 1) = x^2 - 1/2: at x = 3/4 this is 9/16 - 1/2 = 1/16.
        assert aux_eval(AuxFunctionId.EXPONENT_MARGIN, (0.75, 1.0)) == pytest.approx(
            1.0 / 16.0, abs=1e-15
        )

    def test_tangent_slope_root(self):
        assert aux_eval(AuxFunctionId.TANGENT_SLOPE, (1.0 / 3.0, R0)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_envelope_limit_toward_zero_weight(self):
        # the correction decays like q^{2-1/r}, so it is ~1e-5 at q = 1e-10
        for r in (R0, 0.8, 1.0):
            assert aux_eval(AuxFunctionId.ENVELOPE_HI_WEIGHT, (1e-10, r)) == pytest.approx(
                1.0 / 3.0, abs=1e-4
            )

    def test_core_equality_at_profile_exponent(self):
        for r, t in ((1.4, 0.3), (1.8, 0.7)):
            a = a_r_fn(r, t)
            assert aux_eval(AuxFunctionId.CORE_UPPER, (r, a, t)) == pytest.approx(0.0, abs=1e-13)
        for r, t in ((2.5, 0.4), (4.0, 0.8)):
            a = a_r_fn(r, t)
            assert aux_eval(AuxFunctionId.CORE_LOWER, (r, a, t)) == pytest.approx(0.0, abs=1e-13)

    def test_tangent_cubic_vanishes_at_one(self):
        for q in (0.05, 0.2, 1.0 / 3.0):
            for r in (R0, 0.85, 1.0):
                assert aux_eval(AuxFunctionId.TANGENT_CUBIC, (1.0, q, r)) == pytest.approx(
                    0.0, abs=1e-14
                )

    def test_three_sample_zero_at_unit(self):
        assert aux_eval(
            AuxFunctionId.THREE_SAMPLE_LOWER, (1.0, 0.33, 0.33, 0.34, 1.0)
        ) == pytest.approx(0.0, abs=1e-14)

    def test_three_sample_inadmissible_weights_rejected(self):
        with pytest.raises(DomainError):
            aux_eval(AuxFunctionId.THREE_SAMPLE_LOWER, (2.0, 0.1, 0.1, 0.8, 2.0))
        with pytest.raises(DomainError):
            aux_eval(AuxFunctionId.THREE_SAMPLE_LOWER, (2.0, 0.4, 0.3, 0.4, 1.0))

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            aux_eval(AuxFunctionId.EXPONENT_MARGIN, (0.75,))

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            aux_eval(AuxFunctionId.CORE_UPPER, (0.9, 0.1, 0.5))
        with pytest.raises(DomainError):
            aux_eval(AuxFunctionId.GROWTH_RATIO_MONOTONE, (2.0, 1.0))
        with pytest.raises(DomainError):
            aux_eval(AuxFunctionId.SHIFTED_RATIO_MONOTONE, (2.0, 1.5, 0.5, 3.0))  # p < r

    @pytest.mark.parametrize("tag, args", [
        (AuxFunctionId.EXPONENT_MARGIN, (math.nan, 1.0)),
        (AuxFunctionId.EXPONENT_MARGIN, (math.inf, 1.0)),
        (AuxFunctionId.CORE_UPPER, (1.5, math.nan, 0.5)),
        (AuxFunctionId.CORE_UPPER, (math.inf, 0.1, 0.5)),
        (AuxFunctionId.LINEAR_GAP_BOUND, (1.5, math.nan, 0.5)),
        (AuxFunctionId.TANGENT_CUBIC, (math.nan, 0.2, 0.8)),
        (AuxFunctionId.THREE_SAMPLE_LOWER, (-math.inf, 0.3, 0.3, 0.4, 1.0)),
    ])
    def test_non_finite_arguments_rejected(self, tag, args):
        with pytest.raises(DomainError,
                           match=f"^{tag.value} argument .* must be a finite real number, got "):
            aux_eval(tag, args)

    @pytest.mark.parametrize("arg, message", [
        ("a", "argument x must be a finite real number, got 'a'"),
        (1j, "argument x must be a finite real number, got 1j"),
        (True, "argument x must be a finite real number, got True"),
        (10**400, "argument x must be a finite real number, got inf"),
    ], ids=["text", "complex", "bool", "past-float-range"])
    def test_non_real_arguments_rejected(self, arg, message):
        # These used to raise ValueError, TypeError and OverflowError, and a
        # bool was read as 1.0.
        with pytest.raises(DomainError, match=f"exponent-margin {message}"):
            aux_eval(AuxFunctionId.EXPONENT_MARGIN, (arg, 1.5))

    def test_claimed_bounds_exposed(self):
        assert claimed_bound(AuxFunctionId.ENVELOPE_HI_WEIGHT) == ("le", 0.5)
        assert claimed_bound(AuxFunctionId.EXPONENT_MARGIN) == ("ge", 0.0)


class TestDefaultSignChecks:
    @pytest.mark.parametrize("tag", list(AuxFunctionId))
    def test_all_satisfy_on_claimed_domains(self, tag):
        report = aux_sign_check(tag)
        assert report.verdict == "AllSatisfy", report.worst_point
        assert report.points_checked > 100
        assert set(report.worst_point) == set(
            {
                AuxFunctionId.CORE_UPPER: ("r", "a", "t"),
                AuxFunctionId.CORE_LOWER: ("r", "a", "t"),
                AuxFunctionId.SHIFTED_RATIO_MONOTONE: ("r", "p", "s", "z"),
                AuxFunctionId.LINEAR_GAP_BOUND: ("r", "a", "t"),
                AuxFunctionId.BINOMIAL_CHAIN: ("r", "t"),
                AuxFunctionId.GROWTH_RATIO_MONOTONE: ("r", "t"),
                AuxFunctionId.ENVELOPE_HI_WEIGHT: ("q", "r"),
                AuxFunctionId.ENVELOPE_LO_WEIGHT: ("q", "r"),
                AuxFunctionId.TANGENT_SLOPE: ("q", "r"),
                AuxFunctionId.TANGENT_CUBIC: ("x", "q", "r"),
                AuxFunctionId.EXPONENT_MARGIN: ("x", "r"),
                AuxFunctionId.THREE_SAMPLE_LOWER: ("y", "q1", "q2", "q3", "r"),
            }[tag]
        )

    @pytest.mark.parametrize("tolerance", [True, "1e-10", 1e-10j, None])
    def test_tolerance_must_be_a_number(self, tolerance):
        # True used to run with tolerance 1.
        with pytest.raises(DomainError, match="^tolerance must be a finite real number, got "):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        # exponent-margin holds with margin 0.0625; a NaN or negative
        # tolerance used to report ViolationFound.
        with pytest.raises(DomainError, match="tolerance"):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, tolerance=tolerance)
        assert aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, tolerance=0.0).verdict == "AllSatisfy"

    def test_reports_are_deterministic(self):
        a = aux_sign_check(AuxFunctionId.ENVELOPE_HI_WEIGHT).to_json_dict()
        b = aux_sign_check(AuxFunctionId.ENVELOPE_HI_WEIGHT).to_json_dict()
        assert a == b


class TestDefaultGridColumns:
    """Each default grid's a column is the value its description names, bit for bit."""

    def test_linear_gap_a_is_the_solved_gap_exponent(self):
        # alpha_threshold_upper(r) - 1 and 1 - alpha_threshold_lower(r)
        # differ from it in the low bits at 48 of these 50 r
        rs, a, _ = proof_aux._default_axes(AuxFunctionId.LINEAR_GAP_BOUND)[0]
        want = [gap_exponent_upper(r) if r < 2.0 else gap_exponent_lower(r)
                for r in rs.ravel().tolist()]
        assert a.shape == (50, 1)
        assert a.ravel().tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("tag", [AuxFunctionId.CORE_UPPER, AuxFunctionId.CORE_LOWER])
    def test_core_a_is_the_profile_minimum(self, tag):
        rs, a, _ = proof_aux._default_axes(tag)[0]
        want = [min_a_r(r)[1] for r in rs.ravel().tolist()]
        if tag is AuxFunctionId.CORE_LOWER:
            want = [min(1.0 - 1.0 / r, v) for r, v in zip(rs.ravel().tolist(), want)]
        assert a.shape == (19, 1)
        assert a.ravel().tobytes() == np.array(want).tobytes()


class TestCustomGrids:
    def test_violation_found_outside_claimed_domain(self):
        # The tangent slope turns positive past q = 1/2 at r = 1.
        report = aux_sign_check(
            AuxFunctionId.TANGENT_SLOPE,
            grid={
                "q": GridAxis(0.55, 0.7, 20),
                "r": GridAxis(0.99, 1.0, 3),
            },
        )
        assert report.verdict == "ViolationFound"
        assert report.worst_value > 0.0

    def test_axes_accept_json_dicts(self):
        report = aux_sign_check(
            AuxFunctionId.EXPONENT_MARGIN,
            grid={
                "x": {"lo": 0.75, "hi": 1.0, "count": 30},
                "r": {"lo": 1.0, "hi": 2.0, "count": 15},
            },
        )
        assert report.verdict == "AllSatisfy"
        assert report.points_checked == 450

    def test_open_endpoints(self):
        axis = GridAxis(0.0, 1.0, 5, open_lo=True, open_hi=True)
        pts = axis.points()
        assert len(pts) == 5
        assert pts[0] > 0.0 and pts[-1] < 1.0

    def test_point_cap(self):
        with pytest.raises(DomainError):
            aux_sign_check(
                AuxFunctionId.EXPONENT_MARGIN,
                grid={"x": GridAxis(0.75, 1.0, 2000), "r": GridAxis(1.0, 2.0, 2000)},
            )

    def test_point_cap_checked_before_points_are_built(self):
        # An axis of 10^15 points used to be built (8 PB) before the cap saw it.
        grid = {"x": GridAxis(0.75, 1.0, 10**15), "r": GridAxis(1.0, 2.0, 1)}
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"^grid would have 1000000000000000 points, "
                                                  r"above the cap 1000000$"):
                aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("max_points", [math.nan, None, 0, 2.5, True])
    def test_max_points_must_be_a_positive_integer(self, max_points):
        # A NaN cap used to turn the cap off, and None raised a bare TypeError.
        message = ("^max_points must be a positive integer, got 0$" if max_points == 0
                   else "^max_points must be an integer of at most 64 bits, got ")
        with pytest.raises(DomainError, match=message):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, max_points=max_points)
        with pytest.raises(DomainError, match=message):
            aux_sign_check(
                AuxFunctionId.EXPONENT_MARGIN,
                grid={"x": GridAxis(0.75, 1.0, 2), "r": GridAxis(1.0, 2.0, 2)},
                max_points=max_points,
            )

    def test_missing_axis_rejected(self):
        with pytest.raises(DomainError):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, grid={"x": GridAxis(0.75, 1.0, 5)})

    def test_axis_not_taken_by_tag_rejected(self):
        # three-sample derives q3 = 1 - q1 - q2; a q3 axis would be ignored
        grid = {name: GridAxis(0.3, 0.4, 3) for name in ("q1", "q2", "q3")}
        grid.update(y=GridAxis(1.0, 10.0, 3), r=GridAxis(1.0, 1.2, 3))
        with pytest.raises(DomainError, match=r"'q3'.*\('y', 'q1', 'q2', 'r'\)"):
            aux_sign_check(AuxFunctionId.THREE_SAMPLE_LOWER, grid=grid)

    def test_grid_without_admissible_points_rejected(self):
        # shifted-ratio-monotone needs p >= r; here every p lies below every r
        grid = {"r": GridAxis(3.0, 4.0, 3), "p": GridAxis(1.1, 2.0, 3),
                "s": GridAxis(0.0, 1.0, 3), "z": GridAxis(1.5, 3.0, 3)}
        with pytest.raises(DomainError, match="^the grid contains no admissible points$"):
            aux_sign_check(AuxFunctionId.SHIFTED_RATIO_MONOTONE, grid=grid)

    @pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.0, float("inf")),
                                        (float("-inf"), 0.0)])
    def test_axis_bounds_must_be_finite(self, lo, hi):
        # A NaN bound used to give a spurious ViolationFound with a NaN margin.
        with pytest.raises(DomainError, match="finite"):
            GridAxis(lo, hi, 5)
        with pytest.raises(DomainError, match="finite"):
            GridAxis.from_json_dict({"lo": lo, "hi": hi, "count": 5})

    def test_axis_bound_past_the_float_range_rejected(self):
        # json.loads reads a 401-digit literal as this int; float() of it
        # used to raise OverflowError.
        axis = {"lo": 0.75, "hi": 10**400, "count": 5}
        with pytest.raises(DomainError, match="^hi must be a finite real number, got inf$"):
            GridAxis.from_json_dict(axis)
        with pytest.raises(DomainError, match="^axis 'x': hi must be a finite real number"):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, grid={"x": axis, "r": GridAxis(1, 2, 2)})

    @pytest.mark.parametrize("args, message", [
        ((True, 2.0, 3), "^lo must be a finite real number, got True$"),
        (("a", 1.0, 5), "^lo must be a finite real number, got 'a'$"),
        ((0.75, 10**400, 5), "^hi must be a finite real number, got inf$"),
        ((0.0, 1.0, 5, 1), "^open_lo must be true or false, got 1$"),
    ], ids=["bool", "text", "past-float-range", "int-flag"])
    def test_constructor_checks_bounds_and_flags(self, args, message):
        # Only from_json_dict used to check these: the constructor took
        # lo=True, and raised TypeError and OverflowError.
        with pytest.raises(DomainError, match=message):
            GridAxis(*args)

    def test_constructor_stores_float_bounds(self):
        axis = GridAxis(1, np.float32(2.5), 3)
        assert (type(axis.lo), type(axis.hi)) == (float, float)
        assert axis.points().tolist() == [1.0, 1.75, 2.5]

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 2.0), (1.0, -2.0)])
    def test_log_axis_needs_positive_bounds(self, lo, hi):
        with pytest.raises(DomainError, match="log axis"):
            GridAxis(lo, hi, 5, log=True)

    @pytest.mark.parametrize("count", [2.7, 0, -3, "5", True])
    def test_axis_count_must_be_a_positive_integer(self, count):
        # A JSON count of 2.7 used to be truncated to 2 points, and a count
        # of true gave one point.
        with pytest.raises(DomainError, match="count"):
            GridAxis.from_json_dict({"lo": 0.0, "hi": 1.0, "count": count})
        with pytest.raises(DomainError, match="count"):
            GridAxis(0.0, 1.0, count)
        assert len(GridAxis(0.0, 1.0, np.int64(3)).points()) == 3

    @pytest.mark.parametrize("axis, message", [
        ([0.75, 1.0, 5], "'x' must be a GridAxis or a JSON object, got list"),
        (0.75, "'x' must be a GridAxis or a JSON object, got float"),
        ({"hi": 1.0, "count": 5}, r"'x': .*missing \['lo'\]"),
        ({"lo": 0.75, "hi": 1.0}, r"'x': .*missing \['count'\]"),
        ({"lo": "a", "hi": 1.0, "count": 5}, "'x': lo must be a finite real number"),
        ({"lo": 0.75, "hi": 1.0, "count": 5, "log": "no"}, "'x': log must be true or false"),
        ({"lo": 0.75, "hi": 1.0, "count": 5, "open_lo": "false"},
         "'x': open_lo must be true or false"),
        ({"lo": 0.75, "hi": 1, "count": 5, "opne_lo": True, "lgo": True},
         r"'x': .*unknown keys \['lgo', 'opne_lo'\]"),
    ], ids=["list", "float", "no-lo", "no-count", "text-lo", "text-log", "text-open-lo",
            "unknown-keys"])
    def test_malformed_axes_are_domain_errors(self, axis, message):
        # a string flag such as "false" is not read as a truthy value
        with pytest.raises(DomainError, match=message):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, grid={"x": axis, "r": GridAxis(1, 2, 2)})

    def test_worst_point_is_admissible(self):
        # At q2 = 0.05 the weights are inadmissible; at q2 = 1/3 they are
        # admissible and y^E overflows, so the only admissible margin is +inf.
        report = aux_sign_check(
            AuxFunctionId.THREE_SAMPLE_LOWER,
            grid={
                "y": GridAxis(1e300, 1e300, 1),
                "q1": GridAxis(1.0 / 3.0, 1.0 / 3.0, 1),
                "q2": GridAxis(0.05, 1.0 / 3.0, 2),
                "r": GridAxis(1.0, 1.0, 1),
            },
        )
        assert report.points_checked == 1
        assert report.worst_point["q2"] == 1.0 / 3.0
        assert report.margin == np.inf and report.verdict == "AllSatisfy"


def _whole_grid_report(tag, grid, tolerance):
    """The report of one evaluation on the whole broadcast grid, worst point by np.argmin."""
    entry = proof_aux._CATALOG[AuxFunctionId(tag)]
    args = entry.complete(np.ix_(*(grid[name].points() for name in entry.grid_names)))
    shape = np.broadcast_shapes(*(a.shape for a in args))
    with np.errstate(all="ignore"):
        values = np.broadcast_to(entry.fn(*args), shape).ravel()
    margins = values - entry.bound if entry.claim == "ge" else entry.bound - values
    if entry.admissible is None:
        kept = np.arange(values.size)
    else:
        kept = np.flatnonzero(np.broadcast_to(entry.admissible(*args), shape))
    worst = kept[np.argmin(margins[kept])]
    at = np.unravel_index(worst, shape)
    margin = float(margins[worst])
    return {
        "worst_point": {name: float(np.broadcast_to(a, shape)[at])
                        for name, a in zip(entry.args, args)},
        "worst_value": float(values[worst]),
        "margin": margin,
        "verdict": "AllSatisfy" if margin >= -tolerance else "ViolationFound",
        "points_checked": int(kept.size),
    }


# Grids of about 10^6 points, so that aux_sign_check sweeps them in several
# blocks.  growth-ratio's margin is NaN at t = 1, in the last t-block, or in
# every r-block when r is the longer axis; binomial-chain's margins tie at 0
# at t = 0 in every r-block.  Then the dense certify benchmark grids at seed 3.
_BLOCKED_CASES = [
    ("growth-ratio-monotone", {"r": GridAxis(2.0, 4.0, 50), "t": GridAxis(0.001, 1.0, 20000)},
     1e-10, {"r": 2.0, "t": 1.0}),
    ("growth-ratio-monotone", {"r": GridAxis(2.0, 4.0, 20000), "t": GridAxis(0.001, 1.0, 50)},
     1e-10, {"r": 2.0, "t": 1.0}),
    ("binomial-chain", {"r": GridAxis(4.0, 8.0, 5000), "t": GridAxis(0.0, 1.0, 200)},
     1e-10, {"r": 4.0, "t": 0.0}),
    ("core-upper", {"r": GridAxis(1.1205599229929637, 1.6959839859254253, 20),
                    "a": GridAxis(0.0, 0.09502885547054836, 10),
                    "t": GridAxis(0.0, 1.0, 5000, open_lo=True, open_hi=True)}, 1e-9, None),
    ("tangent-cubic", {"x": GridAxis(1.0, 100.0, 200, log=True),
                       "q": GridAxis(0.009991733724419694, 0.3333333333333333, 100),
                       "r": GridAxis(0.6597671758852641, 1.0, 50)}, 1e-10, None),
    ("three-sample-lower", {"y": GridAxis(1.0, 100.0, 40, log=True),
                            "q1": GridAxis(0.22771307652959105, 0.43340492552374127, 50),
                            "q2": GridAxis(0.22771307652959105, 0.43340492552374127, 50),
                            "r": GridAxis(1.0, 1.3106431524520643, 10)}, 1e-10, None),
]


def _dense_three_sample(w_lo, w_hi, r_hi):
    """The dense certify three-sample-lower grid for a seed's weight and r ranges."""
    return {"y": GridAxis(1.0, 100.0, 40, log=True), "q1": GridAxis(w_lo, w_hi, 50),
            "q2": GridAxis(w_lo, w_hi, 50), "r": GridAxis(1.0, r_hi, 10)}


_THREE_SAMPLE_SEED1 = _dense_three_sample(0.2564805288323286, 0.43347285573493444,
                                          1.2192119204333889)
# 962,278 of its 10^6 points are admissible, so the sweep evaluates the whole grid.
_THREE_SAMPLE_96 = {"y": GridAxis(1.0, 2.0, 1), "q1": GridAxis(0.31, 0.35, 100),
                    "q2": GridAxis(0.31, 0.35, 100), "r": GridAxis(1.0, 1.05, 100)}
# p >= r keeps 171,600 of 960,000 points.
_SHIFTED_SPARSE = {"r": GridAxis(2.0, 6.0, 40), "p": GridAxis(1.1, 4.0, 40),
                   "s": GridAxis(0.0, 1.0, 20), "z": GridAxis(1.01, 50.0, 30, log=True)}
# p >= r keeps 486,600 of 900,000 points; no point with r > 6.5 is admissible.
_SHIFTED_MOSTLY = {"r": GridAxis(1.1, 9.0, 200, log=True), "p": GridAxis(1.1, 6.5, 150),
                   "s": GridAxis(0.0, 1.0, 5), "z": GridAxis(1.01, 100.0, 6, log=True)}
# r = 2 is inadmissible: half of the first grid, one r value in 201 of the second.
_LINEAR_GAP_HALF = {"r": GridAxis(1.5, 2.0, 2), "a": GridAxis(0.0, 0.05, 10),
                    "t": GridAxis(0.0, 1.0, 100)}
_LINEAR_GAP_MOST = {"r": GridAxis(1.0, 3.0, 201), "a": GridAxis(0.0, 0.05, 10),
                    "t": GridAxis(0.0, 1.0, 100)}

# Masked grids, with the number of points the sweep evaluates: the
# admissible ones alone.
_MASKED_CASES = [
    ("three-sample-lower", _THREE_SAMPLE_SEED1, 55_440),
    ("three-sample-lower", _dense_three_sample(0.22678935703870873, 0.4026594471233721,
                                               1.317303593961744), 40_360),
    ("three-sample-lower", _THREE_SAMPLE_96, 962_278),
    ("shifted-ratio-monotone", _SHIFTED_SPARSE, 171_600),
    ("linear-gap-bound", _LINEAR_GAP_HALF, 1_000),
    ("linear-gap-bound", _LINEAR_GAP_MOST, 200_000),
]
_MASKED_IDS = ["three-sample-seed1", "three-sample-seed2", "three-sample-96pct",
               "shifted-ratio-sparse", "linear-gap-half", "linear-gap-most"]


def _counting_entry(monkeypatch, tag) -> list[int]:
    """Swap the tag's catalog function for one that adds up the sizes it returns."""
    tag = AuxFunctionId(tag)
    entry = proof_aux._CATALOG[tag]
    sizes = []

    def fn(*args):
        values = entry.fn(*args)
        sizes.append(np.size(values))
        return values

    monkeypatch.setitem(proof_aux._CATALOG, tag, dataclasses.replace(entry, fn=fn))
    return sizes


class TestBlockedSweeps:
    @pytest.mark.parametrize("tag, grid, tolerance, point", _BLOCKED_CASES,
                             ids=["growth-nan-t", "growth-nan-r", "binomial-ties",
                                  "core-upper-seed3", "tangent-cubic-seed3",
                                  "three-sample-seed3"])
    def test_worst_point_is_whole_grid_argmin(self, tag, grid, tolerance, point):
        report = aux_sign_check(tag, grid=grid, tolerance=tolerance).to_json_dict()
        expected = _whole_grid_report(tag, grid, tolerance)
        # json.dumps tells NaN from any number, and -0.0 from 0.0.
        assert json.dumps({k: report[k] for k in expected}) == json.dumps(expected)
        if point is not None:
            assert report["worst_point"] == point
        if tag == "growth-ratio-monotone":
            assert math.isnan(report["margin"]) and report["verdict"] == "ViolationFound"

    @pytest.mark.parametrize("tag, grid", [case[:2] for case in _MASKED_CASES], ids=_MASKED_IDS)
    def test_masked_worst_point_is_whole_grid_argmin(self, tag, grid):
        report = aux_sign_check(tag, grid=grid).to_json_dict()
        expected = _whole_grid_report(tag, grid, DEFAULT_SIGN_TOL)
        assert json.dumps({k: report[k] for k in expected}) == json.dumps(expected)
        if grid is _THREE_SAMPLE_96:
            assert report["points_checked"] == 962_278

    def test_mostly_admissible_grid_is_cut_with_the_same_report(self):
        tag = "shifted-ratio-monotone"
        report = aux_sign_check(tag, grid=_SHIFTED_MOSTLY).to_json_dict()
        expected = _whole_grid_report(tag, _SHIFTED_MOSTLY, DEFAULT_SIGN_TOL)
        assert json.dumps({k: report[k] for k in expected}) == json.dumps(expected)
        assert report["points_checked"] == 486_600

    @pytest.mark.parametrize("tag, grid, evaluated", _MASKED_CASES, ids=_MASKED_IDS)
    def test_sparse_grid_evaluates_admissible_points_only(self, monkeypatch, tag, grid,
                                                          evaluated):
        sizes = _counting_entry(monkeypatch, tag)
        aux_sign_check(tag, grid=grid)
        assert sum(sizes) == evaluated

    def test_sparse_sweep_memory_is_bounded(self):
        # Evaluated on all 10^6 points of the grid, the traced peak was 4.08 MiB.
        tracemalloc.start()
        try:
            report = aux_sign_check(AuxFunctionId.THREE_SAMPLE_LOWER, grid=_THREE_SAMPLE_SEED1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.points_checked == 55_440
        assert peak <= 2 * 2**20

    def test_masked_parity_fuzz(self):
        # Random custom grids over the three masked tags, at most and more
        # than half of their points admissible.
        rng = np.random.default_rng(21)
        shares = []
        for _ in range(100):
            tag, grid = _random_masked_grid(rng)
            try:
                report = aux_sign_check(tag, grid=grid).to_json_dict()
            except DomainError as exc:
                assert str(exc) == "the grid contains no admissible points"
                continue
            expected = _whole_grid_report(tag, grid, DEFAULT_SIGN_TOL)
            assert json.dumps({k: report[k] for k in expected}) == json.dumps(expected), grid
            total = math.prod(len(axis.points()) for axis in grid.values())
            shares.append(report["points_checked"] / total)
        assert sum(share <= 0.5 for share in shares) >= 30
        assert sum(share > 0.5 for share in shares) >= 30

    def test_dense_sweep_memory_is_bounded(self):
        # Evaluated on the whole grid, each step made a fresh 8 MB temporary
        # and the traced peak was 15.6 MiB.
        grid = {"x": GridAxis(1.0, 100.0, 200, log=True), "q": GridAxis(0.005, 1.0 / 3.0, 100),
                "r": GridAxis(R0, 1.0, 50)}
        tracemalloc.start()
        try:
            report = aux_sign_check(AuxFunctionId.TANGENT_CUBIC, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.points_checked == 10**6
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("tag", list(AuxFunctionId))
    def test_default_grid_built_once_and_read_only(self, tag):
        first = aux_sign_check(tag)
        axes = proof_aux._default_axes(tag)[0]
        assert aux_sign_check(tag) == first
        assert proof_aux._default_axes(tag)[0] is axes
        assert all(not a.flags.writeable for a in axes)
        with pytest.raises(ValueError, match="read-only"):
            axes[0][(0,) * axes[0].ndim] = 0.0


def _random_axis(rng, lo, hi, max_count, log=False):
    a, b = np.sort(rng.uniform(lo, hi, 2))
    return GridAxis(float(a), float(b), int(rng.integers(1, max_count + 1)), log=log)


def _random_masked_grid(rng):
    """A small random grid over one of the three tags with an admissible mask."""
    tag = ("three-sample-lower", "shifted-ratio-monotone", "linear-gap-bound")[rng.integers(3)]
    if tag == "three-sample-lower":
        # The admissible weights lie near (1/3, 1/3) with r near 1.  At
        # y = 1 the margins are rounding errors of 0, and many tie.
        mid, half = rng.uniform(0.3, 0.36), rng.uniform(0.0, 0.06)
        q1, q2 = (GridAxis(float(mid - half), float(mid + half), int(rng.integers(1, 13)))
                  for _ in range(2))
        y = _random_axis(rng, 1.0, 100.0, 8, log=True)
        if rng.random() < 0.5:
            y = dataclasses.replace(y, lo=1.0)
        return tag, {"y": y, "q1": q1, "q2": q2,
                     "r": GridAxis(1.0, float(rng.uniform(1.0, 1.2)), int(rng.integers(1, 7)))}
    if tag == "shifted-ratio-monotone":
        return tag, {"r": _random_axis(rng, 1.1, 5.0, 10), "p": _random_axis(rng, 1.1, 5.0, 10),
                     "s": _random_axis(rng, 0.0, 1.0, 4),
                     "z": _random_axis(rng, 1.01, 50.0, 4, log=True)}
    # r = 2 is inadmissible: half of a two-point r axis ending at 2, the
    # middle of an odd one centred on 2.  At t = 0 every margin is 0, so a
    # t axis from 0 makes ties that only C order breaks.
    half = float(rng.uniform(0.05, 0.9))
    count = int(rng.choice([2, 3, 5]))
    r = GridAxis(2.0 - half, 2.0, 2) if count == 2 else GridAxis(2.0 - half, 2.0 + half, count)
    t = _random_axis(rng, 0.0, 1.0, 20)
    if rng.random() < 0.5:
        t = dataclasses.replace(t, lo=0.0)
    return tag, {"r": r, "a": _random_axis(rng, 0.0, 0.5, 6), "t": t}


class TestIndependentCrossChecks:
    def test_growth_ratio_pairwise_consequence(self, rng):
        # Nonnegative r-derivative implies the ratio ordering in r.
        def ratio(r, t):
            return (1.0 + t) ** r / (1.0 - t**r)

        for _ in range(300):
            r1, r2 = np.sort(rng.uniform(2.0, 4.0, 2))
            if r2 - r1 < 1e-9:
                continue
            t = rng.uniform(0.01, 0.99)
            assert ratio(r2, t) >= ratio(r1, t) * (1.0 - 1e-12)

    def test_shifted_ratio_matches_analytic_slope(self, rng):
        # d/ds ln[(z+s)^{p-1}/(z^r+s)^{p/r-1}] = (p-1)/(z+s) - (p/r-1)/(z^r+s)
        for _ in range(200):
            r = rng.uniform(1.2, 3.0)
            p = r * rng.uniform(1.0, 2.0)
            s = rng.uniform(0.05, 0.95)
            z = rng.uniform(1.1, 20.0)
            value = aux_eval(AuxFunctionId.SHIFTED_RATIO_MONOTONE, (r, p, s, z))
            analytic = (p - 1.0) / (z + s) - (p / r - 1.0) / (z**r + s)
            assert value == pytest.approx(analytic, rel=1e-12, abs=1e-9)

    def test_binomial_chain_brute_force(self, rng):
        for _ in range(200):
            r = rng.uniform(4.0, 8.0)
            t = rng.uniform(0.01, 0.99)
            direct = (1.0 + t) ** (r - 1.0) - (1.0 - t**r) / (1.0 - t) - (r - 2.0) * t
            assert aux_eval(AuxFunctionId.BINOMIAL_CHAIN, (r, t)) == pytest.approx(
                direct, rel=1e-12, abs=1e-12
            )


# Reports recorded before the grids moved to broadcast axes; every field is
# compared exactly, so any change in grid order, filtering or arithmetic shows.
# shifted-ratio-monotone's values were re-recorded when its finite difference
# in s gave way to the exact derivative (before: 0.0009900995001644855).
# The core-* reports were re-recorded when a became the closed-form a_r(1)
# instead of a solved minimum: core-upper's worst point moved from
# (r 1.6, t 1) at margin -2.2e-16 to (r 1.05, t 0) at 0.0, core-lower's from
# (r 2.05, t 0) at 0.0 to (r 4.18, t 1) at -4.4e-16.  When the gaps moved to
# one cancellation-free kernel, core-lower's worst point moved on to
# (r 4.02, t 1), still at -4.4e-16.
_GOLDEN_DEFAULT = [
    {'id': 'core-upper', 'domain': 'r in [1.05, 1.95] x19 with a tied to the closed-form profile minimum a_r(1), t in [0, 1] x501', 'worst_point': {'r': 1.05, 'a': 0.4077865578279588, 't': 0.0}, 'worst_value': 0.0, 'margin': 0.0, 'verdict': 'AllSatisfy', 'points_checked': 9519},
    {'id': 'core-lower', 'domain': 'r in [2.05, 5.0] x19 with a tied to the closed-form profile minimum a_r(1), t in [0, 1] x501', 'worst_point': {'r': 4.016666666666667, 'a': 0.33502804178294704, 't': 1.0}, 'worst_value': -4.440892098500626e-16, 'margin': -4.440892098500626e-16, 'verdict': 'AllSatisfy', 'points_checked': 9519},
    {'id': 'shifted-ratio-monotone', 'domain': 'r in [1.1, 4] x12, p in [1.1, 8] x14 (p >= r), s in [0, 1] x21, z in (1, 100] x16 log', 'worst_point': {'r': 1.1, 'p': 1.1, 's': 1.0, 'z': 100.0}, 'worst_value': 0.000990099009900991, 'margin': 0.000990099009900991, 'verdict': 'AllSatisfy', 'points_checked': 44352},
    {'id': 'linear-gap-bound', 'domain': 'r in (1, 2) and (2, 3), 25 each, a = solved gap exponent, t in [0, 1] x401', 'worst_point': {'r': 1.02, 'a': 0.004732945994024502, 't': 0.0}, 'worst_value': 0.0, 'margin': 0.0, 'verdict': 'AllSatisfy', 'points_checked': 20050},
    {'id': 'binomial-chain', 'domain': 'r in [4, 8] x81, t in [0, 1] x500', 'worst_point': {'r': 4.0, 't': 0.0}, 'worst_value': 0.0, 'margin': 0.0, 'verdict': 'AllSatisfy', 'points_checked': 40500},
    {'id': 'growth-ratio-monotone', 'domain': 'r in [2, 4] x81, t in (0, 1) x500', 'worst_point': {'r': 2.0, 't': 0.001}, 'worst_value': 0.0009945797432108962, 'margin': 0.0009945797432108962, 'verdict': 'AllSatisfy', 'points_checked': 40500},
    {'id': 'envelope-hi-weight', 'domain': 'q in (0, 1/2] x200, r in [r0, 1] x50', 'worst_point': {'q': 0.5, 'r': 1.0}, 'worst_value': 0.5, 'margin': 0.0, 'verdict': 'AllSatisfy', 'points_checked': 10000},
    {'id': 'envelope-lo-weight', 'domain': 'q in (0, 1/2] x200, r in [r0, 1] x50', 'worst_point': {'q': 0.5, 'r': 1.0}, 'worst_value': 0.5, 'margin': 0.0, 'verdict': 'AllSatisfy', 'points_checked': 10000},
    {'id': 'tangent-slope', 'domain': 'q in (0, 1/3] x200, r in [r0, 1] x50', 'worst_point': {'q': 0.3333333333333333, 'r': 0.6597671758852641}, 'worst_value': -4.2021941482062175e-14, 'margin': 4.2021941482062175e-14, 'verdict': 'AllSatisfy', 'points_checked': 10000},
    {'id': 'tangent-cubic', 'domain': 'x in [1, 100] x150 log, q in (0, 1/3] x40, r in [r0, 1] x25', 'worst_point': {'x': 1.0, 'q': 0.018042735042735042, 'r': 0.8015308525997374}, 'worst_value': 1.1102230246251565e-16, 'margin': -1.1102230246251565e-16, 'verdict': 'AllSatisfy', 'points_checked': 150000},
    {'id': 'exponent-margin', 'domain': 'x in [3/4, 1] x200, r in [1, 2] x100', 'worst_point': {'x': 0.75, 'r': 1.0}, 'worst_value': 0.0625, 'margin': 0.0625, 'verdict': 'AllSatisfy', 'points_checked': 20000},
    {'id': 'three-sample-lower', 'domain': 'y in [1, 100] x60 log, weight simplex at step ~0.006 and r in [1, 2] x40 restricted to admissible pairs', 'worst_point': {'y': 1.0, 'q1': 0.3333333333333333, 'q2': 0.3333333333333333, 'q3': 0.3333333333333334, 'r': 1.0}, 'worst_value': -2.220446049250313e-16, 'margin': -2.220446049250313e-16, 'verdict': 'AllSatisfy', 'points_checked': 27060},
]

# The dense custom grids of the certify benchmark at seeds 1 and 2, with the
# tolerance each is checked at and the report it gave.  The core-upper
# margins were re-recorded with the cancellation-free gap kernel, from
# 2.369171525629099e-10 and 1.9595258748950073e-10; a 50-digit mpmath
# oracle gives 2.3693075905e-10 and 1.9601853469e-10 at the worst points.
_GOLDEN_DENSE = [
    ("core-upper", {"r": GridAxis(1.1028137277553933, 1.6409824601715195, 20),
                    "a": GridAxis(0.0, 0.11478841140959022, 10),
                    "t": GridAxis(0.0, 1.0, 5000, open_lo=True, open_hi=True)}, 1e-9,
     {'id': 'core-upper', 'domain': 'r in [1.10281, 1.64098] x20, a in [0, 0.114788] x10, t in [0.00019996, 0.9998] x5000', 'worst_point': {'r': 1.6409824601715195, 'a': 0.11478841140959022, 't': 0.9998000399920015}, 'worst_value': 2.3693091932841526e-10, 'margin': 2.3693091932841526e-10, 'verdict': 'AllSatisfy', 'points_checked': 1000000}),
    ("tangent-cubic", {"x": GridAxis(1.0, 100.0, 200, log=True),
                       "q": GridAxis(0.0051035914801663826, 0.3333333333333333, 100),
                       "r": GridAxis(0.6597671758852641, 1.0, 50)}, 1e-10,
     {'id': 'tangent-cubic', 'domain': 'x in [1, 100] x200, q in [0.00510359, 0.333333] x100, r in [0.659767, 1] x50', 'worst_point': {'x': 1.0, 'q': 0.015049947293898715, 'r': 0.8125247703857578}, 'worst_value': 1.1102230246251565e-16, 'margin': -1.1102230246251565e-16, 'verdict': 'AllSatisfy', 'points_checked': 1000000}),
    ("three-sample-lower", {"y": GridAxis(1.0, 100.0, 40, log=True),
                            "q1": GridAxis(0.2564805288323286, 0.43347285573493444, 50),
                            "q2": GridAxis(0.2564805288323286, 0.43347285573493444, 50),
                            "r": GridAxis(1.0, 1.2192119204333889, 10)}, 1e-10,
     {'id': 'three-sample-lower', 'domain': 'y in [1, 100] x40, q1 in [0.256481, 0.433473] x50, q2 in [0.256481, 0.433473] x50, r in [1, 1.21921] x10', 'worst_point': {'y': 1.0, 'q1': 0.32511020661089, 'q2': 0.32511020661089, 'q3': 0.34977958677822, 'r': 1.0}, 'worst_value': -2.220446049250313e-16, 'margin': -2.220446049250313e-16, 'verdict': 'AllSatisfy', 'points_checked': 55440}),
    ("core-upper", {"r": GridAxis(1.170289384059105, 1.7521243699776798, 20),
                    "a": GridAxis(0.0, 0.07575983017507329, 10),
                    "t": GridAxis(0.0, 1.0, 5000, open_lo=True, open_hi=True)}, 1e-9,
     {'id': 'core-upper', 'domain': 'r in [1.17029, 1.75212] x20, a in [0, 0.0757598] x10, t in [0.00019996, 0.9998] x5000', 'worst_point': {'r': 1.7521243699776798, 'a': 0.07575983017507329, 't': 0.9998000399920015}, 'worst_value': 1.960187567817684e-10, 'margin': 1.960187567817684e-10, 'verdict': 'AllSatisfy', 'points_checked': 1000000}),
    ("tangent-cubic", {"x": GridAxis(1.0, 100.0, 200, log=True),
                       "q": GridAxis(0.005846340848007925, 0.3333333333333333, 100),
                       "r": GridAxis(0.6597671758852641, 1.0, 50)}, 1e-10,
     {'id': 'tangent-cubic', 'domain': 'x in [1, 100] x200, q in [0.00584634, 0.333333] x100, r in [0.659767, 1] x50', 'worst_point': {'x': 1.0, 'q': 0.03230993620035745, 'r': 0.6597671758852641}, 'worst_value': 1.1102230246251565e-16, 'margin': -1.1102230246251565e-16, 'verdict': 'AllSatisfy', 'points_checked': 1000000}),
    ("three-sample-lower", {"y": GridAxis(1.0, 100.0, 40, log=True),
                            "q1": GridAxis(0.22678935703870873, 0.4026594471233721, 50),
                            "q2": GridAxis(0.22678935703870873, 0.4026594471233721, 50),
                            "r": GridAxis(1.0, 1.317303593961744, 10)}, 1e-10,
     {'id': 'three-sample-lower', 'domain': 'y in [1, 100] x40, q1 in [0.226789, 0.402659] x50, q2 in [0.226789, 0.402659] x50, r in [1, 1.3173] x10', 'worst_point': {'y': 1.0, 'q1': 0.330875736884734, 'q2': 0.330875736884734, 'q3': 0.3382485262305321, 'r': 1.0}, 'worst_value': -2.220446049250313e-16, 'margin': -2.220446049250313e-16, 'verdict': 'AllSatisfy', 'points_checked': 40360}),
]


class TestGoldenSignReports:
    @pytest.mark.parametrize("expected", _GOLDEN_DEFAULT, ids=lambda d: d["id"])
    def test_default_grid_report(self, expected):
        assert aux_sign_check(expected["id"]).to_json_dict() == expected

    @pytest.mark.parametrize(
        "tag, grid, tolerance, expected", _GOLDEN_DENSE,
        ids=[f"{tag}-seed{1 + i // 3}" for i, (tag, *_) in enumerate(_GOLDEN_DENSE)],
    )
    def test_dense_grid_report(self, tag, grid, tolerance, expected):
        report = aux_sign_check(tag, grid=grid, tolerance=tolerance)
        assert report.to_json_dict() == expected

    def test_point_cap_messages(self):
        with pytest.raises(DomainError, match=r"^grid has 20000 points, above the cap 100$"):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, max_points=100)
        with pytest.raises(
            DomainError, match=r"^grid would have 200 points, above the cap 100$"
        ):
            aux_sign_check(
                AuxFunctionId.EXPONENT_MARGIN,
                grid={"x": GridAxis(0.75, 1.0, 20), "r": GridAxis(1.0, 2.0, 10)},
                max_points=100,
            )


class TestCatalogDocs:
    def test_docstring_table_rendered_from_catalog(self):
        assert rst_table_rows(proof_aux.__doc__) == [
            (f"{tag.value} ({', '.join(entry.args)})", entry.statement)
            for tag, entry in proof_aux._CATALOG.items()]
        assert list(proof_aux._CATALOG) == list(AuxFunctionId)

    def test_readme_tag_list(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Proof-auxiliary catalog", 1)[1].split("\n## ", 1)[0]
        listed = " ".join(section.split("Tags:", 1)[1].split(".  See", 1)[0].split())
        assert listed == ", ".join(f"`{tag.value}`" for tag in AuxFunctionId)
