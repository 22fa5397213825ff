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
    r0_value,
)
from meanineq import proof_aux

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
        with pytest.raises(DomainError, match=f"{tag.value} takes finite"):
            aux_eval(tag, args)

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
        with pytest.raises(DomainError, match="max_points must be a positive integer"):
            aux_sign_check(AuxFunctionId.EXPONENT_MARGIN, max_points=max_points)
        with pytest.raises(DomainError, match="max_points must be a positive integer"):
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

    @pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.0, float("inf")),
                                        (float("-inf"), 0.0)])
    def test_axis_bounds_must_be_finite(self, lo, hi):
        # A NaN bound used to give a spurious ViolationFound with a NaN margin.
        with pytest.raises(DomainError, match="finite"):
            GridAxis(lo, hi, 5)
        with pytest.raises(DomainError, match="finite"):
            GridAxis.from_json_dict({"lo": lo, "hi": hi, "count": 5})

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
    {'id': 'linear-gap-bound', 'domain': 'r in (1, 2) and (2, 3), 25 each, a = solved gap exponent, t in [0, 1] x401', 'worst_point': {'r': 1.02, 'a': 0.004732945994024407, 't': 0.0}, 'worst_value': 0.0, 'margin': 0.0, 'verdict': 'AllSatisfy', 'points_checked': 20050},
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
