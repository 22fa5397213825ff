import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from meanineq import (
    AuxFunctionId,
    DomainError,
    ThresholdResult,
    a_r_fn,
    a_r_values,
    alpha_threshold_lower,
    alpha_threshold_upper,
    aux_eval,
    bisect,
    gap_exponent_lower,
    gap_exponent_upper,
    golden_section_min,
    min_a_r,
    r0_value,
    solve_r0,
    solve_t1,
    solve_t2,
)
from meanineq.cli import run


def t1_equation_sides(r, t):
    lhs = 2.0 - r - t ** (r - 1.0)
    rhs = (1.0 - t**r) / ((1.0 + t) ** (r - 1.0) * (1.0 - t)) - 1.0
    return lhs, rhs


def t2_equation_sides(r, t):
    lhs = r - 2.0 - t
    rhs = (1.0 + t) ** (r - 1.0) * (1.0 - t) / (1.0 - t**r) - 1.0
    return lhs, rhs


class TestBisect:
    def test_finds_sqrt_two(self):
        res = bisect(lambda x: x * x - 2.0, 1.0, 2.0)
        assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(res.residual) <= 1e-12
        assert res.bracket[0] <= res.value <= res.bracket[1]

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x * x + 1.0, -1.0, 1.0),
        # a reversed bracket used to return 0.5 with residual 0.2
        (lambda x: x - 0.3, 1.0, 0.0),
        # an infinite end used to return inf
        (lambda x: x - 0.3, 0.0, math.inf),
        (lambda x: x - 0.3, -math.inf, 1.0),
        (lambda x: x - 0.3, math.nan, 1.0),
        # a NaN at either end used to pass for a sign, and bisection went on
        (lambda x: -math.nan if x == 0.0 else x - 0.3, 0.0, 1.0),
        (lambda x: math.nan if x == 0.0 else x - 0.3, 0.0, 1.0),
        (lambda x: math.nan if x == 1.0 else x - 0.3, 0.0, 1.0),
    ], ids=["unsigned", "reversed", "inf-hi", "inf-lo", "nan-lo", "negative-nan-at-lo",
            "nan-at-lo", "nan-at-hi"])
    def test_rejects_unsigned_bracket(self, f, lo, hi):
        with pytest.raises(DomainError):
            bisect(f, lo, hi)

    @pytest.mark.parametrize("f, root", [(lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)],
                             ids=["at-lo", "at-hi"])
    def test_root_at_an_end(self, f, root):
        res = bisect(f, 0.0, 1.0)
        assert (res.value, res.residual, res.iterations) == (root, 0.0, 0)

    def test_flags_low_confidence_brackets(self):
        res = bisect(lambda x: 1e-14 * x - 5e-15, 0.0, 1.0)
        assert res.low_confidence
        assert not bisect(lambda x: x - 0.5, 0.0, 1.0).low_confidence

    def test_stops_at_floating_point_resolution(self):
        # with xtol=0 only the midpoint rounding to an end stops the loop
        hi = math.nextafter(1.0, 2.0)
        calls = []

        def f(x):
            calls.append(x)
            return -1.0 if x < hi else 1.0

        res = bisect(f, 1.0, hi, xtol=0.0)
        assert (res.bracket, res.iterations, res.value, res.residual) == ((1.0, hi), 0, 1.0, -1.0)
        assert calls == [1.0, hi, 1.0]


class TestGoldenSection:
    def test_quadratic_minimum(self):
        t, f = golden_section_min(lambda u: (u - 0.3) ** 2, 0.0, 1.0)
        assert t == pytest.approx(0.3, abs=1e-7)
        assert f <= 1e-13

    def test_edge_minimum_kept(self):
        t, f = golden_section_min(lambda u: u, 0.25, 1.0)
        assert t == 0.25
        assert f == 0.25

    # Exact (t, f), recorded from the scalar loop.
    def test_not_unimodal(self):
        # cos(5u) has two minima in [-2, 3]; the section settles on one.
        t, f = golden_section_min(lambda u: math.cos(5.0 * u), -2.0, 3.0)
        assert (t, f) == (1.8849555911141087, -1.0)

    def test_cut_short_by_max_iter(self):
        t, f = golden_section_min(lambda u: math.cos(5.0 * u), -2.0, 3.0, max_iter=5)
        assert (t, f) == (1.8196601125010516, -0.9471779461193855)
        t, f = golden_section_min(lambda u: abs(u - 0.77), -2.0, 3.0, max_iter=5)
        assert (t, f) == (0.8115294937452684, 0.041529493745268375)

    def test_coarse_xtol(self):
        t, f = golden_section_min(lambda u: (u - 0.3) ** 2, 0.25, 1.0, xtol=1e-3)
        assert (t, f) == (0.29988341868848617, 1.3591202194282161e-08)
        t, f = golden_section_min(lambda u: math.cos(5.0 * u), 0.25, 1.0, xtol=1e-3)
        assert (t, f) == (0.628153994626696, -0.9999996615984524)


    @pytest.mark.parametrize("lo, hi, message", [
        (math.nan, 1.0, "^lo must be a finite real number, got nan$"),
        (0.0, math.nan, "^hi must be a finite real number, got nan$"),
        (-math.inf, 1.0, "^lo must be a finite real number, got -inf$"),
        (0.0, math.inf, "^hi must be a finite real number, got inf$"),
        (1.0, 0.0, r"must be finite with lo <= hi"),
    ], ids=["nan-1.0", "0.0-nan", "-inf-1.0", "0.0-inf", "1.0-0.0"])
    def test_bracket_must_be_finite_and_ordered(self, lo, hi, message):
        calls = []
        with pytest.raises(DomainError, match=message):
            golden_section_min(lambda u: calls.append(u) or u * u, lo, hi)
        assert calls == []


# Every public function of an order r, with an r inside its range.
R_READERS = {
    min_a_r: 1.5, a_r_values: 1.5, a_r_fn: 1.5, solve_t1: 1.5, solve_t2: 2.5,
    gap_exponent_upper: 1.5, gap_exponent_lower: 2.5,
    alpha_threshold_upper: 1.5, alpha_threshold_lower: 2.5,
}


def _at_r(fn, r):
    """``fn`` at order r; the profile functions also take a point t."""
    return fn(r, [0.5]) if fn is a_r_values else fn(r, 0.5) if fn is a_r_fn else fn(r)


@pytest.mark.parametrize("fn", R_READERS, ids=lambda fn: fn.__name__)
class TestOrderIsReadAsARealNumber:
    @pytest.mark.parametrize("bad", ["1.5", True, None, 1j])
    def test_non_real_order_is_a_domain_error(self, fn, bad):
        with pytest.raises(DomainError, match=r"^r must be a finite real number, got "):
            _at_r(fn, bad)

    def test_integer_past_the_float_range_reads_as_inf(self, fn):
        with pytest.raises(DomainError, match=r"^r must be a finite real number, got inf$"):
            _at_r(fn, 10**400)

    def test_a_real_order_gives_its_floats_value(self, fn):
        expected = _at_r(fn, R_READERS[fn])
        for same in (np.float64(R_READERS[fn]), Fraction(R_READERS[fn])):
            value = _at_r(fn, same)
            if isinstance(expected, np.ndarray):
                assert value.tobytes() == expected.tobytes()
            else:
                assert value == expected


def test_the_profile_names_its_range():
    with pytest.raises(DomainError, match=r"^r must be a finite real number, got inf$"):
        min_a_r(10**400)
    with pytest.raises(DomainError, match=r"^the profile needs a finite r > 1 \(got 0.5\)$"):
        min_a_r(0.5)


class TestProfile:
    def test_endpoint_limit_at_zero(self):
        # Richardson in t confirms the closed-form limit |r-2|/r; the
        # leading correction is O(t^{r-1}) for 1 < r < 2 and O(t) beyond.
        for r in (1.5, 3.0):
            p = min(r - 1.0, 1.0)
            f1 = a_r_fn(r, 1e-6)
            f2 = a_r_fn(r, 5e-7)
            extrapolated = (2.0**p * f2 - f1) / (2.0**p - 1.0)
            assert a_r_fn(r, 0.0) == pytest.approx(abs(r - 2.0) / r, abs=1e-15)
            assert extrapolated == pytest.approx(a_r_fn(r, 0.0), abs=1e-5)
        assert a_r_fn(1.5, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert a_r_fn(3.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_endpoint_limit_at_one(self):
        for r in (1.3, 2.0, 4.0):
            closed = abs((r - 1.0) * math.log(2.0) - math.log(r)) / ((r - 1.0) * math.log(2.0))
            assert a_r_fn(r, 1.0) == pytest.approx(closed, abs=1e-15)
            f1 = a_r_fn(r, 1.0 - 1e-6)
            f2 = a_r_fn(r, 1.0 - 5e-7)
            assert 2.0 * f2 - f1 == pytest.approx(closed, abs=1e-5)
        assert a_r_fn(2.0, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            a_r_fn(1.0, 0.5)
        with pytest.raises(DomainError):
            a_r_fn(1.5, 1.5)

    def test_non_finite_input_rejected(self):
        for r in (math.inf, math.nan):
            with pytest.raises(DomainError):
                min_a_r(r)
            with pytest.raises(DomainError):
                a_r_values(r, np.linspace(0.0, 1.0, 3))
        with pytest.raises(DomainError):
            a_r_fn(1.5, math.nan)
        with pytest.raises(DomainError):
            a_r_values(1.5, np.array([0.0, math.nan, 1.0]))
        # ragged nesting, which numpy refuses to make an array of floats
        with pytest.raises(DomainError,
                           match=r"^t must be real numbers, got \[\[0\.1\], \[0\.2, 0\.3\]\]$"):
            a_r_values(1.5, [[0.1], [0.2, 0.3]])

    def test_vectorized_matches_scalar(self):
        ts = np.linspace(0.0, 1.0, 11)
        vals = a_r_values(1.7, ts)
        for t, v in zip(ts, vals):
            assert a_r_fn(1.7, float(t)) == v


class TestMinProfile:
    def test_flat_zero_at_two(self):
        t_star, a_star = min_a_r(2.0)
        assert a_star == pytest.approx(0.0, abs=1e-10)

    def test_minimum_below_endpoints(self):
        for r in (1.2, 1.5, 1.9, 2.5, 3.0, 5.0):
            t_star, a_star = min_a_r(r)
            assert 0.0 <= t_star <= 1.0
            assert a_star <= a_r_fn(r, 0.0) + 1e-12
            assert a_star <= a_r_fn(r, 1.0) + 1e-12
            assert a_star >= 0.0
            assert (t_star, a_star) == (1.0, a_r_fn(r, 1.0))

    def test_bracketed_for_three_halves(self):
        _, a_star = min_a_r(1.5)
        assert 0.0 <= a_star <= 1.0 / 3.0


class TestMinProfileRows:
    # min_a_r at a few r and over both default core grids.  Re-recorded
    # when the grid-and-golden-section solver gave way to the closed form
    # a_r(1): each t_star was in [0.99998, 1] before (0 at r = 2), and each
    # a_star here moved by at most 6.1e-10 relative.
    GOLDEN = {
        1.05: (1.0, 0.4077865578279588),
        1.3009643341361339: (1.0, 0.26121725447691596),
        1.5: (1.0, 0.1699250014423124),
        1.75: (1.0, 0.0764732294101388),
        2.0: (1.0, 0.0),
        2.5: (1.0, 0.11871460340842509),
        3.0: (1.0, 0.2075187496394219),
        5.0: (1.0, 0.41951797627815934),
    }
    # sha256 of repr(list of min_a_r(r)) over both default core grids.
    DEFAULT_GRIDS_SHA256 = "b883b6012e7038a04bb9921e88e880168d15a8c215587154d09512abdf3ea22d"

    def test_golden_values(self):
        for r, expected in self.GOLDEN.items():
            assert min_a_r(r) == expected

    def test_default_grids_digest(self):
        rs = [float(r) for r in np.concatenate([np.linspace(1.05, 1.95, 19),
                                                np.linspace(2.05, 5.0, 19)])]
        solved = [min_a_r(r) for r in rs]
        assert hashlib.sha256(repr(solved).encode()).hexdigest() == self.DEFAULT_GRIDS_SHA256


class TestImplicitEquations:
    def test_t1_residuals_and_positivity(self):
        for r in np.linspace(1.0, 2.0, 52)[1:-1]:
            res = solve_t1(float(r))
            assert 0.0 < res.value < 1.0
            assert abs(res.residual) <= 1e-12
            assert gap_exponent_upper(float(r)) > 0.0

    def test_t2_residuals_and_positivity(self):
        for r in np.linspace(2.0, 3.0, 52)[1:-1]:
            res = solve_t2(float(r))
            assert 0.0 < res.value < 1.0
            assert abs(res.residual) <= 1e-12
            a2 = gap_exponent_lower(float(r))
            assert a2 > 0.0
            assert res.value < r - 2.0  # positivity of a2 rearranged

    def test_monotone_bracket_soundness(self):
        for r in np.linspace(1.0, 2.0, 52)[1:-1]:
            lhs, rhs = t1_equation_sides(float(r), 1e-9)
            assert lhs - rhs > 0.0
            lhs, rhs = t1_equation_sides(float(r), 1.0 - 1e-9)
            assert lhs - rhs < 0.0
        for r in np.linspace(2.0, 3.0, 52)[1:-1]:
            lhs, rhs = t2_equation_sides(float(r), 1e-9)
            assert lhs - rhs > 0.0
            lhs, rhs = t2_equation_sides(float(r), 1.0 - 1e-9)
            assert lhs - rhs < 0.0

    def test_domain_errors(self):
        for bad in (0.9, 1.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                solve_t1(bad)
        for bad in (1.5, 2.0, 3.0):
            with pytest.raises(DomainError):
                solve_t2(bad)


def test_a_threshold_result_is_built_by_position_or_keyword():
    by_position = ThresholdResult(0.5, (0.25, 0.75), -1e-13, 7)
    by_keyword = ThresholdResult(iterations=7, residual=-1e-13, bracket=(0.25, 0.75), value=0.5)
    assert by_position == by_keyword and by_position.low_confidence is False
    assert ThresholdResult(0.5, (0.25, 0.75), -1e-13, 7, True).low_confidence is True
    assert ThresholdResult(0.5, (0.25, 0.75), -1e-13, 7, True) != by_position
    assert repr(by_keyword) == ("ThresholdResult(value=0.5, bracket=(0.25, 0.75), "
                                "residual=-1e-13, iterations=7, low_confidence=False)")


class TestSolvedThresholdBits:
    # sha256 of repr([(t.value, t.residual, gap exponent, alpha threshold), ...]) over
    # the 1999 interior points of np.linspace(1, 2, 2001) (t1) and (2, 3) (t2).
    # A new bracket or stopping rule for t1 and t2 must keep these bits.
    T1_SHA256 = "eecbd507a0f7a1afcfc8454c81e99f62b66a75414f2eef164b1d3d9e66ac9a0b"
    T2_SHA256 = "744fd462fff49f8e053a1bc98a373b624807c30a5f3c7c5ae31dfe0563897924"

    @pytest.mark.parametrize("solve, gap, alpha, lo, digest", [
        (solve_t1, gap_exponent_upper, alpha_threshold_upper, 1.0, T1_SHA256),
        (solve_t2, gap_exponent_lower, alpha_threshold_lower, 2.0, T2_SHA256),
    ], ids=["t1", "t2"])
    def test_digest(self, solve, gap, alpha, lo, digest):
        solved = []
        for r in np.linspace(lo, lo + 1.0, 2001)[1:-1].tolist():
            t = solve(r)
            solved.append((t.value, t.residual, gap(r), alpha(r)))
        assert hashlib.sha256(repr(solved).encode()).hexdigest() == digest


# Every public function with an open range in r, and the range's ends.
OPEN_RANGES = [
    (solve_t1, 1.0, 2.0), (gap_exponent_upper, 1.0, 2.0), (alpha_threshold_upper, 1.0, 2.0),
    (solve_t2, 2.0, 3.0), (gap_exponent_lower, 2.0, 3.0), (alpha_threshold_lower, 2.0, math.inf),
    (min_a_r, 1.0, math.inf), (a_r_fn, 1.0, math.inf),
]


def _edges():
    """(fn, end, r): the float next to each finite end, and that end 1e-13 inside."""
    for fn, lo, hi in OPEN_RANGES:
        for end, inner in ((lo, hi), (hi, lo)):
            if math.isfinite(end):
                for r in (math.nextafter(end, inner), end + math.copysign(1e-13, inner - end)):
                    yield pytest.param(fn, end, r, id=f"{fn.__name__}-{r!r}")


class TestRangeEdges:
    @pytest.mark.parametrize("fn, end, r", _edges())
    def test_nothing_raises_next_to_an_end(self, fn, end, r):
        value = _at_r(fn, r)
        # near r = 1 both sides of the t1 equation are O(r - 1) and their
        # difference is rounding noise, so only the call is checked there
        if fn in (solve_t1, solve_t2) and not (fn is solve_t1 and end == 1.0):
            assert 0.0 < value.value < 1.0
            assert abs(value.residual) <= 1e-12
        # bisection stops at width 1e-13, so the side of 1 (or 0) is not settled
        if fn in (alpha_threshold_upper, alpha_threshold_lower) and end == 2.0:
            assert abs(value - 1.0) <= 1e-13
        if fn in (gap_exponent_upper, gap_exponent_lower) and end == 2.0:
            assert abs(value) <= 1e-13

    @pytest.mark.parametrize("argv", [
        ["sweep", "--quantity", "alpha-threshold", "--grid", "2.0000000000000004,6,3"],
        ["threshold", "--which", "alpha-upper", "--r", "1.9999999999999998"],
    ], ids=["sweep-alpha-threshold", "threshold-alpha-upper"])
    def test_commands_next_to_two_succeed(self, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().err == ""


class TestAlphaThresholds:
    def test_upper_exceeds_one(self):
        for r in (1.2, 1.5, 1.8):
            value = alpha_threshold_upper(r)
            assert value > 1.0
            assert value <= 1.0 + 1.0 / r  # the solved margin never beats 1/r

    def test_upper_shrinks_toward_two(self):
        assert alpha_threshold_upper(1.999) - 1.0 < 0.01

    def test_lower_piecewise_values(self):
        assert alpha_threshold_lower(3.0) == 1.0 - 1.0 / 9.0
        assert alpha_threshold_lower(4.0) == 0.875
        assert alpha_threshold_lower(2.5) < 1.0

    def test_domains(self):
        with pytest.raises(DomainError):
            alpha_threshold_upper(2.0)
        with pytest.raises(DomainError):
            alpha_threshold_lower(2.0)

    @pytest.mark.parametrize("r", [1e154, math.sqrt(sys.float_info.max), 1e155, 1e300,
                                   sys.float_info.max])
    def test_lower_is_one_where_r_squared_overflows(self, r):
        # past about 1.34e154, 1 - (r - 2) / r**2 raised OverflowError from r**2;
        # (r - 2) / r^2 < 2^-54 there, and the formula already rounds to 1 below
        assert alpha_threshold_lower(r) == 1.0

    def test_lower_needs_a_finite_order(self):
        with pytest.raises(DomainError, match="^r must be a finite real number, got inf$"):
            alpha_threshold_lower(math.inf)

    def test_solved_margin_never_beats_profile_minimum(self):
        # The closed-form exponent comes from weakening the profile bound.
        for r in np.linspace(1.05, 1.95, 10):
            a1 = gap_exponent_upper(float(r))
            _, a_star = min_a_r(float(r))
            assert a1 <= a_star + 1e-9


class TestRootForHalfMeanBound:
    def test_bracket_values(self):
        lhs = lambda r: (3.0 * r + 1.0) * 3.0 ** (1.0 / r)
        assert lhs(0.5) == pytest.approx(22.5)
        assert lhs(1.0) == pytest.approx(12.0)
        assert lhs(0.5) > 63.0 / 4.0 > lhs(1.0)
        assert lhs(0.65) > 63.0 / 4.0 > lhs(0.67)

    def test_solution(self):
        res = solve_r0()
        assert 0.65 < res.value < 0.67
        assert abs(res.residual) <= 1e-12
        assert res.iterations > 0

    def test_equivalent_to_tangent_slope_root(self):
        # The defining equation is the tangent-slope vanishing at q = 1/3.
        assert aux_eval(AuxFunctionId.TANGENT_SLOPE, (1.0 / 3.0, r0_value())) == pytest.approx(
            0.0, abs=1e-10
        )


class TestScalarCoreConsistency:
    def test_upper_core_holds_at_profile_minimum(self):
        for r in (1.1, 1.5, 1.9):
            _, a_star = min_a_r(r)
            ts = np.linspace(0.0, 1.0, 2000)
            for t in ts:
                assert aux_eval(AuxFunctionId.CORE_UPPER, (r, a_star, float(t))) >= -1e-9

    def test_lower_core_holds_at_capped_minimum(self):
        for r in (2.5, 3.0, 5.0):
            _, a_star = min_a_r(r)
            a = min(1.0 - 1.0 / r, a_star)
            ts = np.linspace(0.0, 1.0, 2000)
            for t in ts:
                assert aux_eval(AuxFunctionId.CORE_LOWER, (r, a, float(t))) >= -1e-9
