"""Sharp parameter thresholds, via bracketed bisection and 1-D minimization.

The exponent-perturbation profile

    a_r(t) = |ln((1+t)^{r-1}(1-t) / (1-t^r))| / ln((1+t)^r / (1+t^r)),  r > 1,

measures, at each t in [0, 1], how far the comparison exponent alpha may be
pushed away from 1 before the two-point scalar inequality at t breaks; its
minimum over t is the uniformly safe perturbation.  The endpoints are the
0/0 limits

    a_r(0) = |r-2| / r,         a_r(1) = |ln(2^{r-1}/r)| / ((r-1) ln 2).

Two implicit equations pin down the closed-form exponents of the weakened
(linear-minorant) bound: t1(r) solves, for 1 < r < 2,

    2 - r - t^{r-1} = (1-t^r) / ((1+t)^{r-1}(1-t)) - 1,

t2(r) solves, for 2 < r < 3,

    r - 2 - t = (1+t)^{r-1}(1-t) / (1-t^r) - 1,

and the admissible alpha ranges are alpha <= 1 + a1(r) with
a1 = (2 - r - t1^{r-1})/r, respectively alpha >= 1 - a2(r) with
a2 = (r - 2 - t2)/r (piecewise continued by 1 - 1/(3r) on [3, 4) and
1 - (r-2)/r^2 on [4, inf)).  Finally r0 is the root in (1/2, 1) of

    (3 r + 1) 3^{1/r} = 63/4,

the smallest mean order for which the variance-corrected half-mean upper
bound is proved.

All solvers use plain bisection; ``_root`` sets the bracket of both
implicit equations.  Everything here is a pure function, safe for
concurrent use.  The solvers are scalar Python; numpy is imported inside
the array kernels (:func:`a_r_values` and the two it calls) only, so a
caller that solves thresholds never loads it.

The minimum of a_r over [0, 1] is a_r(1), in closed form.  Both ratios in
a_r are unchanged under t -> 1/t, so a_r(t) = a_r(1/t) and t = 1 is always
a stationary point.  That it is the global minimum is not proved here but
verified at 50 digits on 209 r (a 1/40 grid on (1, 6) without r = 2, plus
1.0001, 1.001, 1.999, 1.9999, 2.0001, 2.001, 8, 10, 20, 50 and 100) and
225 t (steps of 1/200, and 10^-k and 1 - 10^-k for k = 3..15): no a_r(t)
falls below a_r(1).  ``tests/test_oracle.py`` repeats a seeded scan over
the r that the certificates and the CLI use.  The closed form's
numerator (r-1) ln 2 - ln r vanishes at r = 1 and r = 2, so it is written
in two branches, each free of cancellation.

a_r itself is evaluated as

    a_r(t) = |p + w phi(t w)| / (p - u phi(t u)),   p = (r-1) phi(t),

with phi(x) = log1p(x)/x, w = (t^{r-1} - 1)/(1 - t^r) and
u = (t^{r-1} - 1)/(1 + t), where t^{r-1} - 1 and 1 - t^r are expm1 of
multiples of ln t.  That is the quotient of the two logarithms in a_r, each
divided by t: it stays within 1e-15 absolute of a 150-digit oracle on all
of [0, 1], subnormal t included, and gives the limit |r-2|/r at t = 0
itself; only t = 1 takes the closed form.  The numerator, ln G / t for the
two-point gap G, is the kernel ``_log_gap_over_t`` that ``proof_aux`` reads too.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .errors import DomainError, _integer, _real, _Record, _reals

__all__ = ["ThresholdResult", "a_r_fn", "a_r_values", "alpha_threshold_lower",
           "alpha_threshold_upper", "bisect", "gap_exponent_lower", "gap_exponent_upper",
           "golden_section_min", "min_a_r", "r0_value", "solve_r0", "solve_t1", "solve_t2"]

_LN2 = math.log(2.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The t1 and t2 brackets end this far inside (0, 1), or nearer 0 close to
# r = 2 (see _root); at t = 1 the equations' quotients are 0/0.
_BRACKET_CLIP = 1e-12

BISECT_XTOL = 1e-13
BISECT_MAX_ITER = 200

_GOLDEN_MAX_ITER = 200


class ThresholdResult(_Record):
    """A solved scalar threshold with its bracket and defining residual."""

    def __init__(self, value: float, bracket: tuple[float, float], residual: float,
                 iterations: int, low_confidence: bool = False) -> None:
        vars(self).update(value=value, bracket=bracket, residual=residual,
                          iterations=iterations, low_confidence=low_confidence)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "lo": self.bracket[0],
            "hi": self.bracket[1],
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _bracket(lo, hi, xtol, max_iter) -> tuple[float, float, float, int]:
    """A solver's bracket ends, tolerance and iteration cap, read; lo <= hi, the rest >= 0."""
    lo, hi = _real(lo, "lo"), _real(hi, "hi")
    if not lo <= hi:
        raise DomainError(f"bracket [{lo}, {hi}] must be finite with lo <= hi")
    xtol, max_iter = _real(xtol, "xtol"), _integer(max_iter, "max_iter")
    if xtol < 0.0:
        raise DomainError(f"xtol must be finite and >= 0 (got {xtol})")
    if max_iter < 0:
        raise DomainError(f"max_iter must be >= 0 (got {max_iter})")
    return lo, hi, xtol, max_iter


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = BISECT_XTOL,
    max_iter: int = BISECT_MAX_ITER,
) -> ThresholdResult:
    """Plain bisection on a sign-changing bracket; unconditionally convergent.

    Returns the midpoint of the final bracket together with the residual
    f(value).  Raises DomainError when the bracket is not finite with
    lo <= hi, when xtol or max_iter is negative, or when f(lo) and f(hi)
    are NaN or do not straddle 0.
    """
    lo, hi, xtol, max_iter = _bracket(lo, hi, xtol, max_iter)
    flo = f(lo)
    fhi = f(hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise DomainError(f"f is NaN at the bracket [{lo}, {hi}] (f = {flo}, {fhi})")
    if flo == 0.0:
        return ThresholdResult(lo, (lo, hi), 0.0, 0)
    if fhi == 0.0:
        return ThresholdResult(hi, (lo, hi), 0.0, 0)
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise DomainError(
            f"bracket [{lo}, {hi}] does not straddle a sign change "
            f"(f = {flo:.3e}, {fhi:.3e})"
        )
    low_confidence = min(abs(flo), abs(fhi)) < 1e-13
    a, b, fa = lo, hi, flo
    iterations = 0
    while b - a > xtol and iterations < max_iter:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval at floating-point resolution
            break
        fm = f(mid)
        iterations += 1
        if fm == 0.0:
            a = b = mid
            break
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = mid, fm
        else:
            b = mid
    value = 0.5 * (a + b)
    return ThresholdResult(value, (a, b), f(value), iterations, low_confidence)


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-10,
    max_iter: int = _GOLDEN_MAX_ITER,
) -> tuple[float, float]:
    """Golden-section refinement of a minimum inside [lo, hi].

    Tracks the best point actually evaluated (including the endpoints), so
    a minimum sitting on the bracket edge is never lost.  Raises DomainError
    when the bracket is not finite with lo <= hi, or when xtol or max_iter
    is negative.
    """
    lo, hi, xtol, max_iter = _bracket(lo, hi, xtol, max_iter)
    best_t, best_f = lo, f(lo)
    fhi = f(hi)
    if fhi < best_f:
        best_t, best_f = hi, fhi
    a, b = lo, hi
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    for t, ft in ((c, fc), (d, fd)):
        if ft < best_f:
            best_t, best_f = t, ft
    iterations = 0
    while b - a > xtol and iterations < max_iter:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
            if fc < best_f:
                best_t, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
            if fd < best_f:
                best_t, best_f = d, fd
        iterations += 1
    return best_t, best_f


def _profile_r(r) -> float:
    """r read as a real number; DomainError unless it is finite and > 1."""
    r = _real(r, "r")
    if not r > 1.0:
        raise DomainError(f"the profile needs a finite r > 1 (got {r})")
    return r


def _log_gap_at_one(r: float) -> float:
    """ln(2^{r-1}/r), the t = 1 limit of the gap kernel, free of cancellation at r = 1 and 2."""
    if r < 1.5:
        return (r - 1.0) * _LN2 - math.log1p(r - 1.0)
    return (r - 2.0) * _LN2 - math.log1p((r - 2.0) / 2.0)


def _a_r_at_one(r: float) -> float:
    """The t = 1 limit |(r-1) ln 2 - ln r| / ((r-1) ln 2), the minimum of a_r."""
    return abs(_log_gap_at_one(r)) / ((r - 1.0) * _LN2)


def _log1p_over(x: np.ndarray) -> np.ndarray:
    """log1p(x)/x, with its limit 1 at x = 0."""
    import numpy as np

    return np.where(x == 0.0, 1.0, np.log1p(x) / x)


def _log_gap_over_t(r, t):
    """ln[(1+t)^{r-1}(1-t)/(1-t^r)] / t as p + w phi(t w), over arrays of r > 1, t in [0, 1]."""
    import numpy as np

    # In place where the bits allow: the certificate grids spend their time here.
    with np.errstate(divide="ignore", invalid="ignore"):
        lnt = np.log(t)
        w = np.expm1((r - 1.0) * lnt)
        w /= -np.expm1(r * lnt)
        x = t * w
        k = np.log1p(x)
        k /= x
        k[x == 0.0] = 1.0  # phi(0) = 1
        k *= w
        k += (r - 1.0) * _log1p_over(t)
    at_one = np.reshape([_log_gap_at_one(v) for v in np.ravel(r).tolist()], np.shape(r))
    np.copyto(k, at_one, where=t == 1.0)
    np.copyto(k, r - 2.0, where=t == 0.0)  # the formula's limit for r > 1; r = 1 gives 0 ln 0
    return k


def a_r_values(r: float, t: np.ndarray) -> np.ndarray:
    """Vectorized a_r(t) over an array of t in [0, 1], with limit endpoints."""
    import numpy as np

    r = _profile_r(r)
    t = np.atleast_1d(_reals(t, "t"))
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise DomainError("t must lie in [0, 1]")
    # At t = 0, ln t = -inf carries the formula to its limit |r-2|/r; t = 1 is 0/0.
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.expm1((r - 1.0) * np.log(t)) / (1.0 + t)
        den = (r - 1.0) * _log1p_over(t) - u * _log1p_over(t * u)
        a = np.abs(_log_gap_over_t(r, t)) / den
    return np.where(t == 1.0, _a_r_at_one(r), a)


def a_r_fn(r: float, t: float) -> float:
    """The profile a_r(t) at a single point (limit values at t = 0 and 1)."""
    return float(a_r_values(r, [t])[0])


def min_a_r(r: float) -> tuple[float, float]:
    """Global minimum of a_r over [0, 1]: (1.0, a_r(1)), from the closed form.

    a_r(t) = a_r(1/t) makes t = 1 stationary; that it is the global minimum
    is verified at high precision over the r in use (module docstring).
    """
    return 1.0, _a_r_at_one(_profile_r(r))


# Scalar quotients, not the array kernel: bisect calls them thousands of times, at interior roots.
def _t1_gap(r: float, t: float) -> float:
    lhs = 2.0 - r - t ** (r - 1.0)
    rhs = (1.0 - t**r) / ((1.0 + t) ** (r - 1.0) * (1.0 - t)) - 1.0
    return lhs - rhs


def _t2_gap(r: float, t: float) -> float:
    lhs = r - 2.0 - t
    rhs = (1.0 + t) ** (r - 1.0) * (1.0 - t) / (1.0 - t**r) - 1.0
    return lhs - rhs


def _root(gap, r, lo: float, hi: float, what: str) -> tuple[float, ThresholdResult]:
    """r, read once and refused with ``what`` unless lo < r < hi, and the root of gap(r, t).

    Both gaps equal |r - 2| > 0 at t = 0 and are negative at t = 1 - clip,
    and near r = 2 the root is about |r - 2|.  So the bracket
    [min(clip, |r - 2|/4), 1 - clip] straddles the root at every r in range;
    where |r - 2| >= 4 clip it is [clip, 1 - clip].
    """
    r = _real(r, "r")
    if not lo < r < hi:
        raise DomainError(f"{what} (got {r})")
    t0 = min(_BRACKET_CLIP, abs(r - 2.0) / 4.0)
    return r, bisect(lambda t: gap(r, t), t0, 1.0 - _BRACKET_CLIP)


def solve_t1(r: float) -> ThresholdResult:
    """The unique t in (0, 1) equalizing the two sides of the t1 equation, 1 < r < 2."""
    return _root(_t1_gap, r, 1.0, 2.0, "t1 is defined for 1 < r < 2")[1]


def solve_t2(r: float) -> ThresholdResult:
    """The unique t in (0, 1) equalizing the two sides of the t2 equation, 2 < r < 3."""
    return _root(_t2_gap, r, 2.0, 3.0, "t2 is defined for 2 < r < 3")[1]


def gap_exponent_upper(r: float) -> float:
    """a1(r) = (2 - r - t1^{r-1}) / r, the proven-safe upward alpha margin.  Near r = 2,
    where a1 is about (r - 2)^2/2, only absolute accuracy holds, to about 1.4e-14."""
    r, t1 = _root(_t1_gap, r, 1.0, 2.0, "t1 is defined for 1 < r < 2")
    return (2.0 - r - t1.value ** (r - 1.0)) / r


def gap_exponent_lower(r: float) -> float:
    """a2(r) = (r - 2 - t2) / r, the proven-safe downward alpha margin.  Near r = 2,
    where a2 is about (r - 2)^2/2, only absolute accuracy holds, to about 1.4e-14."""
    r, t2 = _root(_t2_gap, r, 2.0, 3.0, "t2 is defined for 2 < r < 3")
    return (r - 2.0 - t2.value) / r


def alpha_threshold_upper(r: float) -> float:
    """Largest proven alpha for the upper three-mean bound at {1, 1/r, 0}, 1 < r < 2."""
    r = _real(r, "r")
    if not 1.0 < r < 2.0:
        raise DomainError(f"the upper threshold needs 1 < r < 2 (got {r})")
    return 1.0 + gap_exponent_upper(r)


def alpha_threshold_lower(r: float) -> float:
    """Smallest proven alpha for the lower three-mean bound at {1, 1/r, 0}, r > 2.

    Piecewise: 1 - a2(r) on (2, 3), 1 - 1/(3r) on [3, 4), 1 - (r-2)/r^2 on
    [4, inf).  Where r^2 passes the float range (r above about 1.34e154),
    (r-2)/r^2 < 2^-54 and the value rounds to 1.
    """
    r = _real(r, "r")
    if not r > 2.0:
        raise DomainError(f"the lower threshold needs a finite r > 2 (got {r})")
    if r < 3.0:
        return 1.0 - gap_exponent_lower(r)
    if r < 4.0:
        return 1.0 - 1.0 / (3.0 * r)
    try:
        return 1.0 - (r - 2.0) / r**2
    except OverflowError:
        return 1.0


def solve_r0() -> ThresholdResult:
    """The root r0 in (1/2, 1) of (3r + 1) 3^{1/r} = 63/4.

    The left side is strictly decreasing on [1/2, 1] (22.5 at 1/2, 12 at 1),
    so bisection on that bracket is sound.
    """
    return bisect(lambda r: (3.0 * r + 1.0) * 3.0 ** (1.0 / r) - 63.0 / 4.0, 0.5, 1.0)


@functools.lru_cache(maxsize=1)
def r0_value() -> float:
    """Cached value of the r0 root (used as a hypothesis bound elsewhere)."""
    return solve_r0().value
