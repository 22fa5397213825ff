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

All solvers use plain bisection on brackets whose sign change is
guaranteed by monotonicity; the minimizer is a dense grid refined by
golden-section search and assumes no unimodality.  Everything here is a
pure function, safe for concurrent use.

The a_r formula is written once, in the unchecked kernel ``_a_r``, which
broadcasts r against t; ``a_r_values`` validates its input and calls it.
There is one golden-section loop, the generator ``_golden_section``, and
``_golden_lanes`` steps any number of them in lockstep, with one call of
the objective per step over all lanes.  Lane state is Python floats, since
numpy's per-call overhead would dominate a single lane; the objective is
the only array work.  ``golden_section_min`` is a one-lane call.  There is
one profile solver, ``_min_a_r_rows``: one grid evaluation of shape
(R, 2049), then R golden sections in lockstep.  It serves the 19-r default
core-certificate grids, and ``min_a_r`` is its one-r call.  r is passed to
the kernel as given: one float r runs numpy's ``array ** scalar`` loops, an
array of r the elementwise ones, whose result for one element does not
depend on the array around it.  The two agree except where the scalar loop
takes sqrt or square for the exponents 1/2 and 2, at r in {1.5, 2, 3}; the
tests pin those three.  (A scalar ``math`` form of the kernel would round
differently from numpy's loops in about one evaluation in eight.)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

_LN2 = math.log(2.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Interior brackets are clipped here; defining equations degenerate at the
# endpoints of their r-ranges.
_BRACKET_CLIP = 1e-12
_SINGULAR_T = 1e-8

BISECT_XTOL = 1e-13
BISECT_MAX_ITER = 200

_GOLDEN_MAX_ITER = 200

# The profile solver's grid and polish tolerance.
_PROFILE_GRID_POINTS = 2049
_PROFILE_XTOL = 1e-10


@dataclass(frozen=True)
class ThresholdResult:
    """A solved scalar threshold with its bracket and defining residual."""

    value: float
    bracket: tuple[float, float]
    residual: float
    iterations: int
    low_confidence: bool = False

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "lo": self.bracket[0],
            "hi": self.bracket[1],
            "residual": self.residual,
            "iterations": self.iterations,
        }


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
    lo <= hi, or when f(lo) and f(hi) are NaN or do not straddle 0.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError(f"bracket [{lo}, {hi}] must be finite with lo <= hi")
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
    a minimum sitting on the bracket edge is never lost.
    """
    return _golden_lanes(lambda u: [f(u[0])], [lo], [hi], xtol, max_iter)[0]


def _golden_section(lo: float, hi: float, xtol: float, max_iter: int):
    """The points golden section evaluates on [lo, hi], ends first: a
    generator that yields each point and is sent the value there."""
    a, b = lo, hi
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    yield lo
    yield hi
    fc = yield c
    fd = yield d
    for _ in range(max_iter):
        if not b - a > xtol:
            return
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = yield d


def _golden_lanes(
    f: Callable[[list], list], lo: list, hi: list, xtol: float, max_iter: int
) -> list[tuple[float, float]]:
    """One golden section per bracket [lo[k], hi[k]], stepped in lockstep.

    ``f`` maps a list of points, one per lane, to the list of their values;
    a lane that has finished is fed its last point again.  Returns each
    lane's best evaluated (t, f(t)), the first of equal values.
    """
    live = list(enumerate(_golden_section(*b, xtol, max_iter) for b in zip(lo, hi)))
    t = [next(lane) for _, lane in live]
    ft = f(t)
    best = list(zip(t, ft))
    while True:
        for k, lane in live:
            if ft[k] < best[k][1]:
                best[k] = t[k], ft[k]
            try:
                t[k] = lane.send(ft[k])
            except StopIteration:  # this pass keeps iterating the old list
                live = [p for p in live if p[0] != k]
        if not live:
            return best
        ft = f(t)


def _check_profile_r(r: float) -> None:
    if not 1.0 < r < math.inf:
        raise DomainError(f"the profile needs a finite r > 1 (got {r})")


def _a_r_at_one(r: float) -> float:
    """The t = 1 limit |ln(2^{r-1}/r)| / ((r-1) ln 2)."""
    return abs((r - 1.0) * _LN2 - math.log(r)) / ((r - 1.0) * _LN2)


def _a_r(r, t: np.ndarray, at_one) -> np.ndarray:
    """a_r(t) without input checks: ``r`` broadcasts against ``t``, and
    ``at_one`` is ``_a_r_at_one`` of each r.

    Call it inside ``np.errstate(divide="ignore", invalid="ignore")``: the
    formula is 0/0 at both ends, where the limits replace it.  ``t`` must be
    an array, never a Python or numpy scalar, so that every power and
    logarithm runs numpy's array loops and the bits do not depend on the
    caller.
    """
    tr = t**r
    num = np.abs(np.log((1.0 + t) ** (r - 1.0) * (1.0 - t) / (1.0 - tr)))
    den = r * np.log1p(t) - np.log1p(tr)
    vals = np.where(t < _SINGULAR_T, abs(r - 2.0) / r, num / den)
    return np.where(t > 1.0 - _SINGULAR_T, at_one, vals)


def a_r_values(r: float, t: np.ndarray) -> np.ndarray:
    """Vectorized a_r(t) over an array of t in [0, 1], with limit endpoints."""
    _check_profile_r(r)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise DomainError("t must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _a_r(r, t, _a_r_at_one(r))


def a_r_fn(r: float, t: float) -> float:
    """The profile a_r(t) at a single point (limit values at t = 0 and 1)."""
    return float(a_r_values(r, np.asarray([t]))[0])


def min_a_r(r: float) -> tuple[float, float]:
    """Global minimum of a_r over [0, 1]: a dense grid refined by golden section.

    No unimodality is assumed: the grid localizes the global minimum and
    golden section only polishes the best cell.  Returns (t_star, a_star).
    """
    _check_profile_r(r)
    t_star, a_star = _min_a_r_rows(r)
    return float(t_star[0]), float(a_star[0])


def _min_a_r_rows(rs: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``min_a_r(r)`` for every r in ``rs`` (each a finite r > 1), bit for bit.

    ``rs`` is one float r or an (R,) array of them, passed to the kernel as
    given.  One grid evaluation of shape (R, 2049), then one golden section
    per r, all stepped in lockstep.  Returns the arrays (t_star, a_star).
    """
    at_one = np.array([_a_r_at_one(r) for r in np.ravel(rs).tolist()])
    ts = np.linspace(0.0, 1.0, _PROFILE_GRID_POINTS)
    last = _PROFILE_GRID_POINTS - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _a_r(rs[:, None] if np.ndim(rs) else rs, ts, at_one[:, None])
        i = vals.argmin(axis=1).tolist()
        polished = _golden_lanes(
            lambda u: _a_r(rs, np.array(u), at_one).tolist(),
            [float(ts[max(j - 1, 0)]) for j in i],
            [float(ts[min(j + 1, last)]) for j in i],
            _PROFILE_XTOL,
            _GOLDEN_MAX_ITER,
        )
    grid = [(ts[j], vals[k, j]) for k, j in enumerate(i)]
    t_star, a_star = zip(*(g if g[1] < p[1] else p for g, p in zip(grid, polished)))
    return np.array(t_star), np.array(a_star)


def _t1_gap(r: float, t: float) -> float:
    lhs = 2.0 - r - t ** (r - 1.0)
    rhs = (1.0 - t**r) / ((1.0 + t) ** (r - 1.0) * (1.0 - t)) - 1.0
    return lhs - rhs


def _t2_gap(r: float, t: float) -> float:
    lhs = r - 2.0 - t
    rhs = (1.0 + t) ** (r - 1.0) * (1.0 - t) / (1.0 - t**r) - 1.0
    return lhs - rhs


def solve_t1(r: float) -> ThresholdResult:
    """The unique t in (0, 1) equalizing the two sides of the t1 equation.

    For 1 < r < 2 the left side decreases from a positive value to a
    negative one while the right side increases from 0, so the clipped
    bracket is guaranteed to straddle the root.
    """
    if not 1.0 < r < 2.0:
        raise DomainError(f"t1 is defined for 1 < r < 2 (got {r})")
    return bisect(
        lambda t: _t1_gap(r, t), _BRACKET_CLIP, 1.0 - _BRACKET_CLIP
    )


def solve_t2(r: float) -> ThresholdResult:
    """The unique t in (0, 1) equalizing the two sides of the t2 equation."""
    if not 2.0 < r < 3.0:
        raise DomainError(f"t2 is defined for 2 < r < 3 (got {r})")
    return bisect(
        lambda t: _t2_gap(r, t), _BRACKET_CLIP, 1.0 - _BRACKET_CLIP
    )


def gap_exponent_upper(r: float) -> float:
    """a1(r) = (2 - r - t1^{r-1}) / r, the proven-safe upward alpha margin."""
    t1 = solve_t1(r).value
    return (2.0 - r - t1 ** (r - 1.0)) / r


def gap_exponent_lower(r: float) -> float:
    """a2(r) = (r - 2 - t2) / r, the proven-safe downward alpha margin."""
    t2 = solve_t2(r).value
    return (r - 2.0 - t2) / r


def alpha_threshold_upper(r: float) -> float:
    """Largest proven alpha for the upper three-mean bound at {1, 1/r, 0}, 1 < r < 2."""
    if not 1.0 < r < 2.0:
        raise DomainError(f"the upper threshold needs 1 < r < 2 (got {r})")
    return 1.0 + gap_exponent_upper(r)


def alpha_threshold_lower(r: float) -> float:
    """Smallest proven alpha for the lower three-mean bound at {1, 1/r, 0}, r > 2.

    Piecewise: 1 - a2(r) on (2, 3), 1 - 1/(3r) on [3, 4), 1 - (r-2)/r^2 on
    [4, inf).
    """
    if not r > 2.0:
        raise DomainError(f"the lower threshold needs r > 2 (got {r})")
    if r < 3.0:
        return 1.0 - gap_exponent_lower(r)
    if r < 4.0:
        return 1.0 - 1.0 / (3.0 * r)
    return 1.0 - (r - 2.0) / r**2


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
