"""A catalog of scalar certificate functions with grid-testable sign claims.

Each tag packages one scalar function that carries the weight of a step in
the validity proofs, together with the sign (or bound) it is claimed to
satisfy on a stated domain.  ``aux_eval`` evaluates the raw value at one
point; ``aux_sign_check`` sweeps a grid over the claimed domain and
reports the worst point.  The table is rendered from the catalog entries:

@CATALOG@

The core/gap/chain functions have a removable 0/0 at t = 1, and t = 1 alone
takes the closed-form limit.  All functions broadcast over numpy arrays.  A
grid is one 1-D axis per argument, shaped so that the axes broadcast against
each other (an open mesh); an argument that depends on another, such as the
core functions' a tied to r, shares that argument's axis.  Default and
custom grids take the same path: one broadcast mask marks the admissible
points, the function is evaluated in blocks of about 2^17 points along the
grid's longest axis, so that its temporaries stay in cache, and the worst
admissible point is reported.  That is the point ``np.argmin`` would pick
over the whole grid: the first NaN margin if there is one, else the first
smallest margin in C order.  Each default grid is built once per process,
on first use, and kept read-only.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._tables import with_table
from .errors import DomainError
from .thresholds import (
    _a_r_at_one, _log_gap_over_t, alpha_threshold_lower, alpha_threshold_upper, r0_value,
)

DEFAULT_SIGN_TOL = 1e-10
MAX_GRID_POINTS = 1_000_000
_BLOCK_POINTS = 1 << 17  # 1 MiB per float64 temporary


class AuxFunctionId(str, Enum):
    CORE_UPPER = "core-upper"
    CORE_LOWER = "core-lower"
    SHIFTED_RATIO_MONOTONE = "shifted-ratio-monotone"
    LINEAR_GAP_BOUND = "linear-gap-bound"
    BINOMIAL_CHAIN = "binomial-chain"
    GROWTH_RATIO_MONOTONE = "growth-ratio-monotone"
    ENVELOPE_HI_WEIGHT = "envelope-hi-weight"
    ENVELOPE_LO_WEIGHT = "envelope-lo-weight"
    TANGENT_SLOPE = "tangent-slope"
    TANGENT_CUBIC = "tangent-cubic"
    EXPONENT_MARGIN = "exponent-margin"
    THREE_SAMPLE_LOWER = "three-sample-lower"


def _is_positive_int(value) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


@dataclass(frozen=True)
class GridAxis:
    """One axis of a rectangular check grid.

    The bounds must be finite, and positive on a log axis; ``count`` is a
    positive integer (interior points, when an end is open).
    """

    lo: float
    hi: float
    count: int
    open_lo: bool = False
    open_hi: bool = False
    log: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"axis bounds must be finite, got [{self.lo}, {self.hi}]")
        if not _is_positive_int(self.count):
            raise DomainError(f"axis count must be a positive integer, got {self.count!r}")
        if self.log and not (self.lo > 0.0 and self.hi > 0.0):
            raise DomainError(f"a log axis needs lo > 0 and hi > 0, got [{self.lo}, {self.hi}]")

    def points(self) -> np.ndarray:
        n = self.count + int(self.open_lo) + int(self.open_hi)
        if self.log:
            pts = np.geomspace(self.lo, self.hi, n)
        else:
            pts = np.linspace(self.lo, self.hi, n)
        start = 1 if self.open_lo else 0
        stop = -1 if self.open_hi else None
        return pts[start:stop]

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GridAxis":
        return cls(
            lo=float(payload["lo"]),
            hi=float(payload["hi"]),
            count=payload["count"],
            open_lo=bool(payload.get("open_lo", False)),
            open_hi=bool(payload.get("open_hi", False)),
            log=bool(payload.get("log", False)),
        )


@dataclass(frozen=True)
class SignCheckReport:
    """Result of sweeping one claim over a grid; worst point included."""

    id: AuxFunctionId
    domain: str
    worst_point: dict
    worst_value: float
    margin: float
    verdict: str  # "AllSatisfy" | "ViolationFound"
    points_checked: int

    def to_json_dict(self) -> dict:
        return {
            "id": self.id.value,
            "domain": self.domain,
            "worst_point": self.worst_point,
            "worst_value": self.worst_value,
            "margin": self.margin,
            "verdict": self.verdict,
            "points_checked": self.points_checked,
        }


# ---------------------------------------------------------------------------
# The functions themselves (vectorized over numpy arrays).

def _penalty(r, a, t):
    return ((1.0 + t) ** r / (1.0 + t**r)) ** a


def _core_upper(r, a, t):
    return np.exp(-t * _log_gap_over_t(r, t)) - _penalty(r, a, t)


def _core_lower(r, a, t):
    return np.exp(t * _log_gap_over_t(r, t)) - _penalty(r, a, t)


def _shifted_ratio_monotone(r, p, s, z):
    # d/ds ln[(z+s)^{p-1}/(z^r+s)^{p/r-1}]
    return (p - 1.0) / (z + s) - (p / r - 1.0) / (z**r + s)


def _linear_gap_bound(r, a, t):
    gap = np.expm1(np.where(r < 2.0, -t, t) * _log_gap_over_t(r, t))
    return gap - a * r * t


def _binomial_chain(r, t):
    # the geometric tail (1-t^r)/(1-t), with its t -> 1 limit r
    with np.errstate(divide="ignore", invalid="ignore"):
        lnt = np.log(t)
        tail = np.where(t == 1.0, r, np.expm1(r * lnt) / np.expm1(lnt))
    return (1.0 + t) ** (r - 1.0) - tail - (r - 2.0) * t


def _growth_ratio_monotone(r, t):
    # d/dr of (1+t)^r/(1-t^r), with t^{-r} folded away to avoid overflow:
    # (1+t)^r [ln(1+t)(1-t^r) + t^r ln t] / (1-t^r)^2
    tr = t**r
    return (1.0 + t) ** r * (np.log1p(t) * (1.0 - tr) + tr * np.log(t)) / (1.0 - tr) ** 2


def _envelope_hi_weight(q, r):
    return (1.0 - 2.0 * q) / 3.0 + (r - 1.0 / 3.0) * q ** (2.0 - 1.0 / r) \
        + (2.0 / 3.0) * q ** (3.0 - 1.0 / r)


def _envelope_lo_weight(q, r):
    return ((1.0 - r) * (2.0 * r - 1.0) / 3.0 * (1.0 - 2.0 * q) + r) \
        * q ** (2.0 - 1.0 / r)


def _tangent_slope(q, r):
    return -0.5 - 2.0 * q + 2.0 * r * q ** (2.0 - 1.0 / r) + 2.0 * q ** (3.0 - 1.0 / r)


def _tangent_cubic(x, q, r):
    w = q ** (2.0 - 1.0 / r)
    return -0.5 + w * (1.0 - r) * x + (1.0 - w) * x ** (1.0 - 2.0 * q) \
        - (0.5 - r * w) * x**3


def _exponent_margin(x, r):
    return r * x ** (2.0 - 1.0 / r) - 0.5 - x + x ** (3.0 - 1.0 / r)


def _three_sample_denom(q1, q2, q3, r):
    q = np.minimum(np.minimum(q1, q2), q3)
    beta = 1.0 - (1.0 - q) ** (2.0 - 1.0 / r)
    with np.errstate(divide="ignore"):
        return r + 1.0 - q3 - (r - 0.5) / beta


def _three_sample_lower(y, q1, q2, q3, r):
    denom = _three_sample_denom(q1, q2, q3, r)
    expo = q2 / denom
    with np.errstate(over="ignore"):
        return y**expo - q2 / (1.0 - q3) * y - q1 / (1.0 - q3)


# ---------------------------------------------------------------------------
# Scalar-call domains: a test of one argument tuple, and its description.

_CORE_TAKES = (lambda r, a, t: r > 1.0 and 0.0 <= t <= 1.0 and a >= 0.0,
               "r > 1, 0 <= t <= 1, a >= 0")
_WEIGHT_FN_TAKES = (lambda q, r: 0.0 < q < 1.0 and r > 0.5, "0 < q < 1, r > 1/2")


def _three_sample_takes(y, q1, q2, q3, r):
    return (min(q1, q2, q3) > 0.0 and abs(q1 + q2 + q3 - 1.0) <= 1e-9 and y >= 1.0
            and r > 0.5 and _three_sample_denom(q1, q2, q3, r) > 0.0)


# ---------------------------------------------------------------------------
# Default grids over the claimed domains, as broadcast axes in argument order.

def _core_axes(upper: bool):
    # a is tied to r, so it shares r's (R, 1) column.
    lo, hi = (1.05, 1.95) if upper else (2.05, 5.0)
    rs = np.linspace(lo, hi, 19)
    avals = np.array([_a_r_at_one(r) for r in rs.tolist()])
    if not upper:
        avals = np.minimum(1.0 - 1.0 / rs, avals)
    axes = (rs[:, None], avals[:, None], np.linspace(0.0, 1.0, 501)[None, :])
    desc = (f"r in [{lo}, {hi}] x19 with a tied to the closed-form profile minimum a_r(1), "
            "t in [0, 1] x501")
    return axes, desc


def _linear_gap_axes():
    rs = np.concatenate([np.linspace(1.02, 1.98, 25), np.linspace(2.02, 2.98, 25)])
    avals = [alpha_threshold_upper(r) - 1.0 if r < 2.0 else 1.0 - alpha_threshold_lower(r)
             for r in rs]
    axes = (rs[:, None], np.array(avals)[:, None], np.linspace(0.0, 1.0, 401)[None, :])
    return axes, "r in (1, 2) and (2, 3), 25 each, a = solved gap exponent, t in [0, 1] x401"


def _weight_axes(q_hi: float, label: str):
    return lambda: (np.ix_(np.linspace(1e-4, q_hi, 200), np.linspace(r0_value(), 1.0, 50)),
                    f"q in (0, {label}] x200, r in [r0, 1] x50")


def _three_sample_axes():
    # The admissibility condition confines (weights, r) to a thin sliver
    # near equal weights with r close to 1, so keep only the admissible
    # pairs, as (P, 1) columns, and cross them with the y axis.
    vals = np.linspace(0.005, 0.99, 160)
    q1, q2 = np.broadcast_arrays(*np.ix_(vals, vals))
    on_simplex = _last_weight(q1, q2) > 0
    q1, q2 = q1[on_simplex][:, None], q2[on_simplex][:, None]
    r = np.linspace(1.0, 2.0, 40)[None, :]
    keep = _three_sample_admissible(q1, q2, _last_weight(q1, q2), r)
    pairs = (np.broadcast_to(v, keep.shape)[keep][:, None] for v in (q1, q2, r))
    desc = ("y in [1, 100] x60 log, weight simplex at step ~0.006 and r in [1, 2] x40 "
            "restricted to admissible pairs")
    return (np.geomspace(1.0, 100.0, 60)[None, :], *pairs), desc


def _last_weight(q1, q2):
    return 1.0 - q1 - q2


def _three_sample_admissible(q1, q2, q3, r):
    return (q3 > 0) & (_three_sample_denom(q1, q2, q3, r) > 1e-9)


# ---------------------------------------------------------------------------
# Catalog.

@dataclass(frozen=True)
class _CatalogEntry:
    fn: Callable
    args: tuple[str, ...]
    statement: str  # the function and its claim, as documented
    claim: str  # "ge" or "le"
    bound: float
    takes: tuple[Callable[..., bool], str]  # the arguments aux_eval takes
    # () -> (broadcast axes for the grid arguments, domain description)
    default_grid: Callable[[], tuple[tuple[np.ndarray, ...], str]]
    admissible: Callable[..., np.ndarray] | None = None

    @property
    def grid_names(self) -> tuple[str, ...]:
        """The arguments a grid spans: all but three-sample's derived q3."""
        return tuple(name for name in self.args if name != "q3")

    def complete(self, axes) -> tuple[np.ndarray, ...]:
        """The function's arguments from a grid's axes, deriving q3 = 1 - q1 - q2."""
        if "q3" not in self.args:
            return tuple(axes)
        named = dict(zip(self.grid_names, axes))
        named["q3"] = _last_weight(named["q1"], named["q2"])
        return tuple(named[name] for name in self.args)


_CATALOG: dict[AuxFunctionId, _CatalogEntry] = {
    AuxFunctionId.CORE_UPPER: _CatalogEntry(
        _core_upper, ("r", "a", "t"),
        "(1-t^r)/((1+t)^{r-1}(1-t)) - ((1+t)^r/(1+t^r))^a >= 0"
        " for 1 < r <= 2, a <= min-profile(r)",
        "ge", 0.0, _CORE_TAKES, lambda: _core_axes(upper=True),
    ),
    AuxFunctionId.CORE_LOWER: _CatalogEntry(
        _core_lower, ("r", "a", "t"),
        "(1+t)^{r-1}(1-t)/(1-t^r) - ((1+t)^r/(1+t^r))^a >= 0"
        " for r >= 2, a <= min(1-1/r, min-profile(r))",
        "ge", 0.0, _CORE_TAKES, lambda: _core_axes(upper=False),
    ),
    AuxFunctionId.SHIFTED_RATIO_MONOTONE: _CatalogEntry(
        _shifted_ratio_monotone, ("r", "p", "s", "z"),
        "d/ds ln[(z+s)^{p-1}/(z^r+s)^{p/r-1}] = (p-1)/(z+s) - (p/r-1)/(z^r+s) >= 0"
        " for z > 1, p >= r > 1, 0 <= s <= 1",
        "ge", 0.0, (lambda r, p, s, z: z > 1.0 and p >= r > 1.0 and 0.0 <= s <= 1.0,
                    "z > 1, p >= r > 1, 0 <= s <= 1"),
        lambda: (np.ix_(np.linspace(1.1, 4.0, 12), np.linspace(1.1, 8.0, 14),
                        np.linspace(0.0, 1.0, 21), np.geomspace(1.01, 100.0, 16)),
                 "r in [1.1, 4] x12, p in [1.1, 8] x14 (p >= r), s in [0, 1] x21, "
                 "z in (1, 100] x16 log"),
        admissible=lambda r, p, s, z: p >= r,
    ),
    AuxFunctionId.LINEAR_GAP_BOUND: _CatalogEntry(
        _linear_gap_bound, ("r", "a", "t"),
        "gap(r, t) - a r t >= 0 where gap is the scalar core gap (upper branch for"
        " 1 < r < 2, lower for r > 2), for a up to the solved gap exponent",
        "ge", 0.0, (lambda r, a, t: (1.0 < r < 2.0 or r > 2.0) and 0.0 <= t <= 1.0 and a >= 0.0,
                    "1 < r < 2 or r > 2, 0 <= t <= 1, a >= 0"),
        _linear_gap_axes,
        admissible=lambda r, a, t: np.abs(r - 2.0) > 1e-9,
    ),
    AuxFunctionId.BINOMIAL_CHAIN: _CatalogEntry(
        _binomial_chain, ("r", "t"), "(1+t)^{r-1} - (1-t^r)/(1-t) - (r-2) t >= 0 for r >= 4",
        "ge", 0.0, (lambda r, t: r > 0.0 and 0.0 <= t <= 1.0, "r > 0, 0 <= t <= 1"),
        lambda: (np.ix_(np.linspace(4.0, 8.0, 81), np.linspace(0.0, 1.0, 500)),
                 "r in [4, 8] x81, t in [0, 1] x500"),
    ),
    AuxFunctionId.GROWTH_RATIO_MONOTONE: _CatalogEntry(
        _growth_ratio_monotone, ("r", "t"), "d/dr [(1+t)^r/(1-t^r)] >= 0 for r >= 2, 0 < t < 1",
        "ge", 0.0, (lambda r, t: r > 0.0 and 0.0 < t < 1.0, "r > 0, 0 < t < 1"),
        lambda: (np.ix_(np.linspace(2.0, 4.0, 81), np.linspace(1e-3, 1.0 - 1e-3, 500)),
                 "r in [2, 4] x81, t in (0, 1) x500"),
    ),
    AuxFunctionId.ENVELOPE_HI_WEIGHT: _CatalogEntry(
        _envelope_hi_weight, ("q", "r"),
        "(1-2q)/3 + (r-1/3) q^{2-1/r} + (2/3) q^{3-1/r} <= 1/2"
        " for 0 < q <= 1/2, r in [r0, 1]",
        "le", 0.5, _WEIGHT_FN_TAKES, _weight_axes(0.5, "1/2"),
    ),
    AuxFunctionId.ENVELOPE_LO_WEIGHT: _CatalogEntry(
        _envelope_lo_weight, ("q", "r"),
        "((1-r)(2r-1)(1-2q)/3 + r) q^{2-1/r} <= 1/2 for 0 < q <= 1/2, r in [r0, 1]",
        "le", 0.5, _WEIGHT_FN_TAKES, _weight_axes(0.5, "1/2"),
    ),
    AuxFunctionId.TANGENT_SLOPE: _CatalogEntry(
        _tangent_slope, ("q", "r"),
        "-1/2 - 2q + 2r q^{2-1/r} + 2 q^{3-1/r} <= 0 for 0 < q <= 1/3, r in [r0, 1];"
        " vanishes at q = 1/3, r = r0",
        "le", 0.0, _WEIGHT_FN_TAKES, _weight_axes(1.0 / 3.0, "1/3"),
    ),
    AuxFunctionId.TANGENT_CUBIC: _CatalogEntry(
        _tangent_cubic, ("x", "q", "r"),
        "-1/2 + q^{2-1/r}(1-r) x + (1-q^{2-1/r}) x^{1-2q} - (1/2 - r q^{2-1/r}) x^3 <= 0"
        " for x >= 1, q <= 1/3, r in [r0, 1]; vanishes at x = 1",
        "le", 0.0, (lambda x, q, r: x > 0.0 and 0.0 < q < 1.0 and r > 0.5,
                    "x > 0, 0 < q < 1, r > 1/2"),
        lambda: (np.ix_(np.geomspace(1.0, 100.0, 150), np.linspace(1e-3, 1.0 / 3.0, 40),
                        np.linspace(r0_value(), 1.0, 25)),
                 "x in [1, 100] x150 log, q in (0, 1/3] x40, r in [r0, 1] x25"),
    ),
    AuxFunctionId.EXPONENT_MARGIN: _CatalogEntry(
        _exponent_margin, ("x", "r"),
        "r x^{2-1/r} - 1/2 - x + x^{3-1/r} >= 0 for 3/4 <= x <= 1, 1 <= r <= 2",
        "ge", 0.0, (lambda x, r: x > 0.0 and r > 0.5, "x > 0, r > 1/2"),
        lambda: (np.ix_(np.linspace(0.75, 1.0, 200), np.linspace(1.0, 2.0, 100)),
                 "x in [3/4, 1] x200, r in [1, 2] x100"),
    ),
    AuxFunctionId.THREE_SAMPLE_LOWER: _CatalogEntry(
        _three_sample_lower, ("y", "q1", "q2", "q3", "r"),
        "y^E - q2 y/(1-q3) - q1/(1-q3) >= 0 for y >= 1, 1 <= r <= 2 and admissible"
        " weights, where E = q2 / (r + 1 - q3 - (r-1/2)/(1-(1-q)^{2-1/r})) and"
        " admissible means that denominator is > 0",
        "ge", 0.0, (_three_sample_takes, "y >= 1, r > 1/2, positive weights summing to 1"
                                         " and a positive denominator of E"),
        _three_sample_axes,
        admissible=lambda y, q1, q2, q3, r: _three_sample_admissible(q1, q2, q3, r),
    ),
}

__doc__ = with_table(__doc__, [("tag (args)", "function and claim")] + [
    (f"{id.value} ({', '.join(entry.args)})", entry.statement) for id, entry in _CATALOG.items()
], (56,))


def aux_eval(id: AuxFunctionId, args: tuple) -> float:
    """The raw value of one catalog function at one argument tuple."""
    id = AuxFunctionId(id)
    entry = _CATALOG[id]
    if len(args) != len(entry.args):
        raise DomainError(f"{id.value} takes arguments {entry.args}, got {len(args)}")
    vals = tuple(float(v) for v in args)
    in_domain, takes = entry.takes
    if not (all(map(math.isfinite, vals)) and in_domain(*vals)):
        raise DomainError(f"{id.value} takes finite {takes}, got {vals}")
    arrays = tuple(np.asarray([v]) for v in vals)
    return float(entry.fn(*arrays)[0])


def claimed_bound(id: AuxFunctionId) -> tuple[str, float]:
    """The claim attached to a tag: direction ('ge'/'le') and the bound."""
    entry = _CATALOG[AuxFunctionId(id)]
    return entry.claim, entry.bound


def aux_sign_check(
    id: AuxFunctionId,
    grid: dict | None = None,
    *,
    tolerance: float = DEFAULT_SIGN_TOL,
    max_points: int = MAX_GRID_POINTS,
) -> SignCheckReport:
    """Sweep one claim over a grid and report the worst point.

    ``grid`` maps each axis name the tag takes, and no other, to a
    :class:`GridAxis` (or the equivalent JSON dict); omitted, the tag's
    default grid over its claimed domain is used.  The verdict is
    AllSatisfy when the claimed bound holds at every point within
    ``tolerance`` (absolute).
    """
    if not 0.0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0 (got {tolerance})")
    if not _is_positive_int(max_points):
        raise DomainError(f"max_points must be a positive integer, got {max_points!r}")
    id = AuxFunctionId(id)
    entry = _CATALOG[id]
    if grid is None:
        axes, desc = _default_axes(id)
    else:
        axes, desc = _custom_axes(entry, grid, max_points)
    args = entry.complete(axes)
    shape = np.broadcast_shapes(*(a.shape for a in args))
    if entry.admissible is None:
        mask, count = None, math.prod(shape)
    else:
        mask = np.broadcast_to(entry.admissible(*args), shape)
        count = int(np.count_nonzero(mask))
    if count == 0:
        raise DomainError("the grid contains no admissible points")
    if count > max_points:
        raise DomainError(f"grid has {count} points, above the cap {max_points}")
    # Blocks along the longest axis: a term that does not involve the
    # blocked axis is recomputed in every block, so keep the blocks few.
    axis = max(range(len(shape)), key=shape.__getitem__)
    step = max(1, _BLOCK_POINTS * shape[axis] // math.prod(shape))
    worst = None
    for start in range(0, shape[axis], step):
        block = (slice(None),) * axis + (slice(start, start + step),)
        sub = entry.complete(tuple(a if a.shape[axis] == 1 else a[block] for a in axes))
        # Inadmissible points are evaluated too, and may overflow or divide by zero.
        with np.errstate(all="ignore"):
            values = entry.fn(*sub)
        size = min(step, shape[axis] - start)
        values = np.broadcast_to(values, shape[:axis] + (size,) + shape[axis + 1:])
        margins = values - entry.bound if entry.claim == "ge" else entry.bound - values
        if mask is None:
            j = np.argmin(margins)
        else:
            kept = np.flatnonzero(mask[block])
            if kept.size == 0:
                continue
            j = kept[np.argmin(margins.ravel()[kept])]
        local = np.unravel_index(j, margins.shape)
        margin = float(margins[local])
        at = local[:axis] + (start + local[axis],) + local[axis + 1:]
        # np.argmin's order over the whole grid: NaN first, then the
        # smallest margin, and the first in C order among equals.
        nan = math.isnan(margin)
        key = (not nan, 0.0 if nan else margin, at)
        if worst is None or key < worst[0]:
            worst = key, margin, float(values[local])
    key, margin, value = worst
    at = key[-1]
    return SignCheckReport(
        id=id,
        domain=desc,
        worst_point={
            name: float(np.broadcast_to(a, shape)[at]) for name, a in zip(entry.args, args)
        },
        worst_value=value,
        margin=margin,
        verdict="AllSatisfy" if margin >= -tolerance else "ViolationFound",
        points_checked=count,
    )


@functools.cache  # every default grid is fixed; three-sample's took 8 ms to build
def _default_axes(id: AuxFunctionId):
    axes, desc = _CATALOG[id].default_grid()
    for a in axes:
        a.flags.writeable = False
    return axes, desc


def _custom_axes(entry: _CatalogEntry, grid: dict, max_points: int):
    names = entry.grid_names
    if set(grid) != set(names):
        raise DomainError(f"grid has axes {tuple(grid)}, but this tag takes {names}")
    axes = [GridAxis.from_json_dict(axis) if isinstance(axis, dict) else axis
            for axis in (grid[name] for name in names)]
    # Count before building any points, so that a refused grid allocates nothing.
    total = math.prod(int(axis.count) for axis in axes)
    if total > max_points:
        raise DomainError(f"grid would have {total} points, above the cap {max_points}")
    points = [axis.points() for axis in axes]
    desc = ", ".join(
        f"{name} in [{a[0]:g}, {a[-1]:g}] x{len(a)}" for name, a in zip(names, points)
    )
    return np.ix_(*points), desc
