"""Named mean inequalities as signed residuals with validity verdicts.

Every tag is an inequality of the form ``lhs <= rhs`` between expressions
in the weighted power means of one configuration, oriented so that the
claim holds exactly when ``residual = rhs - lhs >= 0`` (r0 is the root of
(3r + 1) 3^{1/r} = 63/4 in (1/2, 1)):

@CATALOG@

The mg-sigma pair is a candidate family whose exact validity frontier in r
is probed by the search module rather than assumed, so its only hypothesis
is x_1 > 0.  A ``force`` flag evaluates any tag outside its stated
parameter hypotheses (the counterexample hunter relies on this); the
structural requirements of the formulas themselves are never bypassed.

Each tag is one entry of a catalog table: how its parameters resolve, its
claim and stated hypotheses (the table above is rendered from them), and
its (lhs, rhs) formula, written once over a formula record.  The records
come from :mod:`meanineq.means`: :func:`check` evaluates the formula on
the floats of one configuration (its record ``config._means``);
:func:`relative_residuals` evaluates it on the arrays of a
:class:`ConfigurationBatch` (``_RowMeans``), with the same result row by
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from ._tables import with_table
from .errors import DegenerateInput, DomainError, _real, _show
from .means import (
    DEFAULT_ABS_FLOOR,
    DEFAULT_REL_TOL,
    Configuration,
    ConfigurationBatch,
    _RowMeans,
    order_triple,
)
from .thresholds import r0_value

_HYPOTHESIS_SLACK = 1e-12


class InequalityId(str, Enum):
    """One tag per named inequality; values double as the CLI names."""

    DIANANDA_UPPER = "diananda-upper"
    DIANANDA_LOWER = "diananda-lower"
    DIANANDA_BASE_UPPER = "diananda-base-upper"
    DIANANDA_BASE_LOWER = "diananda-base-lower"
    MIX_VARIANCE_UPPER = "mix-variance-upper"
    MIX_VARIANCE_LOWER = "mix-variance-lower"
    CARTWRIGHT_FIELD_LOWER = "cartwright-field-lower"
    CARTWRIGHT_FIELD_UPPER = "cartwright-field-upper"
    MG_SIGMA_LOWER = "mg-sigma-lower"
    MG_SIGMA_UPPER = "mg-sigma-upper"
    HALF_MEAN_LOWER = "half-mean-lower"
    HALF_MEAN_UPPER = "half-mean-upper"
    HALF_MEAN_VAR_UPPER = "half-mean-var-upper"
    HALF_MEAN_VAR_LOWER = "half-mean-var-lower"


class CheckStatus(str, Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    EQUALITY = "Equality"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True, init=False)
class CheckReport:
    """One inequality evaluation, oriented so residual >= 0 means it holds."""

    id: InequalityId
    params: dict
    lhs: float
    rhs: float
    residual: float
    residual_rel: float
    status: CheckStatus
    q_used: float

    def __init__(self, id, params, lhs, rhs, residual, residual_rel, status, q_used) -> None:
        # one dict update: the generated frozen __init__ pays object.__setattr__ per field
        vars(self).update(id=id, params=params, lhs=lhs, rhs=rhs, residual=residual,
                          residual_rel=residual_rel, status=status, q_used=q_used)

    def to_json_dict(self) -> dict:
        def _num(v: float):
            return None if (v != v or math.isinf(v)) else v

        return {
            "id": self.id.value,
            "params": self.params,
            "lhs": _num(self.lhs),
            "rhs": _num(self.rhs),
            "residual": _num(self.residual),
            "residual_rel": _num(self.residual_rel),
            "status": self.status.value,
            "q": self.q_used,
        }


# ---------------------------------------------------------------------------
# The catalog: one entry per tag.


def _triple_params(tag, triple, alpha, r, s) -> dict:
    try:
        a, b, c = triple
    except (TypeError, ValueError):
        raise DomainError(
            f"{tag.value} needs a triple of three orders (got {_show(triple)})") from None
    r, s, t = order_triple(a, b, c)
    alpha = 1.0 if alpha is None else _real(alpha, "alpha")
    # not a hypothesis: C((1-q)^alpha) and C(q^alpha) need an argument in (0, 1)
    if not alpha > 0.0:
        raise DomainError("the exponent alpha must be positive")
    return {"triple": [r, s, t], "alpha": alpha}


def _no_params(tag, triple, alpha, r, s) -> dict:
    return {}


def _order_params(tag, triple, alpha, r, s) -> dict:
    r = _real(r, "r")
    if r == 0.0:
        raise DomainError("the mean order r must be nonzero")
    return {"r": r}


def _pair_params(tag, triple, alpha, r, s) -> dict:
    r = _real(r, "r")
    s = _real(s, "s")
    if not r > s:
        raise DomainError("the mean-difference bounds need r > s")
    return {"r": r, "s": s}


# The parameters each resolver reads, all required but alpha; a tag refuses any other.
_TAKES = {_triple_params: ("triple", "alpha"), _no_params: (), _order_params: ("r",),
          _pair_params: ("r", "s")}


def _diananda(upper: bool, m, p):
    (r, s, t), alpha = p["triple"], p["alpha"]
    d = m.delta(r, s, t, alpha)
    if upper:
        return d, m.bound(r, s, t, m.pow(1.0 - m.q, alpha))
    return m.bound(r, s, t, m.pow(m.q, alpha)), d


def _base(upper: bool, m, p):
    q = m.q
    a = m.mean(1.0)
    g = m.mean(0.0)
    half = m.mean(0.5)
    if upper:
        return half, (1.0 - q) * a + q * g
    return q * a + (1.0 - q) * g, half


def _mix_variance(upper: bool, m, p):
    r = p["r"]
    if math.isinf(inv_r := 1.0 / r):  # the order of M_{1/r}; a subnormal r overflows it
        raise DomainError(f"1/r must be a finite real number, got {inv_r}")
    w = m.pow(m.q, r - 1.0) if upper else m.pow(1.0 - m.q, r - 1.0)
    a = m.mean(1.0)
    g = m.mean(0.0)
    mm = m.mean(inv_r)
    combo = mm - w * a - (1.0 - w) * g
    corr = m.div((inv_r - w) * m.sigma(), 2.0 * m.x1())
    return (combo, corr) if upper else (corr, combo)


def _cartwright_field(upper: bool, m, p):
    r, s = p["r"], p["s"]
    diff = m.mean(r) - m.mean(s)
    sigma = m.sigma()
    if upper:
        return diff, m.div((r - s) * sigma, 2.0 * m.x1())
    return m.div((r - s) * sigma, 2.0 * m.xn()), diff


def _mg_sigma(upper: bool, m, p):
    """The Cartwright-Field sides at s = 0, where M_s = G; r - 0 is r, so the bits are the same."""
    return _cartwright_field(upper, m, {"r": p["r"], "s": 0.0})


def _half_mean(upper: bool, m, p):
    r = p["r"]
    w = m.pow(1.0 - m.q, 2.0 - 1.0 / r) if upper else m.pow(m.q, 2.0 - 1.0 / r)
    half = m.mean(0.5)
    combo = w * m.mean(r) + (1.0 - w) * m.mean(0.0)
    return (half, combo) if upper else (combo, half)


def _half_mean_var(upper: bool, m, p):
    r = p["r"]
    w = m.pow(m.q, 2.0 - 1.0 / r) if upper else m.pow(1.0 - m.q, 2.0 - 1.0 / r)
    half = m.mean(0.5)
    combo = half - w * m.mean(r) - (1.0 - w) * m.mean(0.0)
    corr = m.div((0.5 - r * w) * m.sigma(), 2.0 * m.x1())
    return (combo, corr) if upper else (corr, combo)


def _two_point(min_on_zero: bool, config: Configuration, r, tol: float) -> bool:
    """n = 2, x_1 = 0, and the minimum weight on the zero sample or on the positive one."""
    if config.n != 2 or config.x[0] != 0.0:
        return False
    w_zero, w_pos = config.q_weights.tolist()
    return w_zero <= w_pos + tol if min_on_zero else w_pos <= w_zero + tol


def _half_mean_var_point(config: Configuration, r, tol: float) -> bool:
    """r = 1, n = 2 and q = 1/2."""
    return (r is not None and abs(r - 1.0) <= tol and config.n == 2
            and abs(config.min_weight - 0.5) <= tol)


@dataclass(frozen=True)
class _Tag:
    """A catalog entry: parameters, claim, stated hypotheses, and the two sides.

    ``resolve`` reads triple, alpha, r and s, in that order, against
    ``_TAKES[params]`` and refuses the first that is taken but missing
    (alpha may be left out) or given but not taken, even under ``force``;
    ``params`` then resolves and checks the values.  ``claim`` is the
    inequality as documented, ``stated`` its stated parameter range and
    ``in_range`` the test of that range, skipped under ``force`` like
    ``positive_min`` (x_1 > 0).  ``sides`` maps a means record and the
    resolved parameters to (lhs, rhs).  ``witness(config, r, tol)`` tests
    the tag's documented equality case besides constant samples, if any.
    """

    params: Callable[..., dict]
    sides: Callable
    claim: str
    stated: str = ""
    in_range: Callable[[dict], bool] | None = None
    positive_min: bool = False
    witness: Callable[[Configuration, object, float], bool] | None = None

    @property
    def hypotheses(self) -> str:
        """The stated hypotheses as documented: the range, then x_1 > 0."""
        x1 = "x_1 > 0" if self.positive_min else ""
        return ", ".join(h for h in (self.stated, x1) if h) or "none"

    def resolve(self, id, triple, alpha, r, s, force: bool) -> dict:
        takes = _TAKES[self.params]
        for name, value in (("triple", triple), ("alpha", alpha), ("r", r), ("s", s)):
            if value is None:
                if name in takes and name != "alpha":
                    raise DomainError(f"{id.value} requires parameter {name!r}")
            elif name not in takes:
                raise DomainError(f"{id.value} takes no parameter {name!r}")
        params = self.params(id, triple, alpha, r, s)
        if not force and self.in_range is not None and not self.in_range(params):
            raise DomainError(f"{id.value} is stated for {self.stated}")
        return params


_TRIPLE = "distinct r > s > t >= 0, alpha > 0"
_I = InequalityId
_CATALOG: dict[InequalityId, _Tag] = {
    _I.DIANANDA_UPPER: _Tag(
        _triple_params, partial(_diananda, True),
        "delta(r,s,t,alpha) <= C_{r,s,t}((1-q)^alpha)", _TRIPLE,
        witness=partial(_two_point, True)),
    _I.DIANANDA_LOWER: _Tag(
        _triple_params, partial(_diananda, False),
        "C_{r,s,t}(q^alpha) <= delta(r,s,t,alpha)", _TRIPLE,
        witness=partial(_two_point, False)),
    _I.DIANANDA_BASE_UPPER: _Tag(_no_params, partial(_base, True), "M_{1/2} <= (1-q) A + q G",
                                 witness=partial(_two_point, True)),
    _I.DIANANDA_BASE_LOWER: _Tag(_no_params, partial(_base, False), "q A + (1-q) G <= M_{1/2}",
                                 witness=partial(_two_point, False)),
    _I.MIX_VARIANCE_UPPER: _Tag(
        _order_params, partial(_mix_variance, True),
        "M_{1/r} - q^{r-1} A - (1-q^{r-1}) G <= (1/r - q^{r-1}) sigma / (2 x_1)",
        "r >= 2", lambda p: p["r"] >= 2.0, positive_min=True),
    _I.MIX_VARIANCE_LOWER: _Tag(
        _order_params, partial(_mix_variance, False),
        "(1/r - (1-q)^{r-1}) sigma / (2 x_1) <= M_{1/r} - (1-q)^{r-1} A - (1-(1-q)^{r-1}) G",
        "1 < r <= 2", lambda p: 1.0 < p["r"] <= 2.0, positive_min=True),
    _I.CARTWRIGHT_FIELD_LOWER: _Tag(
        _pair_params, partial(_cartwright_field, False),
        "(r-s) sigma / (2 x_n) <= M_r - M_s", "r > s", positive_min=True),
    _I.CARTWRIGHT_FIELD_UPPER: _Tag(
        _pair_params, partial(_cartwright_field, True), "M_r - M_s <= (r-s) sigma / (2 x_1)",
        "r > s", positive_min=True),
    _I.MG_SIGMA_LOWER: _Tag(
        _order_params, partial(_mg_sigma, False), "r sigma / (2 x_n) <= M_r - G",
        positive_min=True),
    _I.MG_SIGMA_UPPER: _Tag(
        _order_params, partial(_mg_sigma, True), "M_r - G <= r sigma / (2 x_1)",
        positive_min=True),
    _I.HALF_MEAN_LOWER: _Tag(
        _order_params, partial(_half_mean, False),
        "q^{2-1/r} M_r + (1-q^{2-1/r}) G <= M_{1/2}", "1/2 < r <= 1",
        lambda p: 0.5 < p["r"] <= 1.0),
    _I.HALF_MEAN_UPPER: _Tag(
        _order_params, partial(_half_mean, True),
        "M_{1/2} <= (1-q)^{2-1/r} M_r + (1-(1-q)^{2-1/r}) G", "r >= 1",
        lambda p: p["r"] >= 1.0),
    _I.HALF_MEAN_VAR_UPPER: _Tag(
        _order_params, partial(_half_mean_var, True),
        "M_{1/2} - q^{2-1/r} M_r - (1-q^{2-1/r}) G <= (1/2 - r q^{2-1/r}) sigma / (2 x_1)",
        "r0 <= r <= 1",
        lambda p: r0_value() - _HYPOTHESIS_SLACK <= p["r"] <= 1.0 + _HYPOTHESIS_SLACK,
        positive_min=True, witness=_half_mean_var_point),
    _I.HALF_MEAN_VAR_LOWER: _Tag(
        _order_params, partial(_half_mean_var, False),
        "(1/2 - r (1-q)^{2-1/r}) sigma / (2 x_1)"
        " <= M_{1/2} - (1-q)^{2-1/r} M_r - (1-(1-q)^{2-1/r}) G",
        "1 <= r <= 2",
        lambda p: 1.0 - _HYPOTHESIS_SLACK <= p["r"] <= 2.0 + _HYPOTHESIS_SLACK,
        positive_min=True),
}

# Each tag under its enum member and its name: a dict hit costs less than an enum call.
_ENTRIES = {key: (id, tag) for id, tag in _CATALOG.items() for key in (id, id.value)}


def _entry(id) -> tuple[InequalityId, _Tag]:
    """The tag ``id`` names, as a member or a name, and its catalog entry."""
    try:
        return _ENTRIES[id]
    except (KeyError, TypeError):
        return _ENTRIES[InequalityId(id)]  # the enum call raises ValueError for an unknown tag


_HEADER = ("tag", "claim (q = min weight, A = M_1, G = M_0)", "stated hypotheses")
__doc__ = with_table(__doc__, [_HEADER] + [
    (id.value, tag.claim, tag.hypotheses) for id, tag in _CATALOG.items()
], (56, 24))


def resolve_params(
    id: InequalityId, *, triple=None, alpha=None, r=None, s=None, force: bool = False
) -> dict:
    """The tag's parameters, normalized as reports echo them.

    Raises :class:`DomainError` when a parameter is missing, given but not
    taken by the tag, or one the formula cannot take, and, unless
    ``force``, when the parameters lie outside the tag's stated
    hypotheses.  No configuration is needed: a search calls this once
    before it evaluates anything.
    """
    id, tag = _entry(id)
    return tag.resolve(id, triple, alpha, r, s, force)


def relative_residuals(id: InequalityId, batch: ConfigurationBatch, params: dict) -> np.ndarray:
    """``check(id, row, force=True).residual_rel`` of every row of a batch.

    ``params`` comes from :func:`resolve_params`.  Rows on which ``check``
    would raise :class:`DomainError` (a bound argument outside (0, 1)) or
    report Degenerate (a 0/0 ratio, a NaN residual) score +inf.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN row
        lhs, rhs = _entry(id)[1].sides(_RowMeans(batch), params)
        residual = rhs - lhs
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        rel = np.where(np.isinf(residual), residual, residual / scale)
    rel[np.isnan(residual)] = np.inf
    return rel


def check(
    id: InequalityId,
    config: Configuration,
    *,
    triple=None,
    alpha=None,
    r=None,
    s=None,
    force: bool = False,
    rel_tol: float | None = None,
    abs_floor: float | None = None,
) -> CheckReport:
    """Evaluate one inequality tag on one configuration.

    The residual is rhs - lhs with the sides oriented so that a
    nonnegative residual means the claim holds; residual_rel divides by
    max(|lhs|, |rhs|, 1), so a verdict can depend on the unit of x
    (ROADMAP direction 13).  With ``force`` the stated parameter-range
    hypotheses are skipped and the raw residual is reported, which is how
    regimes beyond the proven frontier are probed.
    """
    rel_tol = DEFAULT_REL_TOL if rel_tol is None else _real(rel_tol, "rel_tol")
    abs_floor = DEFAULT_ABS_FLOOR if abs_floor is None else _real(abs_floor, "abs_floor")
    if not (rel_tol >= 0.0 and abs_floor >= 0.0):
        raise DomainError(f"rel_tol and abs_floor must be finite and >= 0 "
                          f"(got {rel_tol}, {abs_floor})")
    id, tag = _entry(id)
    q = config.min_weight
    params = tag.resolve(id, triple, alpha, r, s, force)
    if tag.positive_min and not force and config.x[0] <= 0.0:
        raise DomainError(f"{id.value} is stated for x_1 > 0")
    try:
        lhs, rhs = tag.sides(config._means, params)
    except DegenerateInput:
        lhs = rhs = math.nan
    residual = rhs - lhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    finite = math.isfinite(residual)  # an infinite side makes the scale infinite
    residual_rel = residual / scale if finite else residual
    if math.isnan(residual):
        status = CheckStatus.DEGENERATE
    elif finite and abs(residual) <= max(rel_tol * scale, abs_floor):
        status = CheckStatus.EQUALITY
    else:
        status = CheckStatus.VIOLATED if residual < 0.0 else CheckStatus.HOLDS
    return CheckReport(id, params, lhs, rhs, residual, residual_rel, status, q)


def equality_witness(id: InequalityId, config: Configuration, *, r=None,
                     tol: float = 1e-12) -> bool:
    """Whether the configuration matches a documented equality case of the tag:
    constant samples, or the case its catalog entry holds (``_Tag.witness``).
    A tag whose ``_TAKES`` entry has no r refuses ``r``, as in :func:`check`,
    and a negative ``tol`` is refused."""
    id, tag = _entry(id)
    if r is not None and "r" not in _TAKES[tag.params]:
        raise DomainError(f"{id.value} takes no parameter 'r'")
    r = None if r is None else _real(r, "r")
    tol = _real(tol, "tol")
    if tol < 0.0:
        raise DomainError(f"tol must be finite and >= 0 (got {tol})")
    return config.is_constant or (tag.witness is not None and tag.witness(config, r, tol))
