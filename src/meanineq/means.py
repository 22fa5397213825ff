"""Weighted power means and the derived comparison functionals.

The central objects are a sample/weight configuration ``(x, q)`` with
``x_i >= 0``, ``q_i > 0`` and ``sum q_i = 1``, the weighted power mean

    M_r(x; q) = (sum_i q_i x_i^r)^(1/r),        M_0 = prod_i x_i^{q_i},

the weighted variance ``sigma = sum_i q_i (x_i - A)^2`` about the
arithmetic mean ``A = M_1``, the three-mean difference ratio

    delta(r, s, t, alpha) = | (M_r^alpha - M_t^alpha) / (M_r^alpha - M_s^alpha) |,

(with ``ln M`` replacing ``M^alpha`` when ``alpha = 0``), and the sharp
comparison constant ``C_{r,s,t}(x)`` that bounds the ratio in terms of the
minimum weight alone.

A :class:`Configuration` validates its input once: x and q are read as
arrays of real numbers, one-dimensional, of equal length and at least two
entries; then, on Python floats (exact, and cheaper than numpy calls on a
few entries), the entries must be finite, samples >= 0, weights > 0 with a
``math.fsum`` within 1e-12 of 1, and a stable sort, whose gather makes
each array's one new copy, orders them by sample.

All operations are pure functions of immutable inputs and are safe for
unrestricted concurrent use.  Power sums are shifted by their largest
exponent and summed with compensated summation, so that exponents up to a
few hundred in magnitude neither overflow nor lose the leading digits.
For |r| < 0.05 the sum is 1 + sum_i q_i expm1(d_i) / sum_i q_i, taken by
log1p (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021), so that
ln M_r = ln(sum) / r stays accurate as r -> 0.  At larger |r| the plain
exp form is kept because it is the accurate one there: the expm1 form
cancels when one sample carries almost all the weight and the others sit
far below the largest.  At r = 40, x = (1, 2), q = (1 - 1e-10, 1e-10),
against mpmath at 60 digits, ln M_r has relative error 2.7e-17 by the
plain form and 1.7e-8 by the expm1 form.

Below |r| = 2^-969, where r ln x may leave the normal range (|ln x| >=
2^-53 for x != 1), ln M_r is taken as ln G, within |r| (ln x_n - ln x_1)^2
/ 8 < 6e-287.  A zero sample at r > 0 keeps the power sum: there ln G is
-inf, while ln M_r is about ln(1 - w) / r for the zeros' weight w,
finite down to r near w / 2^1024, and the rounding of r ln x_i reaches
only its last digits.

Configurations and batches hold data; formula records compute and keep.
A configuration's record, ``config._means``, is the ``_Means`` built
with it over its two read-only arrays (not over the configuration,
which would make a reference cycle); ``_RowMeans(batch)`` is a batch's.
Each computes what it keeps when it is built: ``_Means`` the minimum
weight, ln x, sigma and ln M_r at the fixed orders 0, 1/2 and 1 (G,
M_{1/2}, A), ``_RowMeans`` ln x.  A record is then never written again,
so it can be shared freely.  Both trust their arguments, plain floats
that a public entry has read, and give ``q``, ``log_mean``, ``mean``,
``sigma``, ``x1``, ``xn``, ``delta(r, s, t, alpha)``, ``bound``, ``pow``
and ``div``: ``_Means`` as floats, raising where a step fails, and
``_RowMeans`` as (B,) arrays, NaN in a row that would raise.  A mean, a
weight power or sigma past the float range is +inf, where ``math.exp``
and ``**`` would raise and numpy would warn; a catalog side that is then
NaN is reported Degenerate by ``check`` and scores +inf in a batch.

A :class:`ConfigurationBatch` holds B configurations as ``(B, width)``
arrays, row i holding its n_i samples first and padding after them, and
row i of each ``_RowMeans`` value has the bits of ``_Means`` on the i-th
configuration.  Each elementwise step runs once for all rows with the
scalar's ufuncs.  Row maxima and minima see the padding as -inf or +inf;
up to 7 columns they, and the softmax sum over its zero padding, fold
down the columns in numpy's own order.  Row dots (matmul's BLAS dot, as
``np.dot``) and power sums run per run of equal-size rows cut to its
size: numpy's pairwise sum regroups from 8 terms, the BLAS dot from 16.
A run's rows take the scalar tail (``math.fsum``, ``math.log`` or
``math.log1p``) in one ``map``; ``math.exp``, the weight power, the
bound's constant and delta's ratio go row by row, so each is written
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError, DegenerateInput, DomainError, _real, _reals, _show

# Default tolerances for equality/validity judgments; callers may override
# per call.  Relative tolerance applies to max(|lhs|, |rhs|, 1).
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_FLOOR = 1e-12

# The expm1/log1p band of the power sums (see the module docstring); above
# it the plain form's rounding, about 1e-16 / |r| relative, is below 3e-15.
_EXPM1_BAND = 0.05

_WEIGHT_SUM_TOL = 1e-12

_FIXED_ORDERS = (0.0, 0.5, 1.0)

_TINY_ORDER = 2.0**-969  # below this |r|, ln M_r is taken as ln G (module docstring)


@dataclass(frozen=True, eq=False)
class Configuration:
    """A sorted vector of nonnegative samples with positive weights summing to 1.

    Samples are sorted ascending on construction (weights are permuted
    along with them); ties are allowed and recorded via :attr:`is_strict`.
    Arrays are made read-only so instances are immutable.  ``min_weight``
    is the minimum weight, the single quantity the sharp constants depend on.
    """

    x: np.ndarray
    q_weights: np.ndarray

    def __post_init__(self) -> None:
        x = _reals(self.x, "samples")
        q = _reals(self.q_weights, "weights")
        if x.ndim != 1 or q.ndim != 1:
            raise ConfigError("samples and weights must be one-dimensional")
        if x.shape != q.shape:
            raise ConfigError(f"length mismatch: {x.size} samples vs {q.size} weights")
        if x.size < 2:
            raise ConfigError("a configuration needs at least two samples")
        xs, qs = x.tolist(), q.tolist()
        if not all(map(math.isfinite, xs + qs)):
            raise ConfigError("samples and weights must be finite")
        if min(xs) < 0.0:
            raise ConfigError("samples must be nonnegative")
        if min(qs) <= 0.0:
            raise ConfigError("weights must be strictly positive")
        total = math.fsum(qs)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1 (got {total!r})")
        order = sorted(range(len(xs)), key=xs.__getitem__)  # stable, ties keep their order
        x, q = x[order], q[order]
        x.setflags(write=False)
        q.setflags(write=False)
        vars(self).update(x=x, q_weights=q)
        means = _Means(self)
        vars(self).update(min_weight=means.q, _means=means)

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def is_strict(self) -> bool:
        """Whether the samples are strictly increasing (no ties)."""
        return bool(np.all(np.diff(self.x) > 0))

    @property
    def is_constant(self) -> bool:
        return bool(self.x[0] == self.x[-1])

    def scaled(self, c: float) -> "Configuration":
        """The configuration with every sample multiplied by ``c > 0``."""
        c = _real(c, "scale factor")
        if not c > 0:
            raise ConfigError("scale factor must be positive")
        # a product past the float range is refused as not finite
        with np.errstate(over="ignore"):
            return Configuration(c * self.x, self.q_weights)

    def __reduce__(self):
        # pickle and copy rebuild through validation: arrays that come back
        # writable, or a record copied along, could let a kept value go stale
        return (type(self), (self.x, self.q_weights))

    def to_json_dict(self) -> dict:
        return {"x": self.x.tolist(), "q": self.q_weights.tolist()}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Configuration":
        try:
            return cls(payload["x"], payload["q"])
        except KeyError as exc:
            raise ConfigError(f"configuration JSON needs key {exc}") from exc

    def __repr__(self) -> str:
        return f"Configuration(x={self.x.tolist()}, q={self.q_weights.tolist()})"


@dataclass(frozen=True)
class DeltaParams:
    """Parameters (r, s, t, alpha) of the three-mean ratio, kept as floats; r, s, t distinct."""

    r: float
    s: float
    t: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        r, s, t, alpha = (_real(getattr(self, name), name) for name in ("r", "s", "t", "alpha"))
        if r == s or r == t or s == t:
            raise DomainError("the orders r, s, t must be mutually distinct")
        vars(self).update(r=r, s=s, t=t, alpha=alpha)

    def ordered(self) -> "DeltaParams":
        """The same parameters with the orders rearranged descending."""
        r, s, t = sorted((self.r, self.s, self.t), reverse=True)
        return DeltaParams(r, s, t, self.alpha)


@dataclass(frozen=True)
class MeanValue:
    """A mean together with the convention used to report it.

    ``plain`` carries the mean itself; ``log`` carries its natural log,
    the convention used by the ratio functional at ``alpha = 0``.
    """

    value: float
    convention: str = "plain"

    def __post_init__(self) -> None:
        if self.convention not in ("plain", "log"):
            raise DomainError(f"unknown convention {_show(self.convention)}")
        vars(self)["value"] = _real(self.value, "value")


def log_power_mean(config: Configuration, r: float) -> float:
    """ln M_r(x; q); -inf when the mean is 0 (zero samples at r <= 0)."""
    return config._means.log_mean(_real(r, "r"))


def _log_power_mean(q: np.ndarray, logx: np.ndarray, r: float) -> float:
    """:func:`log_power_mean` computed afresh from q and ln x, for a finite order r;
    ln G below |r| = ``_TINY_ORDER`` but for a zero sample at r > 0 (module docstring)."""
    if abs(r) < _TINY_ORDER and (r <= 0.0 or logx[0] > -math.inf):
        return float(np.dot(q, logx))
    a = r * logx
    m = max(a.tolist())
    if math.isinf(m):
        return m / r
    return (m + _power_sum_log(_power_sum_terms(a - m, q, r).tolist(), q, r)) / r


def _power_sum_terms(d: np.ndarray, q: np.ndarray, r: float) -> np.ndarray:
    """q e^d for d = r ln x - max, whole-array; q (e^d - 1) when |r| < _EXPM1_BAND."""
    return q * (np.expm1(d) if abs(r) < _EXPM1_BAND else np.exp(d))


def _power_sum_log(terms: list[float], q, r: float) -> float:
    """ln sum_j q_j e^{d_j} from one row's floats ``terms``; q is read only in the expm1 band."""
    if abs(r) < _EXPM1_BAND:
        return math.log1p(math.fsum(terms) / math.fsum(q))
    return math.log(math.fsum(terms))


def power_mean(config: Configuration, r: float) -> float:
    """The weighted power mean M_r(x; q).

    For r = 0 this is the weighted geometric mean.  Zero samples give 0
    for r <= 0 and simply drop out of the power sum for r > 0.
    """
    return config._means.mean(_real(r, "r"))


def mean_value(config: Configuration, r: float, convention: str = "plain") -> MeanValue:
    """The mean under the requested reporting convention."""
    lv = config._means.log_mean(_real(r, "r"))
    if convention == "log" and not math.isfinite(lv):
        raise DomainError("log convention undefined for a zero mean")
    return MeanValue(_exp(lv) if convention == "plain" else lv, convention)


def variance_sigma(config: Configuration) -> float:
    """The weighted variance sum_i q_i (x_i - A)^2; zero iff all samples tie."""
    return config._means.sigma()


def delta(config: Configuration, params: DeltaParams) -> float:
    """The absolute three-mean difference ratio.

    Computed as |expm1(alpha (ln M_t - ln M_r))| / |expm1(alpha (ln M_s - ln M_r))|
    so that the scale of x cancels exactly and neither M^alpha overflows
    nor the near-equal-mean differences lose precision.  Where an expm1
    overflows, the quotient is taken in log form; it is inf only past the
    float range.  At alpha = 0 the differences of ln M are used directly.
    When M_r = 0 (zero samples, order <= 0) the ratio is its limit: 1 for
    alpha <= 0, where the vanishing mean dominates both differences, and
    (M_t / M_s)^alpha for alpha > 0.  When M_s = M_t = 0 < M_r and
    alpha <= 0, both differences are infinite: :class:`DegenerateInput`.
    """
    return config._means.delta(params.r, params.s, params.t, params.alpha)


def _delta_of_logs(lr: float, ls: float, lt: float, alpha: float) -> float:
    """:func:`delta` from the log-means ln M_r, ln M_s and ln M_t."""
    if lr == -math.inf:
        if alpha <= 0.0:
            return 1.0
        if ls == -math.inf:
            if lt == -math.inf:
                raise DegenerateInput("ratio undefined: both means in a difference are zero")
            raise DegenerateInput("ratio denominator vanished")
        return _exp(alpha * (lt - ls))
    if ls == lt == -math.inf and alpha <= 0.0:
        raise DegenerateInput("ratio undefined: M_s and M_t are both zero")
    if alpha == 0.0:
        num, den = lr - lt, lr - ls
    else:
        num, den = alpha * (lt - lr), alpha * (ls - lr)
    if den == 0.0:  # expm1(den) == 0 exactly when den == 0
        raise DegenerateInput("ratio denominator vanished")
    try:
        return abs(num / den if alpha == 0.0 else math.expm1(num) / math.expm1(den))
    except OverflowError:  # an expm1 overflowed: take the quotient in log form
        return _exp(_log_abs_expm1(num) - _log_abs_expm1(den))


def _log_abs_expm1(x: float) -> float:
    """ln |e^x - 1|, also where e^x overflows; -inf at x = 0."""
    if x > 1.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(abs(math.expm1(x))) if x else -math.inf


def _exp(x: float) -> float:
    """e^x; inf past the float range, where ``math.exp`` raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def c_constant(r: float, s: float, t: float, xarg: float) -> float:
    """The sharp comparison constant C_{r,s,t}(xarg) for r > s > t >= 0.

        C_{r,s,t}(x) = (1 - x^{1/t - 1/r}) / (1 - x^{1/s - 1/r}),  t > 0,
        C_{r,s,0}(x) = 1 / (1 - x^{1/s - 1/r}),

    defined for 0 < xarg < 1, where it exceeds 1.  Raises
    :class:`DegenerateInput` when ``xarg ** (1/s - 1/r)`` rounds to 1.
    """
    r, s, t, xarg = _real(r, "r"), _real(s, "s"), _real(t, "t"), _real(xarg, "xarg")
    if not (r > s > t >= 0):
        raise DomainError(f"orders must satisfy r > s > t >= 0 (got {(r, s, t)})")
    return _c_constant(r, s, t, xarg)


def _c_constant(r: float, s: float, t: float, xarg: float) -> float:
    """:func:`c_constant` of floats already read at orders r > s > t >= 0; checks ``xarg``."""
    if not 0.0 < xarg < 1.0:
        raise DomainError(f"argument must lie strictly between 0 and 1 (got {xarg})")
    den = 1.0 - xarg ** (1.0 / s - 1.0 / r)
    if den == 0.0:
        raise DegenerateInput("the constant's denominator vanished: x^(1/s - 1/r) rounds to 1")
    if t == 0.0:
        return 1.0 / den
    return (1.0 - xarg ** (1.0 / t - 1.0 / r)) / den


class ConfigurationBatch:
    """B configurations as ``(B, width)`` arrays, row i holding ``sizes[i]`` samples.

    Each row is sorted ascending on construction, weights permuted along,
    exactly as :class:`Configuration` sorts.  Entries past a row's size
    are padding, left as given; ``sizes`` defaults to the full width.
    Rows are not validated: the constructors' callers supply valid
    configurations.
    """

    def __init__(self, x, q_weights, sizes=None) -> None:
        x = np.asarray(x, dtype=float)
        self._set_sizes(sizes, x.shape)
        self._sort(x, np.asarray(q_weights, dtype=float))

    @classmethod
    def from_log_coordinates(cls, logx: np.ndarray, logits: np.ndarray,
                             sizes=None) -> "ConfigurationBatch":
        """Samples ``exp(logx)`` with weights ``softmax(logits)``, row by row."""
        batch = cls.__new__(cls)
        batch._set_sizes(sizes, logits.shape)
        logits = batch._fill(logits, -np.inf)
        w = np.exp(logits - _row_reduce(np.maximum, logits)[:, None])
        # a fold adds the padding's exact zeros after each row's own sum
        total = _row_reduce(np.add, w, wide=lambda w: batch._per_size(lambda w: w.sum(axis=1), w))
        batch._sort(np.exp(logx), w / total[:, None])
        return batch

    def _set_sizes(self, sizes, shape) -> None:
        rows, width = shape
        self.sizes = np.full(rows, width) if sizes is None else np.asarray(sizes, dtype=int)
        self._runs = _size_runs(self.sizes)
        self._padding = self.sizes[:, None] <= np.arange(width)

    def _sort(self, x: np.ndarray, q: np.ndarray) -> None:
        order = np.argsort(self._fill(x, np.inf), axis=1, kind="stable")
        rows = np.arange(len(x))[:, None]
        self.x = x[rows, order]
        self.q_weights = q[rows, order]

    def _fill(self, a: np.ndarray, value: float) -> np.ndarray:
        """``a`` with the padding set to ``value``; a row's max or min then ignores it."""
        return np.where(self._padding, value, a)

    def _per_size(self, fn, *arrays) -> np.ndarray:
        """``fn`` on each run of equal-size rows cut to their size, as one (B,) array."""
        out = np.empty(len(self.sizes))
        for rows, n in self._runs:
            out[rows] = fn(*(a[rows, :n] for a in arrays))
        return out

    def row(self, i: int) -> Configuration:
        n = self.sizes[i]
        return Configuration(self.x[i, :n], self.q_weights[i, :n])


def _size_runs(sizes: np.ndarray) -> list[tuple[slice, int]]:
    """Each run of consecutive rows of one size, as (rows, size)."""
    starts = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist(), len(sizes)]
    return [(slice(a, b), int(sizes[a])) for a, b in zip(starts, starts[1:]) if a < b]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[i])`` for every row i, through the same BLAS dot."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# numpy reduces a row of up to 7 entries in order, as a fold down the columns does; from
# 8 its pairwise sum regroups them, and from 9 its max or min may keep either zero of +-0.0.
_FOLD_WIDTH = 7


def _row_reduce(ufunc, a: np.ndarray, wide=None) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` bit for bit, for ``np.add``, ``np.maximum`` or ``np.minimum``;
    a fold down the columns of the contiguous transpose where that is exact, about 3x faster.
    Past ``_FOLD_WIDTH`` columns it is numpy's row reduce, or ``wide(a)`` if given."""
    if a.shape[1] > _FOLD_WIDTH:
        return ufunc.reduce(a, axis=1) if wide is None else wide(a)
    return ufunc.reduce(np.ascontiguousarray(a.T), axis=0)


def _map_or_nan(fn, *columns: np.ndarray) -> np.ndarray:
    """A scalar function applied row by row; NaN where it raises DomainError or DegenerateInput."""
    out = []
    for args in zip(*(c.tolist() for c in columns)):
        try:
            out.append(fn(*args))
        except (DomainError, DegenerateInput):
            out.append(math.nan)
    return np.array(out, dtype=float)


def order_triple(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Rearrange three distinct, finite, nonnegative real orders descending as (r, s, t)."""
    orders = (_real(a, "an order"), _real(b, "an order"), _real(c, "an order"))
    r, s, t = sorted(orders, reverse=True)
    if r == s or s == t:
        raise DomainError(f"orders must be mutually distinct (got {orders})")
    if t < 0:
        raise DomainError(f"orders must be nonnegative (got {orders})")
    return r, s, t


# ---------------------------------------------------------------------------
# Formula records: what a catalog formula reads (see the module docstring).


class _Means:
    """One configuration's quantities as floats; errors raise."""

    __slots__ = ("_x", "_q_weights", "q", "_log_x", "_sigma", "_fixed_log_means", "__weakref__")

    def __init__(self, config: Configuration) -> None:
        x, q = self._x, self._q_weights = config.x, config.q_weights  # not config: no cycle
        self.q = min(q.tolist())
        # ln 0 is -inf; sigma past the float range is +inf
        with np.errstate(divide="ignore", over="ignore"):
            logx = self._log_x = np.log(x)
            logx.setflags(write=False)
            a = float(np.dot(q, x))
            self._sigma = float(np.dot(q, (x - a) ** 2))
            # ln M_r at the fixed orders 0, 1/2 and 1: G, M_{1/2} and A
            self._fixed_log_means = {r: _log_power_mean(q, logx, r) for r in _FIXED_ORDERS}

    def log_mean(self, r: float) -> float:
        if r in _FIXED_ORDERS:  # -0.0 too: it equals 0.0 and hashes alike
            return self._fixed_log_means[r]
        return _log_power_mean(self._q_weights, self._log_x, r)

    def mean(self, r: float) -> float:
        return _exp(self.log_mean(r))

    def sigma(self) -> float:
        return self._sigma

    def x1(self) -> float:
        return float(self._x[0])

    def xn(self) -> float:
        return float(self._x[-1])

    def delta(self, r: float, s: float, t: float, alpha: float) -> float:
        if self.x1() == self.xn():
            raise DegenerateInput("the ratio is 0/0 when all samples are equal")
        return _delta_of_logs(self.log_mean(r), self.log_mean(s), self.log_mean(t), alpha)

    bound = staticmethod(_c_constant)

    @staticmethod
    def pow(base: float, exponent: float) -> float:
        """``base ** exponent``; inf past the float range, where ``**`` raises."""
        try:
            return base**exponent
        except OverflowError:
            return math.inf

    @staticmethod
    def div(num: float, den: float) -> float:
        """``num / den``; 0 at 0/0 and a signed inf at x/0."""
        if den == 0.0:
            return 0.0 if num == 0.0 else math.copysign(math.inf, num)
        return num / den


class _RowMeans:
    """A batch's quantities as (B,) arrays; NaN in a row that would raise."""

    def __init__(self, batch: ConfigurationBatch) -> None:
        self._batch = batch
        # -inf at a zero sample, padding as it falls
        with np.errstate(divide="ignore", invalid="ignore"):
            self._log_x = np.log(batch.x)

    @property
    def q(self) -> np.ndarray:
        return _row_reduce(np.minimum, self._batch._fill(self._batch.q_weights, np.inf))

    def log_mean(self, r: float) -> np.ndarray:
        batch = self._batch
        q, logx = batch.q_weights, self._log_x
        tiny = abs(r) < _TINY_ORDER
        if tiny and (r <= 0.0 or not (self.x1() == 0.0).any()):
            return batch._per_size(_row_dots, q, logx)
        # Padding may overflow here; a row's own terms are at most its weights.
        with np.errstate(invalid="ignore", over="ignore"):
            a = r * logx
            m = _row_reduce(np.maximum, batch._fill(a, -np.inf))
            terms = _power_sum_terms(a - m[:, None], q, r)
        logs = np.fromiter(chain.from_iterable(
            map(_power_sum_log, terms[rows, :n].tolist(),  # weights are read only in the band
                q[rows, :n].tolist() if abs(r) < _EXPM1_BAND else repeat(None), repeat(r))
            for rows, n in batch._runs), float, len(m))
        # an infinite m_i is the row's own log-sum, whose terms are NaN; a
        # zero-sample row's may leave the float range at a tiny r, as the scalar's does
        with np.errstate(over="ignore"):
            out = np.where(np.isinf(m), m, m + logs) / r
        if tiny:  # r > 0: rows without a zero sample take ln G
            out = np.where(self.x1() == 0.0, out, batch._per_size(_row_dots, q, logx))
        return out

    def mean(self, r: float) -> np.ndarray:
        # math.exp row by row: np.exp rounds differently
        return np.fromiter(map(_exp, self.log_mean(r).tolist()), float)

    def sigma(self) -> np.ndarray:
        def sigma(q, x):  # the two dots of _Means._sigma, row by row
            return _row_dots(q, (x - _row_dots(q, x)[:, None]) ** 2)

        with np.errstate(over="ignore"):  # +inf past the float range, as the scalar's
            return self._batch._per_size(sigma, self._batch.q_weights, self._batch.x)

    def x1(self) -> np.ndarray:
        return self._batch.x[:, 0]

    def xn(self) -> np.ndarray:
        return self._batch.x[np.arange(len(self._batch.x)), self._batch.sizes - 1]

    def delta(self, r: float, s: float, t: float, alpha: float) -> np.ndarray:
        out = _map_or_nan(partial(_delta_of_logs, alpha=alpha), *map(self.log_mean, (r, s, t)))
        out[self.x1() == self.xn()] = np.nan
        return out

    def bound(self, r: float, s: float, t: float, xarg: np.ndarray) -> np.ndarray:
        return _map_or_nan(partial(_c_constant, r, s, t), xarg)

    @staticmethod
    def pow(base: np.ndarray, exponent: float) -> np.ndarray:
        """:meth:`_Means.pow` row by row (np.power rounds differently)."""
        pow = _Means.pow
        return np.array([pow(b, exponent) for b in base.tolist()], dtype=float)

    @staticmethod
    def div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """:meth:`_Means.div` row by row."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den == 0.0, np.where(num == 0.0, 0.0, np.copysign(np.inf, num)),
                            num / den)
