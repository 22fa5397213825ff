import copy
import hashlib
import itertools
import json
import math
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from meanineq import (
    ConfigError,
    Configuration,
    DegenerateInput,
    DeltaParams,
    DomainError,
    MeanValue,
    c_constant,
    delta,
    log_power_mean,
    mean_value,
    order_triple,
    power_mean,
    variance_sigma,
)
from meanineq import means
from meanineq.means import ConfigurationBatch, _RowMeans

from conftest import sample_config


def brute_power_mean(x, q, r):
    """Direct textbook formula, independent of the log-domain path."""
    x = np.asarray(x, float)
    q = np.asarray(q, float)
    if r == 0.0:
        return float(np.prod(x ** q))
    if np.any(x == 0.0) and r < 0:
        return 0.0
    mask = x > 0
    return float(np.sum(q[mask] * x[mask] ** r) ** (1.0 / r))


class TestPowerMean:
    def test_constant_samples_give_the_constant(self):
        cfg = Configuration([3.7, 3.7, 3.7], [0.2, 0.3, 0.5])
        for r in (-3.0, -0.5, 0.0, 0.5, 1.0, 4.0):
            assert power_mean(cfg, r) == pytest.approx(3.7, rel=1e-14)

    def test_half_order_closed_form(self):
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        expected = (0.5 * 1.0**0.5 + 0.5 * 4.0**0.5) ** 2
        assert power_mean(cfg, 0.5) == pytest.approx(expected, abs=1e-14)
        assert expected == 2.25

    def test_zero_sample_positive_order(self):
        cfg = Configuration([0.0, 1.0], [0.75, 0.25])
        assert power_mean(cfg, 2.0) == pytest.approx(0.25**0.5, abs=1e-15)

    def test_zero_order_is_geometric_mean(self):
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        assert power_mean(cfg, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_zero_sample_conventions(self):
        cfg = Configuration([0.0, 2.0, 5.0], [0.2, 0.3, 0.5])
        assert power_mean(cfg, 0.0) == 0.0
        assert power_mean(cfg, -1.5) == 0.0
        expected = (0.3 * 2.0**2 + 0.5 * 5.0**2) ** 0.5
        assert power_mean(cfg, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            cfg = sample_config(rng, zero_prob=0.2)
            r = rng.uniform(-5.0, 5.0)
            expected = brute_power_mean(cfg.x, cfg.q_weights, r)
            assert power_mean(cfg, r) == pytest.approx(expected, rel=1e-11, abs=1e-300)

    def test_extreme_orders_do_not_overflow(self):
        cfg = Configuration([1e-3, 1.0, 1e3], [0.3, 0.4, 0.3])
        hi = power_mean(cfg, 400.0)
        lo = power_mean(cfg, -400.0)
        assert math.isfinite(hi) and hi <= 1e3 * (1 + 1e-9)
        assert lo >= 1e-3 * (1 - 1e-9)

    def test_monotone_in_order(self, rng):
        for _ in range(2000):
            cfg = sample_config(rng, zero_prob=0.1)
            r, s = sorted(rng.uniform(-5.0, 5.0, 2))
            if r == s:
                continue
            mr, ms = power_mean(cfg, r), power_mean(cfg, s)
            assert ms - mr >= -1e-10 * max(ms, 1e-300)

    def test_homogeneity(self, rng):
        for _ in range(500):
            cfg = sample_config(rng, zero_prob=0.1)
            r = rng.uniform(-5.0, 5.0)
            c = float(np.exp(rng.uniform(-3, 3)))
            scaled = power_mean(cfg.scaled(c), r)
            assert scaled == pytest.approx(c * power_mean(cfg, r), rel=1e-12, abs=1e-300)

    def test_small_order_limit(self, rng):
        for _ in range(200):
            cfg = sample_config(rng)
            g = power_mean(cfg, 0.0)
            for r in (1e-6, -1e-6):
                assert power_mean(cfg, r) == pytest.approx(g, rel=1e-5)

    def test_mean_past_the_float_range(self):
        # weights summing to 1 + 5e-13 put M_1 past the float range, where
        # these raised a bare OverflowError ("math range error")
        cfg = Configuration([1.7976931348623157e308] * 2, [0.5, 0.5 + 5e-13])
        assert power_mean(cfg, 1.0) == math.inf
        with pytest.raises(DomainError, match="^value must be a finite real number, got inf$"):
            mean_value(cfg, 1.0)
        assert mean_value(cfg, 1.0, "log").value == log_power_mean(cfg, 1.0) > math.log(2**1024)
        rows = _RowMeans(ConfigurationBatch(np.array([cfg.x, [1.0, 3.0]]),
                                            np.array([cfg.q_weights, [0.25, 0.75]])))
        assert rows.mean(1.0).tolist() == [
            math.inf, power_mean(Configuration([1.0, 3.0], [0.25, 0.75]), 1.0)]

    def test_infinite_order_rejected(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            power_mean(cfg, math.inf)


class TestVariance:
    def test_zero_iff_constant(self):
        assert variance_sigma(Configuration([2.0, 2.0], [0.5, 0.5])) == 0.0

    def test_two_point_value(self):
        assert variance_sigma(Configuration([1.0, 4.0], [0.5, 0.5])) == pytest.approx(2.25)

    def test_quadratic_scaling(self):
        assert variance_sigma(Configuration([2.0, 8.0], [0.5, 0.5])) == pytest.approx(9.0)

    def test_scaling_property(self, rng):
        for _ in range(200):
            cfg = sample_config(rng, zero_prob=0.2)
            c = float(np.exp(rng.uniform(-2, 2)))
            assert variance_sigma(cfg.scaled(c)) == pytest.approx(
                c * c * variance_sigma(cfg), rel=1e-12
            )

    def test_past_the_float_range_is_inf_without_a_warning(self):
        # (x - A)^2 overflows; construction and check used to warn "overflow encountered in square"
        from meanineq.inequalities import check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = Configuration([1.0, 1e200], [0.5, 0.5])
            assert variance_sigma(cfg) == math.inf
            check("mg-sigma-lower", cfg, r=1.5)
            batch = ConfigurationBatch([[1.0, 1e200], [1.0, 4.0]], [[0.5, 0.5], [0.5, 0.5]])
            assert _RowMeans(batch).sigma().tolist() == [math.inf, 2.25]


class TestDelta:
    PARAMS = DeltaParams(1.0, 0.5, 0.0, 1.0)

    def test_constant_samples_degenerate(self):
        cfg = Configuration([2.0, 2.0, 2.0], [0.2, 0.5, 0.3])
        with pytest.raises(DegenerateInput):
            delta(cfg, self.PARAMS)

    def test_two_point_equal_weights_identity(self, rng):
        # M_{1/2} = (A + G)/2 at n = 2, q = (1/2, 1/2), so the ratio is 2.
        for _ in range(300):
            a = float(np.exp(rng.uniform(-2, 2)))
            b = a * float(np.exp(rng.uniform(0.4, 3.0)))
            cfg = Configuration([a, b], [0.5, 0.5])
            assert delta(cfg, self.PARAMS) == pytest.approx(2.0, abs=1e-12)

    def test_boundary_two_point_value(self):
        cfg = Configuration([0.0, 1.0], [0.75, 0.25])
        value = delta(cfg, self.PARAMS)
        assert value == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert value == pytest.approx(c_constant(1.0, 0.5, 0.0, 0.25), abs=1e-14)

    def test_three_point_direct_evaluation(self):
        cfg = Configuration([1.0, 4.0, 9.0], [1 / 3, 1 / 3, 1 / 3])
        a = 14.0 / 3.0
        m_half = ((1.0 + 2.0 + 3.0) / 3.0) ** 2
        g = 36.0 ** (1.0 / 3.0)
        expected = (a - g) / (a - m_half)
        assert delta(cfg, self.PARAMS) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(2.0471, abs=1e-4)

    def test_scale_invariance(self, rng):
        for _ in range(300):
            cfg = sample_config(rng, log_spread=1.2)
            r, s, t = order_triple(*np.sort(rng.uniform(0.0, 4.0, 3))[::-1])
            for alpha in (0.0, 0.5, 1.0, 2.0):
                params = DeltaParams(r, s, t, alpha)
                c = float(np.exp(rng.uniform(-3, 3)))
                d0 = delta(cfg, params)
                d1 = delta(cfg.scaled(c), params)
                assert d1 == pytest.approx(d0, rel=1e-10)

    def test_exceeds_one_for_ordered_triples(self, rng):
        for _ in range(500):
            cfg = sample_config(rng, zero_prob=0.2)
            if cfg.is_constant:
                continue
            vals = np.sort(rng.uniform(0.0, 5.0, 3))[::-1]
            if vals[0] == vals[1] or vals[1] == vals[2]:
                continue
            for alpha in (0.3, 1.0, 2.5):
                d = delta(cfg, DeltaParams(*vals, alpha))
                assert d > 1.0

    def test_vanishing_reference_mean(self):
        # first order <= 0 with a zero sample: M_r = 0 and the ratio
        # collapses to (M_t/M_s)^alpha (alpha > 0) or the limit 1.
        cfg = Configuration([0.0, 2.0, 5.0], [0.25, 0.5, 0.25])
        ms = power_mean(cfg, 1.0)
        mt = power_mean(cfg, 2.0)
        value = delta(cfg, DeltaParams(-1.0, 1.0, 2.0, 1.5))
        assert value == pytest.approx((mt / ms) ** 1.5, rel=1e-12)
        assert delta(cfg, DeltaParams(-1.0, 1.0, 2.0, 0.0)) == 1.0
        assert delta(cfg, DeltaParams(-1.0, 1.0, 2.0, -2.0)) == 1.0
        with pytest.raises(DegenerateInput):
            delta(cfg, DeltaParams(-1.0, -2.0, 2.0, 1.0))  # M_s = 0 too

    def test_zero_lower_means_at_nonpositive_alpha(self):
        # M_r > 0 = M_s = M_t: both differences are infinite for alpha <= 0,
        # where these used to return NaN (inf / inf)
        cfg = Configuration([0.0, 1.0], [0.5, 0.5])
        for alpha in (0.0, -2.0):
            with pytest.raises(DegenerateInput, match="M_s and M_t are both zero"):
                delta(cfg, DeltaParams(1.0, 0.0, -1.0, alpha))
        assert delta(cfg, DeltaParams(1.0, 0.0, -1.0, 2.0)) == 1.0
        batch = ConfigurationBatch(np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]]), [2])
        assert np.isnan(_RowMeans(batch).delta(1.0, 0.0, -1.0, -2.0)).all()

    def test_log_convention_at_alpha_zero(self):
        cfg = Configuration([1.0, 4.0, 9.0], [0.2, 0.5, 0.3])
        lr = log_power_mean(cfg, 1.0)
        ls = log_power_mean(cfg, 0.5)
        lt = log_power_mean(cfg, 0.0)
        expected = abs((lr - lt) / (lr - ls))
        assert delta(cfg, DeltaParams(1.0, 0.5, 0.0, 0.0)) == pytest.approx(expected, rel=1e-13)


def _delta_outcome(cfg, params):
    """repr of :func:`delta`, or 'nan' where it raises DegenerateInput."""
    try:
        return repr(delta(cfg, params))
    except DegenerateInput:
        return "nan"


class TestDeltaRows:
    # TestDelta's configurations, two that overflow expm1, a constant and an
    # all-zero one, in one padded batch of mixed sizes
    CONFIGS = [
        ([2.0, 2.0, 2.0], [0.2, 0.5, 0.3]),
        ([0.0, 0.0], [0.5, 0.5]),
        ([0.0, 1.0], [0.75, 0.25]),
        ([1.0, 4.0, 9.0], [1 / 3, 1 / 3, 1 / 3]),
        ([1.0, 4.0, 9.0], [0.2, 0.5, 0.3]),
        ([0.0, 2.0, 5.0], [0.25, 0.5, 0.25]),
        ([1.0, 100.0], [0.5, 0.5]),
        ([0.0, 1.0, 100.0], [0.5, 0.25, 0.25]),
    ]
    ALPHAS = [-1000.0, -2.0, 0.0, 1e-12, 1.0, 1.5, 1000.0]

    def test_rows_equal_delta(self):
        configs = [Configuration(x, q) for x, q in self.CONFIGS]
        x = np.full((len(configs), 3), -1.0)
        q = np.full((len(configs), 3), np.nan)
        for i, cfg in enumerate(configs):
            x[i, :cfg.n], q[i, :cfg.n] = cfg.x, cfg.q_weights
        batch = ConfigurationBatch(x, q, [cfg.n for cfg in configs])
        orders = [-1.0, 0.0, 0.001, 0.5, 0.999, 1.0, 2.0]
        outcomes = set()
        for r, s, t in itertools.permutations(orders, 3):
            for alpha in self.ALPHAS:
                params = DeltaParams(r, s, t, alpha)
                rows = [repr(v) for v in _RowMeans(batch).delta(r, s, t, alpha).tolist()]
                want = [_delta_outcome(cfg, params) for cfg in configs]
                assert rows == want, params
                outcomes.update(v if v in ("nan", "inf", "0.0", "1.0") else "finite" for v in want)
        assert outcomes == {"nan", "inf", "0.0", "1.0", "finite"}


def _padded_rows(width):
    """A seeded (B, width) batch's rows: -1.0 samples and NaN weights past each size."""
    rng = np.random.default_rng([30, width])
    sizes = rng.integers(2, width + 1, 120)
    x = np.full((120, width), -1.0)
    q = np.full((120, width), np.nan)
    for i, n in enumerate(sizes.tolist()):
        x[i, :n] = np.exp(rng.normal(0.0, 2.0, n))
        if i % 4 == 0:
            x[i, 0] = 0.0
        w = rng.random(n)
        q[i, :n] = w / w.sum()
    return ConfigurationBatch(x, q, sizes)


def _tricky(width):
    """A seeded (300, width) array: NaN rows, rows of signed zeros only, zero ties for the
    max or min, and +-inf."""
    rng = np.random.default_rng([31, width])
    picks = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
    a = rng.choice(picks, (300, width))
    a[:20] = np.nan
    a[20:120] = rng.choice(picks[:4], (100, width))   # nothing but signed zeros
    a[120:200] = rng.choice(picks[:6], (80, width))   # a zero tie for the max or min
    return a


class TestRowReductions:
    """The batch path's reductions down the columns equal the numpy reduces they
    replaced, bit for bit, and no RuntimeWarning escapes on padded rows."""

    @pytest.mark.parametrize("width", range(2, 13))
    def test_row_max_min_and_sum_equal_numpy(self, width):
        a = _tricky(width)
        batch = _padded_rows(width)
        padded = [a] + [batch._fill(a[:120], fill) for fill in (-np.inf, np.inf)]
        for b in padded:
            for ufunc, reduce in ((np.maximum, b.max), (np.minimum, b.min), (np.add, b.sum)):
                with np.errstate(invalid="ignore"):  # inf - inf in a sum
                    want = reduce(axis=1)
                    got = means._row_reduce(ufunc, b)
                assert got.tobytes() == want.tobytes(), (ufunc, b)

    @pytest.mark.parametrize("width", range(2, 13))
    def test_softmax_weights_equal_each_rows_own(self, width):
        # from_log_coordinates sums a row's weights with its padding's zeros
        rng = np.random.default_rng([32, width])
        sizes = rng.integers(2, width + 1, 200)
        logits = rng.normal(0.0, 20.0, (200, width))
        batch = ConfigurationBatch.from_log_coordinates(np.zeros((200, width)), logits, sizes)
        for i, n in enumerate(sizes.tolist()):
            w = np.exp(logits[i, :n] - logits[i, :n].max())
            assert batch.q_weights[i, :n].tobytes() == (w / w.sum()).tobytes()

    @pytest.mark.parametrize("width", range(2, 13))
    def test_row_minimum_weight_is_each_rows_min(self, width):
        batch = _padded_rows(width)  # NaN weights past each size
        want = [min(batch.q_weights[i, :n].tolist()) for i, n in enumerate(batch.sizes.tolist())]
        assert _RowMeans(batch).q.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("width", range(2, 13))
    def test_padded_rows_raise_no_warning(self, width):
        from meanineq.inequalities import InequalityId, relative_residuals
        batch = _padded_rows(width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _RowMeans(batch)
            for r in (-3.0, 0.0, 0.01, 2.5):
                rows.log_mean(r)
            rows.delta(2.0, 0.5, 0.0, 1.0)
            for tag, params in ((InequalityId.MG_SIGMA_UPPER, {"r": 2.5}),
                                (InequalityId.HALF_MEAN_VAR_LOWER, {"r": 1.5})):
                relative_residuals(tag, batch, params)


class TestCConstant:
    def test_base_triple_value(self):
        assert c_constant(1.0, 0.5, 0.0, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_limit_toward_zero_argument(self):
        assert c_constant(1.0, 0.5, 0.0, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_positive_smallest_order(self):
        assert c_constant(2.0, 1.0, 0.5, 0.25) == pytest.approx(1.75, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            c_constant(1.0, 2.0, 0.0, 0.5)  # unordered
        with pytest.raises(DomainError):
            c_constant(2.0, 1.0, 0.0, 1.0)  # argument at the boundary
        with pytest.raises(DomainError):
            c_constant(2.0, 1.0, 0.0, 0.0)


class TestOrderTriple:
    def test_orders_descending(self):
        assert order_triple(0.0, 1.0, 0.5) == (1.0, 0.5, 0.0)
        assert order_triple(1.0, 0.5, 0.0) == (1.0, 0.5, 0.0)
        assert order_triple(2.0, 3.0, 1.0) == (3.0, 2.0, 1.0)

    def test_rejects_ties_and_negatives(self):
        with pytest.raises(DomainError):
            order_triple(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            order_triple(2.0, 1.0, -0.5)

    @pytest.mark.parametrize("orders", [(math.nan, 0.5, 0.0), (1.0, math.inf, 0.0),
                                        (1.0, 0.5, -math.inf)])
    def test_rejects_non_finite_orders(self, orders):
        with pytest.raises(DomainError, match="an order must be a finite real number, got "):
            order_triple(*orders)

    @pytest.mark.parametrize("orders", [("a", 1, 2), (True, 1, 2)], ids=["text", "bool"])
    def test_orders_must_be_real_numbers(self, orders):
        # "a" used to raise TypeError, and True was read as 1.0
        with pytest.raises(DomainError, match="^an order must be a finite real number, got "):
            order_triple(*orders)

    def test_integer_past_the_float_range_is_not_finite(self):
        # used to raise OverflowError in math.isfinite
        with pytest.raises(DomainError, match=r"^an order must be a finite real number, got inf$"):
            order_triple(10**400, 0.5, 0)


class TestConfiguration:
    def test_sorts_jointly(self):
        cfg = Configuration([3.0, 1.0, 2.0], [0.5, 0.2, 0.3])
        assert cfg.x.tolist() == [1.0, 2.0, 3.0]
        assert cfg.q_weights.tolist() == [0.2, 0.3, 0.5]

    def test_min_weight_and_strictness(self):
        cfg = Configuration([1.0, 1.0, 2.0], [0.3, 0.3, 0.4])
        assert cfg.min_weight == 0.3
        assert not cfg.is_strict
        assert Configuration([1.0, 2.0], [0.5, 0.5]).is_strict

    def test_validation(self):
        with pytest.raises(ConfigError):
            Configuration([1.0], [1.0])
        with pytest.raises(ConfigError):
            Configuration([1.0, -2.0], [0.5, 0.5])
        with pytest.raises(ConfigError):
            Configuration([1.0, 2.0], [0.5, 0.6])
        with pytest.raises(ConfigError):
            Configuration([1.0, 2.0], [1.0, 0.0])
        with pytest.raises(ConfigError):
            Configuration([1.0, 2.0], [0.5])

    def test_immutable(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            cfg.x[0] = 5.0

    def test_json_round_trip(self):
        cfg = Configuration([0.0, 1.0, 2.5], [0.2, 0.5, 0.3])
        payload = json.loads(json.dumps(cfg.to_json_dict()))
        back = Configuration.from_json_dict(payload)
        assert back.x.tolist() == cfg.x.tolist()
        assert back.q_weights.tolist() == cfg.q_weights.tolist()

    def test_json_without_weights_rejected(self):
        with pytest.raises(ConfigError, match="^configuration JSON needs key 'q'$"):
            Configuration.from_json_dict({"x": [1, 2]})

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(ConfigError, match="^scale factor must be positive$"):
            Configuration([1.0, 2.0], [0.5, 0.5]).scaled(0)

    @pytest.mark.parametrize("c, error, message", [
        (1e308, ConfigError, "^samples and weights must be finite$"),
        (math.inf, DomainError, "^scale factor must be a finite real number, got inf$"),
        (10**400, DomainError, "^scale factor must be a finite real number, got inf$"),
    ], ids=["overflow", "inf", "big-int"])
    def test_scaled_samples_past_the_float_range_are_refused(self, c, error, message):
        # 1e308 used to warn of an overflow in multiply, an error under this suite
        with pytest.raises(error, match=message):
            Configuration([0.0, 1.0, 2.0], [0.25, 0.25, 0.5]).scaled(c)

    def test_repr_lists_sorted_samples_and_weights(self):
        cfg = Configuration([2.0, 1.0], [0.25, 0.75])
        assert repr(cfg) == "Configuration(x=[1.0, 2.0], q=[0.75, 0.25])"


def _construction_inputs(n: int):
    """Seeded inputs of size n, valid and borderline, in the forms callers pass.

    Zero samples, ties, a mix of -0.0 and 0.0, 1e-200 weights, and weight
    sums moved to 1 +- 1e-12 and just past it (which fail); the samples come
    as an array, a list, a tuple, numpy scalars or float32.
    """
    rng = np.random.default_rng([19, n])
    forms = [lambda a: a, lambda a: a.tolist(), lambda a: tuple(a.tolist()), list,
             lambda a: a.astype(np.float32)]
    shifts = [1e-12, -1e-12, 1.0000001e-12, -1.0000001e-12]
    for i in range(40):
        x = np.exp(rng.normal(0.0, 2.0, n))
        q = rng.dirichlet(np.ones(n))
        if i % 3 == 0:
            x[rng.integers(n)] = 0.0
        if i % 4 == 1:
            x[rng.integers(n)] = x[rng.integers(n)]
        if i % 5 == 2:
            x[:2] = (-0.0, 0.0) if i % 2 else (0.0, -0.0)
            x = x[rng.permutation(n)]
        if i % 6 == 3:
            q[rng.integers(n)] = 1e-200
            q = q / math.fsum(q.tolist())
        if i % 8 >= 4:
            q[-1] += shifts[i % 4]
        yield forms[i % 5](x), forms[(i // 5) % 4](q)


def _construction_outcome(x, q) -> bytes:
    """What constructing from (x, q) gives: the arrays' bytes, dtypes and flags, or the error."""
    try:
        cfg = Configuration(x, q)
    except ConfigError as exc:
        return f"ConfigError: {exc}".encode()
    assert set(vars(cfg)) == {"x", "q_weights", "min_weight", "_means"}
    return b"|".join([cfg.x.tobytes(), cfg.q_weights.tobytes(), repr((
        cfg.x.dtype.str, cfg.q_weights.dtype.str, cfg.x.flags.writeable,
        cfg.q_weights.flags.writeable, cfg.x.flags.c_contiguous,
        cfg.q_weights.flags.c_contiguous)).encode()])


class TestConstruction:
    """Configuration builds the same arrays and raises the same errors as it always has."""

    # sha256 of the outcomes of _construction_inputs(n), recorded when
    # construction validated and sorted with numpy calls.
    FUZZ_SHA256 = {
        2: "e98a1794b56bd0aa",
        3: "ae530899f8f1e06d",
        4: "a2534fb391db1cd8",
        5: "7382f162fecfafd8",
        6: "d37a7ed5613ddf08",
        7: "7e577210e16636b7",
        8: "39315ac42840cf4c",
    }

    @pytest.mark.parametrize("n", range(2, 9))
    def test_seeded_inputs(self, n):
        digest = hashlib.sha256()
        for x, q in _construction_inputs(n):
            digest.update(_construction_outcome(x, q) + b"\n")
        assert digest.hexdigest()[:16] == self.FUZZ_SHA256[n]

    @pytest.mark.parametrize("x, q, want", [
        ([3, 1, 2], [0.25, 0.5, 0.25], [1.0, 2.0, 3.0]),
        ([np.float32(2.5), np.int64(1)], (np.float16(0.5), 0.5), [1.0, 2.5]),
        (np.array([4.0, 1.0, 4.0, 0.0])[::-1], np.full(4, 0.25), [0.0, 1.0, 4.0, 4.0]),
        (np.arange(6.0)[::-2], [0.25, 0.25, 0.5], [1.0, 3.0, 5.0]),
    ])
    def test_input_types(self, x, q, want):
        cfg = Configuration(x, q)
        assert cfg.x.tolist() == want and cfg.x.dtype == cfg.q_weights.dtype == np.float64
        assert not cfg.x.flags.writeable and not cfg.q_weights.flags.writeable
        assert cfg.x.flags.c_contiguous and cfg.q_weights.flags.c_contiguous

    @pytest.mark.parametrize("x, q, error, message", [
        ([math.nan, -1.0], [0.5, 0.5], ConfigError, "samples and weights must be finite"),
        ([-1.0, 1.0], [0.5, math.inf], ConfigError, "samples and weights must be finite"),
        ([[1.0, 2.0]], [[0.5, 0.5]], ConfigError, "samples and weights must be one-dimensional"),
        (1.0, 1.0, ConfigError, "samples and weights must be one-dimensional"),
        ([1.0, 2.0, 3.0], [0.5, 0.5], ConfigError, "length mismatch: 3 samples vs 2 weights"),
        ([1.0], [1.0], ConfigError, "a configuration needs at least two samples"),
        ([], [], ConfigError, "a configuration needs at least two samples"),
        ([1.0, 2.0], [1.0, 0.0], ConfigError, "weights must be strictly positive"),
        ([1.0, 2.0], [1.0, -0.0], ConfigError, "weights must be strictly positive"),
        ([-1.0, 2.0], [1.0, 0.0], ConfigError, "samples must be nonnegative"),
        ([-0.0, 2.0], [0.5, 0.6], ConfigError, "weights must sum to 1 (got 1.1)"),
        ([3, 1, 2], [1, 2, 1], ConfigError, "weights must sum to 1 (got 4.0)"),
        ([1.0, 2.0], ["a", 0.5], DomainError, "weights must be real numbers, got ['a', 0.5]"),
        ([True, False], [0.25, 0.75], DomainError,
         "samples must be real numbers, got [True, False]"),
        ([[1, 2], [3]], [0.5, 0.5], DomainError,
         "samples must be real numbers, got [[1, 2], [3]]"),
    ])
    def test_invalid_inputs(self, x, q, error, message):
        with pytest.raises(error) as info:
            Configuration(x, q)
        assert type(info.value) is error and str(info.value) == message


class TestDeltaParams:
    def test_rejects_tied_orders(self):
        with pytest.raises(DomainError):
            DeltaParams(1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("values, name", [
        ((math.nan, 0.5, 0.0, 1.0), "r"), ((1.0, -math.inf, 0.0, 1.0), "s"),
        ((1.0, 0.5, math.nan, 1.0), "t"), ((1.0, 0.5, 0.0, math.inf), "alpha"),
        ((math.inf, -math.inf, 0.0, 1.0), "r"),
    ])
    def test_rejects_non_finite_values_by_name(self, values, name):
        with pytest.raises(DomainError, match=f"^{name} must be a finite real number, got "):
            DeltaParams(*values)

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        assert DeltaParams(1e308, 9e307, 0.0, 1e308).alpha == 1e308

    def test_ordered(self):
        params = DeltaParams(0.0, 1.0, 0.5, 2.0)
        assert params.ordered() == DeltaParams(1.0, 0.5, 0.0, 2.0)


class TestMeanValue:
    def test_plain_and_log(self):
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        assert mean_value(cfg, 0.0) == MeanValue(2.0, "plain")
        assert mean_value(cfg, 0.0, "log").value == pytest.approx(math.log(2.0))

    def test_log_of_zero_mean_rejected(self):
        cfg = Configuration([0.0, 4.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            mean_value(cfg, 0.0, "log")

    def test_unknown_convention_rejected(self):
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        with pytest.raises(DomainError, match="^unknown convention 'odd'$"):
            mean_value(cfg, 1.0, "odd")
        with pytest.raises(DomainError, match="^unknown convention 'odd'$"):
            MeanValue(1.0, "odd")

    def test_value_must_be_finite(self):
        with pytest.raises(DomainError, match="^value must be a finite real number, got inf$"):
            MeanValue(math.inf)


def _record_configs():
    """Seeded configurations for n = 2..8, with zero samples, ties and constant rows."""
    rng = np.random.default_rng(7)
    configs = []
    for n in range(2, 9):
        for i in range(12):
            x = np.exp(rng.normal(0.0, 2.0, n))
            if i % 3 == 0:
                x[np.argmin(x)] = 0.0
            if i % 4 == 1:
                x[1] = x[0]
            if i % 6 == 5:
                x[:] = x[0]
            configs.append((x, rng.dirichlet(np.ones(n))))
    return configs


# The fixed orders of the record, their sign twin -0.0, orders inside the
# expm1 band of the power sums, and negative orders (-inf at a zero sample).
RECORD_ORDERS = [0.0, -0.0, 0.5, 1.0, 1e-9, -1e-9, 0.02, -0.02, -1.0, -2.5, 0.3, 2.0, 7.0]
RECORD_TRIPLES = [DeltaParams(1.0, 0.5, 0.0, 1.0), DeltaParams(1.0, 0.5, -0.0, 2.0),
                  DeltaParams(2.0, 1.0, 0.5, 0.0), DeltaParams(0.5, -1.0, 1e-9, 1.5)]


def _values(cfg, r):
    """Everything the means record feeds, as strings: equal strings mean equal bits."""
    out = [repr(log_power_mean(cfg, r)), repr(power_mean(cfg, r)),
           repr(variance_sigma(cfg)), repr(cfg.min_weight)]
    for params in RECORD_TRIPLES:
        try:
            out.append(repr(delta(cfg, params)))
        except DegenerateInput as exc:
            out.append(f"DegenerateInput: {exc}")
    return out


class TestMeansRecord:
    def test_a_used_configuration_gives_the_values_of_a_fresh_one(self):
        rng = np.random.default_rng(11)
        for x, q in _record_configs():
            shared = Configuration(x, q)
            for _ in range(2):
                for i in rng.permutation(len(RECORD_ORDERS)).tolist():
                    r = RECORD_ORDERS[i]
                    assert _values(shared, r) == _values(Configuration(x, q), r), (x, q, r)

    def test_a_configuration_is_built_with_its_record(self):
        cfg = Configuration([0.5, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert set(vars(cfg)) == {"x", "q_weights", "min_weight", "_means"}
        assert cfg.min_weight == cfg._means.q == 0.2

    def test_the_record_has_a_fixed_set_of_entries(self):
        cfg = Configuration([0.5, 1.0, 2.0], [0.2, 0.3, 0.5])
        record = cfg._means
        assert means._Means.__slots__ == (
            "_x", "_q_weights", "q", "_log_x", "_sigma", "_fixed_log_means", "__weakref__")
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1.0
        for r in np.linspace(-5.0, 5.0, 101).tolist() + RECORD_ORDERS:
            log_power_mean(cfg, r)
        variance_sigma(cfg)
        delta(cfg, DeltaParams(1.0, 0.5, 0.0))
        assert set(vars(cfg)) == {"x", "q_weights", "min_weight", "_means"}
        assert cfg._means is record
        assert record._x is cfg.x and record._q_weights is cfg.q_weights
        assert set(record._fixed_log_means) == {0.0, 0.5, 1.0}
        assert not record._log_x.flags.writeable

    def test_min_weight_is_documented(self):
        assert ("``min_weight`` is the minimum weight, the single quantity the sharp constants"
                " depend on.") in " ".join(Configuration.__doc__.split())

    def test_scaled_has_its_own_record(self):
        cfg = Configuration([1.0, 4.0, 9.0], [0.2, 0.3, 0.5])
        before = [_values(cfg, r) for r in RECORD_ORDERS]
        big = cfg.scaled(3.0)
        for r in RECORD_ORDERS:
            assert _values(big, r) == _values(Configuration(3.0 * cfg.x, cfg.q_weights), r)
        assert power_mean(big, 1.0) == pytest.approx(3.0 * power_mean(cfg, 1.0))
        assert variance_sigma(big) == pytest.approx(9.0 * variance_sigma(cfg))
        assert [_values(cfg, r) for r in RECORD_ORDERS] == before

    @pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)),
                                       copy.copy, copy.deepcopy])
    def test_copies_are_read_only_and_start_a_record_of_their_own(self, clone):
        cfg = Configuration([0.0, 1.0, 3.0], [0.3, 0.3, 0.4])
        before = [_values(cfg, r) for r in RECORD_ORDERS]
        twin = clone(cfg)
        assert set(vars(twin)) == {"x", "q_weights", "min_weight", "_means"}
        assert twin._means is not cfg._means
        assert twin._means._x is twin.x and twin._means._q_weights is twin.q_weights
        with pytest.raises(ValueError):
            twin.x[0] = 5.0
        with pytest.raises(ValueError):
            twin.q_weights[0] = 0.5
        assert [_values(twin, r) for r in RECORD_ORDERS] == before

    def test_threads_sharing_configurations_see_the_sequential_values(self):
        pairs = _record_configs()
        want = [[_values(Configuration(x, q), r) for r in RECORD_ORDERS] for x, q in pairs]
        shared = [Configuration(x, q) for x, q in pairs]
        got = {}

        def work(k: int) -> None:
            order = np.random.default_rng(k).permutation(len(shared)).tolist()
            got[k] = {i: [_values(shared[i], r) for r in RECORD_ORDERS] for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == list(range(6))
        for values in got.values():
            assert [values[i] for i in range(len(shared))] == want
