"""Power means, the a_r profile, the two-point gaps and the probes' slopes
against mpmath oracles, and small-order verdicts.

The power-mean oracle normalizes the weights by their exact sum:
configurations accept weights that sum to 1 within 1e-12, and M_r is the
mean of the normalized weights.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from meanineq import (
    AuxFunctionId,
    CheckStatus,
    Configuration,
    DeltaParams,
    ProbeClaim,
    a_r_fn,
    a_r_values,
    aux_eval,
    check,
    delta,
    finite_difference_probe,
    gap_exponent_lower,
    gap_exponent_upper,
    log_power_mean,
    min_a_r,
    power_mean,
)
from meanineq.means import _EXPM1_BAND, ConfigurationBatch, _RowMeans

EDGE = [math.nextafter(_EXPM1_BAND, 0.0), _EXPM1_BAND, math.nextafter(_EXPM1_BAND, 1.0)]
ORDERS = ([s * r for r in (1e-12, 1e-9, 1.01e-8, 1e-6, 1e-4, 1e-2, 0.3, *EDGE)
           for s in (1.0, -1.0)] + [1.7, 30.0, 300.0])


def oracle_log_power_mean(x, q, r):
    """ln M_r at 50 digits; -inf where the mean is 0."""
    with mp.workdps(50):
        if r < 0 and min(x) == 0.0:
            return mp.ninf
        total = mp.fsum(q)
        s = mp.fsum(mp.mpf(w) / total * mp.mpf(v) ** r for v, w in zip(x, q) if v > 0)
        return mp.log(s) / r


def _configs():
    """300 seeded configurations, n = 2..8, ln x ~ N(0, 2); every fifth has a zero sample."""
    rng = np.random.default_rng(2021)
    for i in range(300):
        n = 2 + i % 7
        x = np.exp(rng.normal(0.0, 2.0, n))
        if i % 5 == 0:
            x[np.argmin(x)] = 0.0
        yield Configuration(x, rng.dirichlet(np.ones(n)))


def test_log_power_mean_matches_the_oracle():
    # M_r is exp(ln M_r), so a relative error of e in M_r is an absolute error
    # of e in ln M_r; where |ln M_r| > 1 that is held relative instead, since
    # ln M_r itself rounds by |ln M_r| * 2^-53 (zero samples at small r > 0
    # give means like 1e-300).
    worst = {}
    for cfg in _configs():
        x, q = cfg.x.tolist(), cfg.q_weights.tolist()
        for r in ORDERS:
            want = oracle_log_power_mean(x, q, r)
            got = log_power_mean(cfg, r)
            if want == mp.ninf:
                assert got == -math.inf, (cfg, r)
                continue
            err = float(abs(got - want)) / max(1.0, float(abs(want)))
            worst[r] = max(worst.get(r, 0.0), err)
    assert max(worst.values()) <= 1e-14, worst


def oracle_log_power_mean_expm1(x, q, r):
    """ln M_r at 50 digits as log1p(sum q expm1(r ln x)) / r: the direct form
    loses everything to cancellation at orders far below 1e-50."""
    with mp.workdps(50):
        total = mp.fsum(q)
        r = mp.mpf(r)
        s = mp.fsum(mp.mpf(w) / total * mp.expm1(r * mp.log(v)) for v, w in zip(x, q))
        return mp.log1p(s) / r


CUTOFF = 2.0**-969
TINY_ORDERS = [s * r for r in (5e-324, 1e-320, 1e-310, 2.0**-1000, math.nextafter(CUTOFF, 0.0),
                               CUTOFF, math.nextafter(CUTOFF, 1.0), 2.0**-960)
               for s in (1.0, -1.0)]


def test_log_power_mean_at_tiny_orders_matches_the_oracle():
    # r ln x_n used to round in the subnormal range, so at r = 5e-324 ln M_r
    # came out as ln x_n's neighbourhood (e^2 for x = 1, 4, 9), off by 0.5;
    # below the cutoff the order is taken as 0, within 6e-287 of the truth,
    # but for a zero sample at r > 0, where ln M_r stays finite until about
    # ln(1 - q_1) / r leaves the float range and ln G is -inf
    configs = list(_configs())
    width = max(cfg.n for cfg in configs)
    x = np.full((len(configs), width), -1.0)
    q = np.full((len(configs), width), np.nan)
    for i, cfg in enumerate(configs):
        x[i, :cfg.n], q[i, :cfg.n] = cfg.x, cfg.q_weights
    rows = _RowMeans(ConfigurationBatch(x, q, [cfg.n for cfg in configs]))
    worst = 0.0
    for r in TINY_ORDERS:
        got = [log_power_mean(cfg, r) for cfg in configs]
        assert rows.log_mean(r).tolist() == got, r
        for cfg, value in zip(configs, got):
            want = oracle_log_power_mean_expm1(cfg.x.tolist(), cfg.q_weights.tolist(), r)
            if math.isinf(want):
                assert value == float(want), (cfg, r)
                continue
            worst = max(worst, float(abs(value - want)) / max(1.0, float(abs(want))))
    assert worst <= 1e-14


def test_plain_power_sum_outside_the_band_at_a_lopsided_weight():
    # The expm1 form would cancel here: ln M_r off by 1.7e-8 relative, where
    # the plain form kept outside the band is off by 2.7e-17.
    x, q, r = [1.0, 2.0], [1.0 - 1e-10, 1e-10], 40.0
    want = oracle_log_power_mean(x, q, r)
    got = log_power_mean(Configuration(x, q), r)
    assert float(abs(got - want) / abs(want)) <= 1e-14


def test_weights_off_one_by_their_tolerance():
    # weights summing to 1 + 0.9e-12 gave relative errors of 8.9e-5 at
    # r = 1.01e-8 and 9.0e-10 at r = 1e-3, their slop divided by r
    x, q = [1.0, 4.0], [0.5, 0.5 + 0.9e-12]
    cfg = Configuration(x, q)
    for r in (1.01e-8, 1e-3):
        want = mp.exp(oracle_log_power_mean(x, q, r))
        assert float(abs(power_mean(cfg, r) - want) / want) <= 1e-14, r


def test_no_spurious_violations_at_small_orders():
    # mg-sigma-upper is proven for 0 < r <= 2; the plain log-sum-exp used to
    # report 426 of these 6,000 checks as Violated
    rng = np.random.default_rng(8)
    statuses = []
    for i in range(2000):
        n = 2 + i % 7
        cfg = Configuration(np.exp(rng.normal(0.0, 1.0, n)), rng.dirichlet(np.ones(n)))
        for r in (1.01e-8, 1e-7, 1e-6):
            statuses.append(check("mg-sigma-upper", cfg, r=r).status)
    assert len(statuses) == 6000
    assert CheckStatus.VIOLATED not in statuses


def oracle_delta(x, q, params):
    """Delta at 60 digits, from the oracle's log-means; M_r = 0 takes its limit."""
    with mp.workdps(60):
        def log_mean(r):
            if r == 0:
                if min(x) == 0.0:
                    return mp.ninf
                return mp.fsum(mp.mpf(w) * mp.log(v) for v, w in zip(x, q)) / mp.fsum(q)
            return oracle_log_power_mean(x, q, r)

        lr, ls, lt = (log_mean(r) for r in (params.r, params.s, params.t))
        alpha = mp.mpf(params.alpha)
        if lr == mp.ninf:
            return mp.exp(alpha * (lt - ls)) if alpha > 0 else mp.mpf(1)
        return abs(mp.expm1(alpha * (lt - lr)) / mp.expm1(alpha * (ls - lr)))


@pytest.mark.parametrize("x, q, params", [
    ([1.0, 100.0], [0.5, 0.5], DeltaParams(1.0, 0.001, 0.0, -1000.0)),
    ([1.0, 100.0], [0.5, 0.5], DeltaParams(0.0, 0.999, 1.0, 1000.0)),
    ([1.0, 100.0], [0.5, 0.5], DeltaParams(1.0, 0.999, 0.0, -1000.0)),
    ([0.0, 1.0, 100.0], [0.5, 0.25, 0.25], DeltaParams(0.0, 0.5, 1.0, 1000.0)),
], ids=["alpha-negative", "alpha-positive", "past-float-range", "zero-reference"])
def test_delta_past_the_expm1_range(x, q, params):
    # alpha (ln M_x - ln M_r) above ln(max float) = 709.78 used to raise
    # OverflowError from math.expm1 (math.exp with a vanishing M_r); the
    # ratio is inf only where it exceeds the float range
    want = oracle_delta(x, q, params)
    got = delta(Configuration(x, q), params)
    if want > mp.mpf(np.finfo(float).max):
        assert got == math.inf
    else:
        assert float(abs(got - want) / want) <= 1e-12, (got, want)


def oracle_a_r(r, t, dps=50):
    """a_r(t) at ``dps`` digits, with its limits at t = 0 and t = 1."""
    with mp.workdps(dps):
        r, t = mp.mpf(r), mp.mpf(t)
        if t == 0:
            return abs(r - 2) / r
        if t == 1:
            return abs((r - 1) * mp.log(2) - mp.log(r)) / ((r - 1) * mp.log(2))
        num = (r - 1) * mp.log1p(t) + mp.log1p(-t) - mp.log1p(-t**r)
        return abs(num) / (r * mp.log1p(t) - mp.log1p(t**r))


# Steps of 1/200 (both ends included), both ends approached by 10^-k, and
# tiny and subnormal t, where a_r nears |r-2|/r only like t^{r-1}.
PROFILE_TS = np.array(sorted({
    *np.linspace(0.0, 1.0, 201).tolist(),
    *(10.0**-k for k in range(3, 16)), *(1.0 - 10.0**-k for k in range(3, 16)),
    1e-30, 1e-60, 1e-300, 5e-324,
}))


def test_a_r_values_match_the_oracle():
    # a_r used to snap t < 1e-8 to |r-2|/r and t > 1 - 1e-8 to a_r(1), and
    # to cancel near both ends: it was 0.1 absolute off at r = 1.0001.
    rng = np.random.default_rng(2026)
    rs = [*(1.0 + 5.0 * (1.0 - rng.random(20))), 1.0001, 10.0, 50.0, 100.0]
    worst = 0.0
    for r in rs:
        got = a_r_values(float(r), PROFILE_TS)
        for t, value in zip(PROFILE_TS.tolist(), got.tolist()):
            worst = max(worst, abs(value - float(oracle_a_r(r, t))))
    assert worst <= 1e-14, worst


def test_profile_minimum_matches_the_oracle():
    # a_r(1) in closed form; its numerator (r-1) ln 2 - ln r vanishes at
    # r = 1 and r = 2; the one-line form lost 2.1e-12 relative at r = 2.0001.
    rng = np.random.default_rng(7)
    rs = [*(1.0 + 5.0 * (1.0 - rng.random(3000))),
          *(1.0 + 10.0 ** rng.uniform(-9.0, math.log10(1e6 - 1.0), 500)),
          1.0001, 1.9999, 2.0001, 1e6]
    worst = 0.0
    for r in map(float, rs):
        t_star, a_star = min_a_r(r)
        assert (t_star, a_star) == (1.0, a_r_fn(r, 1.0))
        want = oracle_a_r(r, 1.0, dps=40)
        worst = max(worst, float(abs(a_star - want) / want))
    assert worst <= 2e-15, worst
    assert min_a_r(2.0) == (1.0, 0.0)


def test_profile_minimum_is_at_one():
    # a_r(t) = a_r(1/t) makes t = 1 stationary; this scan, at 40 digits,
    # finds no t where a_r dips below a_r(1), over the default core-* ranges
    # of r and a few more that the CLI takes.  Near t = 1 the gap is
    # O((1-t)^2), about 4e-22 at r = 2.0001 and 1 - t = 1e-8.
    rng = np.random.default_rng(12)
    rs = [*rng.uniform(1.05, 1.95, 25), *rng.uniform(2.05, 5.0, 25),
          1.0001, 1.01, 1.999, 2.0001, 10.0, 100.0]
    ts = [*rng.uniform(0.0, 1.0, 40), *(10.0**-k for k in range(1, 9)),
          *(1.0 - 10.0**-k for k in range(1, 9))]
    for r in map(float, rs):
        t_star, _ = min_a_r(r)
        assert t_star == 1.0
        floor = oracle_a_r(r, t_star, dps=40)
        assert all(oracle_a_r(r, t, dps=40) >= floor for t in ts), r


def oracle_lower_gap(r, t):
    """(1+t)^{r-1}(1-t)/(1-t^r) at 50 digits, with its limit 2^{r-1}/r at t = 1."""
    with mp.workdps(50):
        r, t = mp.mpf(r), mp.mpf(t)
        if t == 1:
            return 2 ** (r - 1) / r
        return (1 + t) ** (r - 1) * (1 - t) / (1 - t**r)


# Both ends, subnormal t, and t approaching 1 through and past the band
# 1 - 1e-8 < t < 1 where the gaps and the chain used to snap to their limit.
GAP_TS = [0.0, 1e-300, 5e-324, *(1.0 - 10.0**-k for k in range(2, 16)),
          1.0 - 5e-9, 1.0 - 9e-9, 1.0]


def _solved_gap_exponent(r):
    return gap_exponent_upper(r) if r < 2.0 else gap_exponent_lower(r)


@pytest.mark.parametrize("tag, rs", [
    (AuxFunctionId.CORE_UPPER, [1.0001, 1.05, 1.3, 1.5, 1.9, 1.9999, 2.0]),
    (AuxFunctionId.CORE_LOWER, [2.0, 2.0001, 2.05, 2.5, 3.0, 4.0, 5.0, 8.0]),
    (AuxFunctionId.LINEAR_GAP_BOUND, [1.02, 1.05, 1.5, 1.9, 1.98, 2.02, 2.5, 2.98]),
])
def test_gaps_match_the_oracle(tag, rs):
    # Each value is gap - 1 - a r t (a = 0 on the core tags, where the
    # penalty is then 1), held within 4e-15 of the gap.  The raw quotient
    # was 3.95e-9 of the gap off at r = 1.05, t = 1 - 1e-8 (upper gap) and
    # 1.7e-9 at r = 2.05 (lower gap).
    linear, worst = tag is AuxFunctionId.LINEAR_GAP_BOUND, 0.0
    for r in rs:
        a = _solved_gap_exponent(r) if linear else 0.0
        upper = r < 2.0 if linear else tag is AuxFunctionId.CORE_UPPER
        for t in GAP_TS:
            gap = oracle_lower_gap(r, t) ** (-1 if upper else 1)
            want = gap - 1 - mp.mpf(a) * r * t
            err = abs(aux_eval(tag, (r, a, t)) - want) / gap
            worst = max(worst, float(err))
    assert worst <= 4e-15, worst


def oracle_gap_exponent(r, upper):
    """a1(r) (upper) or a2(r) at 50 digits, from the root of its gap equation, for r near 2."""
    with mp.workdps(50):
        r = mp.mpf(r)
        if upper:
            def gap(t):
                return 2 - r - t ** (r - 1) - (1 - t**r) / ((1 + t) ** (r - 1) * (1 - t)) + 1
        else:
            def gap(t):
                return r - 2 - t - (1 + t) ** (r - 1) * (1 - t) / (1 - t**r) + 1
        d = abs(r - 2)
        t = mp.findroot(gap, (d / 4, 4 * d), solver="anderson")  # the root is about |r - 2|
        return ((2 - r - t ** (r - 1)) if upper else (r - 2 - t)) / r


def test_gap_exponents_near_two_match_the_oracle():
    # Near r = 2 every term of the gap equations, and of a1's numerator, is
    # about |r - 2|, while a1 and a2 are about (r - 2)^2/2.  So only absolute
    # accuracy holds: at most 1.4e-14 here, which is a relative error of
    # 1.6e-8 at |r - 2| = 1e-3 and a wrong sign at 1e-7.
    worst = 0.0
    for d in np.geomspace(1e-15, 1e-2, 20).tolist():
        for fn, r, upper in ((gap_exponent_upper, 2.0 - d, True),
                             (gap_exponent_lower, 2.0 + d, False)):
            worst = max(worst, float(abs(fn(r) - oracle_gap_exponent(r, upper))))
    assert worst <= 5e-14, worst


def test_binomial_chain_matches_the_oracle():
    # (1+t)^{r-1} - (1-t^r)/(1-t) - (r-2) t, held within 2e-15 (1+t)^{r-1};
    # the raw tail was 2.5e-7 absolute off at r = 8, t = 1 - 9e-9, 2,500
    # times the default sign tolerance.
    worst = 0.0
    for r in (4.0, 4.5, 5.0, 6.5, 8.0):
        for t in GAP_TS:
            with mp.workdps(50):
                rr, tt = mp.mpf(r), mp.mpf(t)
                lead = (1 + tt) ** (rr - 1)
                tail = rr if t == 1.0 else (1 - tt**rr) / (1 - tt)
                want = lead - tail - (rr - 2) * tt
                err = abs(aux_eval(AuxFunctionId.BINOMIAL_CHAIN, (r, t)) - want) / lead
            worst = max(worst, float(err))
    assert worst <= 2e-15, worst


def _oracle_means(x, q):
    """x and the normalized weights as mpf, with A and G; at the caller's precision."""
    x = [mp.mpf(v) for v in x]
    total = mp.fsum(q)
    q = [mp.mpf(w) / total for w in q]
    return (x, q, mp.fsum(w * v for v, w in zip(x, q)),
            mp.exp(mp.fsum(w * mp.log(v) for v, w in zip(x, q))))


def oracle_sample_slope(x, q, r, a, upper):
    """The ratio functional's slope in the smallest (upper) or largest sample, at 80 digits."""
    i = 0 if upper else len(x) - 1

    def functional(v):
        xs, qs, A, G = _oracle_means([*x[:i], v, *x[i + 1:]], q)
        p = (1 + mp.mpf(a)) * r if upper else (1 - mp.mpf(a)) * r
        base = 1 - min(qs) if upper else min(qs)
        M = mp.fsum(w * v**r for v, w in zip(xs, qs)) ** (1 / mp.mpf(r))
        return (A / G) ** p - base ** ((r - 1) * p / r) * (M / G) ** p

    with mp.workdps(80):
        return mp.diff(functional, mp.mpf(x[i]))


def oracle_weight_slope(x, q, r):
    """The slope of half-mean-var-upper's lhs - rhs in its weight parameter, at 80 digits."""
    with mp.workdps(80):
        xs, qs, A, G = _oracle_means(x, q)
        r = mp.mpf(r)
        half = mp.fsum(w * mp.sqrt(v) for v, w in zip(xs, qs)) ** 2
        M = mp.fsum(w * v**r for v, w in zip(xs, qs)) ** (1 / r)
        sigma = mp.fsum(w * (v - A) ** 2 for v, w in zip(xs, qs))

        def functional(qp):
            w = qp ** (2 - 1 / r)
            return half - w * M - (1 - w) * G - (mp.mpf(1) / 2 - r * w) * sigma / (2 * xs[0])

        return mp.diff(functional, min(qs))


def _slope_error(got, want):
    return float(abs(got - want) / abs(want))


def test_probe_slopes_match_the_oracle():
    # 4.6e-14 (samples) and 1.6e-10 (weight) relative at worst; the
    # Richardson-refined differences they replace were off by up to 6.6e-7
    # and 5.6e-3 on this set
    rng = np.random.default_rng(1807)
    worst_sample = worst_weight = 0.0
    for i in range(60):
        n = 2 + i % 4
        cfg = Configuration(np.exp(rng.normal(0.0, 0.8, n)), rng.dirichlet(np.ones(n)))
        x, q = cfg.x.tolist(), cfg.q_weights.tolist()
        for claim, r, a in ((ProbeClaim.SMALLEST_SAMPLE_SLOPE, rng.uniform(1.05, 2.0),
                             rng.uniform(0.01, 0.3)),
                            (ProbeClaim.LARGEST_SAMPLE_SLOPE, rng.uniform(2.0, 4.0),
                             rng.uniform(0.01, 0.4))):
            r, a = float(r), float(a)
            got = finite_difference_probe(claim, cfg, r=r, a=a)
            want = oracle_sample_slope(x, q, r, a, claim is ProbeClaim.SMALLEST_SAMPLE_SLOPE)
            worst_sample = max(worst_sample, _slope_error(got, want))
        r = float(rng.uniform(0.55, 2.0))
        got = finite_difference_probe(ProbeClaim.WEIGHT_PARAM_SLOPE, cfg, r=r)
        worst_weight = max(worst_weight, _slope_error(got, oracle_weight_slope(x, q, r)))
    assert worst_sample <= 1e-12, worst_sample
    assert worst_weight <= 1e-9, worst_weight


@pytest.mark.parametrize("claim, x, q, r, bound", [
    (ProbeClaim.SMALLEST_SAMPLE_SLOPE, [1.0, 2.0, 3.0], [0.2, 0.3, 0.5], 1.5, 5.4e-15),
    (ProbeClaim.SMALLEST_SAMPLE_SLOPE, [1.0, 1.001, 1.002], [0.2, 0.3, 0.5], 1.5, 4.6e-12),
    (ProbeClaim.SMALLEST_SAMPLE_SLOPE, [1.0, 1e6], [0.5, 0.5], 1.5, 3.9e-8),
    (ProbeClaim.LARGEST_SAMPLE_SLOPE, [1.0, 2.0, 3.0], [0.2, 0.3, 0.5], 3.0, 2.7e-15),
    (ProbeClaim.LARGEST_SAMPLE_SLOPE, [1.0, 1.0001], [0.4, 0.6], 3.0, 1.1e-10),
], ids=["smallest-spread", "smallest-clustered", "smallest-wide", "largest-spread",
        "largest-clustered"])
def test_probe_slope_cases(claim, x, q, r, bound):
    # a = 0.1; the Richardson-refined differences were off by 9.0e-9, 1.7e-7,
    # 1.6e-2, 2.5e-10 and 8.7e-6 relative here
    got = finite_difference_probe(claim, Configuration(x, q), r=r, a=0.1)
    want = oracle_sample_slope(x, q, r, 0.1, claim is ProbeClaim.SMALLEST_SAMPLE_SLOPE)
    assert _slope_error(got, want) <= bound
