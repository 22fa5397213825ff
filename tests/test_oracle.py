"""Power means, the a_r profile and the two-point gaps against mpmath oracles,
and small-order verdicts.

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
    a_r_fn,
    a_r_values,
    alpha_threshold_lower,
    alpha_threshold_upper,
    aux_eval,
    check,
    log_power_mean,
    min_a_r,
    power_mean,
)
from meanineq.means import _EXPM1_BAND

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
    return alpha_threshold_upper(r) - 1.0 if r < 2.0 else 1.0 - alpha_threshold_lower(r)


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
