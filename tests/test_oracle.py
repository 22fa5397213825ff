"""Power means against a 50-digit mpmath oracle, and small-order verdicts.

The oracle normalizes the weights by their exact sum: configurations
accept weights that sum to 1 within 1e-12, and M_r is the mean of the
normalized weights.
"""

import math

import numpy as np
from mpmath import mp

from meanineq import CheckStatus, Configuration, check, log_power_mean, power_mean
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
