"""Randomized search over configurations: sharpness probes and hunts.

Three capabilities live here:

* :func:`sharpness_probe` evaluates the three-mean ratio at the exact
  two-point boundary configuration (a zero sample next to a unit sample,
  extreme weight on one side) that attains the sharp constant, and also
  scans random configurations with the minimum weight pinned, reporting
  how much of the gap to the bound remains unclosed.

* :func:`counterexample_hunt` minimizes an inequality's relative residual
  over configurations by seeded random restarts followed by coordinate
  descent with adaptive step halving, declaring a violation only when the
  residual clears a safety margin well above float noise.  Hypothesis
  ranges are bypassed (force evaluation), which is how regimes beyond a
  proven validity frontier are probed.

* :func:`finite_difference_probe` returns, in closed form, the exact
  slopes whose signs drive the reduction arguments (of the upper/lower
  ratio functionals in the extreme samples, and of the variance-corrected
  half-mean gap in its weight parameter); its name is kept from when it
  took finite differences.

Searches are deterministic functions of (problem, budget): every restart
derives its own random stream from (seed, n, restart index), so a
parallel execution order could not change the result.

Both searches score configurations in batches (:func:`relative_residuals`
and the batch record's delta, bit-identical to ``check`` and ``delta`` row
by row), and their results equal the sequential definition: restarts one
after another, one trial at a time.  A hunt fixes every restart's
evaluation allowance before it starts any, and runs its restarts in
consecutive groups of bounded padded size.  A group's restarts, of every
sample size n in it, run in one lockstep, one coordinate per step: each
step scores one batch, padded to the group's largest n, that holds for
every live restart the +step and -step trials of its next coordinate.
Descents are independent and a row's score does not depend on the
padding, so the grouping moves no report.  A
restart moves at its first improving trial, as the sequential descent
does; a -step trial after an improving +step was computed speculatively
and is not counted, so verdicts, ``evals_used`` and best configurations
stay those of the sequential descent.  A descent's point is its log
coordinates alone; a hunt builds a configuration only from a group's
first lowest score below its winner's.  A probe reads the samples of
one n as one lazy stream, its restarts' draws in turn, each from its own
random stream; a batch takes as many as the budget has left, and more
follow only when some were degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .errors import DomainError, _integer, _real, _show
from .inequalities import _CATALOG, InequalityId, relative_residuals, resolve_params
from .means import Configuration, ConfigurationBatch, _RowMeans, _size_runs

# A hunt only declares a violation below this relative residual; the check
# tolerance itself is far tighter, so a declared violation always
# re-checks as Violated.
VIOLATION_REL_TOL = 1e-7

_LOG_CLIP = 40.0

# Descent steps in log coordinates: the first, and the one a descent stops below.
_STEP0 = 0.6
_MIN_STEP = 1e-7

# A hunt runs its restarts in consecutive lockstep groups, each padded to
# at most this many floats of state (rows x 2 x the group's largest size),
# or one restart; the first step's trial batch is twice the state.
_GROUP_FLOATS = 1 << 18

# Draws of the free weights before a pinned-weight sample gives up, and the
# chance of one draw pinning the weight below which a probe skips a size.
_PINNED_TRIES = 200
_MIN_PIN_CHANCE = 1e-5


@dataclass(frozen=True)
class SearchBudget:
    """Evaluation budget and seeding for one search run."""

    max_evals: int = 100_000
    seed: int = 0
    n_range: tuple[int, int] = (2, 4)
    restarts: int = 20

    def __post_init__(self) -> None:
        try:
            lo, hi = self.n_range
        except (TypeError, ValueError):
            raise DomainError(f"n_range must be two integers, got {_show(self.n_range)}") from None
        lo, hi = _integer(lo, "n_range"), _integer(hi, "n_range")
        vars(self).update(n_range=(lo, hi), **{name: _integer(getattr(self, name), name)
                                               for name in ("max_evals", "seed", "restarts")})
        if self.max_evals < 1:
            raise DomainError("max_evals must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if lo < 2 or hi < lo:
            raise DomainError("n_range must satisfy 2 <= lo <= hi")
        if self.restarts < 1:
            raise DomainError("restarts must be at least 1")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search; carries the full best configuration for replay."""

    verdict: str  # "NoViolationFound" | "ViolationFound" | "SupremumGap"
    best_config: Configuration
    best_residual: float
    evals_used: int
    seed: int
    supremum_gap: float | None = None
    boundary_gap: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            # +inf when no configuration could be scored; JSON has no infinity
            "best_residual": self.best_residual if math.isfinite(self.best_residual) else None,
            "evals_used": self.evals_used,
            "seed": self.seed,
            "best_config": self.best_config.to_json_dict(),
        }
        if self.supremum_gap is not None:
            out["supremum_gap"] = self.supremum_gap
        if self.boundary_gap is not None:
            out["boundary_gap"] = self.boundary_gap
        return out


def _stream(seed: int, n: int, restart: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n, restart])))


def _pinned_weights(rng, n: int, q_target: float):
    """Weights with min exactly q_target: one pinned slot, rest resampled.

    The rest is a flat Dirichlet draw, built as ``rng.dirichlet`` builds
    it, bit for bit and from the same stream: unit-shape gamma variates are
    standard exponentials, scaled by the reciprocal of their left-to-right
    sum.
    """
    for _ in range(_PINNED_TRIES):
        values = rng.standard_exponential(n - 1).tolist()
        acc = 0.0
        for v in values:
            acc += v
        inv = 1.0 / acc
        # min(c * draw) == c * min(draw) for c > 0: rounding is monotone
        if (1.0 - q_target) * (min(values) * inv) >= q_target - 1e-12:
            w = [(1.0 - q_target) * (v * inv) for v in values]
            w.insert(int(rng.integers(n)), q_target)
            return w
    return None


def _probe_samples(seed: int, n: int, q_target: float, per_restart: int, restarts: int):
    """A size's draws, restart after restart, each from its own stream and ending
    early if its weights give up; draws with relative spread below 10% are skipped."""
    for k in range(restarts):
        rng = _stream(seed, n, k)
        for _ in range(per_restart):
            w = _pinned_weights(rng, n, q_target)
            if w is None:
                break
            x = sorted(rng.random(n).tolist())
            if rng.random() < 0.5:
                x[0] = 0.0
            if x[-1] - x[0] >= 0.1 * x[-1] and x[-1] > 0.0:
                yield x, w


def _feasible_end(q_target: float, lo: int, hi: int) -> int:
    """One past the last n in lo..hi with q_target <= 1/n + 1e-12, a test monotone in n."""
    while lo <= hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if q_target <= 1.0 / mid + 1e-12 else (lo, mid - 1)
    return lo


def sharpness_probe(
    id: InequalityId,
    *,
    triple,
    alpha: float = 1.0,
    q_target: float,
    budget: SearchBudget = SearchBudget(),
) -> SearchReport:
    """How close the sharp constant is approached at minimum weight q_target.

    The two-point boundary configuration attains the bound exactly (up to
    float roundoff; its gap is reported as ``boundary_gap``), so the
    overall supremum gap is essentially zero; the random scan documents
    that no pinned-weight configuration beats it.  Sampled configurations
    with relative spread below 10% are skipped: the ratio is a quotient of
    vanishing differences there, where evaluation noise would swamp the
    picture, and the supremum is approached at maximal spread anyway.
    """
    id = InequalityId(id)
    if id not in (InequalityId.DIANANDA_UPPER, InequalityId.DIANANDA_LOWER):
        raise DomainError("sharpness probes apply to the two general three-mean bounds")
    q_target = _real(q_target, "q_target")
    if not 0.0 < q_target <= 0.5:
        raise DomainError("q_target must lie in (0, 1/2]")
    resolved = resolve_params(id, triple=triple, alpha=alpha)
    orders = (*resolved["triple"], resolved["alpha"])
    upper = id is InequalityId.DIANANDA_UPPER
    weights = [q_target, 1.0 - q_target] if upper else [1.0 - q_target, q_target]
    best_cfg = Configuration([0.0, 1.0], weights)
    lhs, rhs = _CATALOG[id].sides(best_cfg._means, resolved)
    best_delta, bound = (lhs, rhs) if upper else (rhs, lhs)
    boundary_gap = abs(bound - best_delta)
    evals = 1
    lo_n, end = budget.n_range[0], _feasible_end(q_target, *budget.n_range)
    weight_total = (lo_n + end - 1) * (end - lo_n) // 2
    c = (q_target - 1e-12) / (1.0 - q_target)  # a free weight's least share of 1 - q_target
    for n in range(lo_n, end):
        if evals >= budget.max_evals:
            break
        # the chance that the n - 1 flat Dirichlet weights of one draw all reach c
        if max(0.0, 1.0 - (n - 1) * c) ** (n - 2) < _MIN_PIN_CHANCE:
            continue
        per_restart = max(1, budget.max_evals * n // weight_total // budget.restarts)
        samples = _probe_samples(budget.seed, n, q_target, per_restart, budget.restarts)
        # Each sample counts at most once, so take as many as the budget has
        # left; more only if some were degenerate and left it unspent.
        while chunk := list(islice(samples, budget.max_evals - evals)):
            xs, ws = zip(*chunk)
            batch = ConfigurationBatch(np.array(xs), np.array(ws))
            for i, d in enumerate(_RowMeans(batch).delta(*orders).tolist()):
                if math.isnan(d):  # degenerate
                    continue
                evals += 1
                if (d > best_delta) if upper else (d < best_delta):
                    best_cfg, best_delta = batch.row(i), d
    signed = (bound - best_delta) if upper else (best_delta - bound)
    return SearchReport(
        verdict="SupremumGap",
        best_config=best_cfg,
        best_residual=signed,
        evals_used=evals,
        seed=budget.seed,
        supremum_gap=abs(signed),
        boundary_gap=boundary_gap,
    )


def counterexample_hunt(
    id: InequalityId,
    *,
    triple=None,
    alpha=None,
    r=None,
    s=None,
    budget: SearchBudget = SearchBudget(),
) -> SearchReport:
    """Minimize an inequality's relative residual over configurations.

    Random restarts draw samples log-uniformly and weights from a
    corner-favoring Dirichlet; each start is refined by coordinate descent
    in log coordinates (multiplicative moves keep samples positive and
    weights normalized) with step halving once no move improves.  Returns
    ViolationFound when the best relative residual clears the safety
    margin; otherwise the most adverse configuration seen, rebuilt from
    its log coordinates.  The restarts run in lockstep groups of at most
    _GROUP_FLOATS padded floats of state each, consecutive in restart
    order, and a group's first lowest score replaces the winner only if
    lower; so the report is that of one lockstep over all of them.
    Parameters are checked once, before any evaluation; a configuration
    the check cannot score (a bound argument out of range, a degenerate
    ratio) scores +inf.
    """
    id = InequalityId(id)
    params = resolve_params(id, triple=triple, alpha=alpha, r=r, s=s, force=True)
    lo_n, hi_n = budget.n_range
    weight_total = (lo_n + hi_n) * (hi_n - lo_n + 1) // 2
    sizes, indices, allowances = [], [], []  # indices: each restart's index within its n
    left = budget.max_evals  # the evaluations not yet given to a restart
    for n in range(lo_n, hi_n + 1):
        if not left:
            break
        per_restart = max(2, budget.max_evals * n // weight_total // budget.restarts)
        # Sequentially a restart gets min(per_restart, max_evals - evals so
        # far); counting each earlier restart at its allowance gives the same.
        # If no per_restart was raised to 2 by the outer max, they sum to at
        # most max_evals.  If one was, max_evals < weight_total * restarts, so
        # at every n per_restart <= max(2, n - 1) < 1 + 92 n, the fewest
        # evaluations of a descent that stops early (23 sweeps without a
        # move: 0.6 / 2**23 < 1e-7), and every restart uses its allowance.
        for k in range(min(budget.restarts, -(-left // per_restart))):  # those with evaluations
            sizes.append(n)
            indices.append(k)
            allowances.append(min(per_restart, left))
            left -= allowances[-1]
    used, best_rel, best_cfg = 0, math.inf, None
    for a, b in _groups(sizes):
        rngs = [_stream(budget.seed, n, k) for n, k in zip(sizes[a:b], indices[a:b])]
        g_used, g_f, u = _descend(id, params, sizes[a:b], rngs, allowances[a:b])
        used += int(g_used.sum())
        k = int(np.argmin(g_f))  # the group's first restart of its lowest score
        if best_cfg is None or g_f[k] < best_rel:  # an earlier group keeps a tie
            best_rel = float(g_f[k])
            best_cfg = _batch(u[k:k + 1], sizes[a + k:a + k + 1]).row(0)
    verdict = "ViolationFound" if best_rel < -VIOLATION_REL_TOL else "NoViolationFound"
    return SearchReport(
        verdict=verdict,
        best_config=best_cfg,
        best_residual=best_rel,
        evals_used=used,
        seed=budget.seed,
    )


def _groups(sizes):
    """Consecutive (start, stop) runs of the nondecreasing ``sizes``, each a
    single restart or of at most _GROUP_FLOATS padded floats, rows x 2 x its last size."""
    a = 0
    for b in range(1, len(sizes) + 1):
        if b == len(sizes) or (b + 1 - a) * 2 * sizes[b] > _GROUP_FLOATS:
            yield a, b
            a = b


def _batch(u: np.ndarray, sizes) -> ConfigurationBatch:
    """The configurations at log coordinates ``u``: row i holds ``sizes[i]`` log
    samples in its first half and as many weight logits in its second, then padding."""
    width = u.shape[1] // 2
    u = u.clip(-_LOG_CLIP, _LOG_CLIP)
    return ConfigurationBatch.from_log_coordinates(u[:, :width], u[:, width:], sizes)


def _descend(id, params, sizes, rngs, allowances):
    """Coordinate descent with adaptive step halving in log coordinates.

    One descent per stream, of the sample size in ``sizes``, each run to its
    entry in ``allowances``; returns the evaluations each used, its score,
    and its point as log coordinates (a row as :func:`_batch` reads it).  A
    sequential descent sweeps the coordinates in a fresh random order, tries
    +step then -step on each, moves at the first trial that improves and
    goes on to the next coordinate, and halves the step after a sweep
    without a move.  Here all descents, whatever their size, advance in
    lockstep, one coordinate per step: one padded batch evaluates, for every
    live descent, the two trials of its next coordinate from its current
    point.  If +step improves, the descent moves there and counts one trial;
    the -step trial was computed speculatively and is not counted.
    Otherwise it counts both trials (at most its remaining allowance) and
    moves to -step if that improves.  So counts, moves and results equal the
    sequential descent's.

    The state holds the live descents only, in order.  At step t a descent
    of size n is at t mod 2n in its sweep: equal sizes sweep together.
    """
    sizes = np.array(sizes)
    width = int(sizes.max())
    # Row k: log samples in columns [0, n), weight logits in [width, width + n).
    u_out = np.zeros((len(rngs), 2 * width))
    for k, (rng, n) in enumerate(zip(rngs, sizes.tolist())):
        u_out[k, :n] = rng.uniform(-math.log(50.0), math.log(50.0), n)
        u_out[k, width:width + n] = rng.normal(0.0, 1.5, n)
    f_out = relative_residuals(id, _batch(u_out, sizes), params)
    cap = np.array(allowances)
    used = np.ones(len(rngs), dtype=int)
    ids = np.flatnonzero(used < cap)
    u, f, left = u_out[ids], f_out[ids], cap[ids] - 1
    step = np.full(ids.size, _STEP0)
    moved = np.zeros(ids.size, dtype=bool)              # whether the current sweep has moved
    cols = np.zeros((ids.size, 2 * width), dtype=int)   # the current sweep's columns, in order
    t, runs = 0, []
    while True:
        starts = [(rows, n) for rows, n in runs if t % (2 * n) == 0]  # sweeps ending at t
        for rows, n in starts:
            step[rows][~moved[rows]] *= 0.5
            moved[rows] = False
        if t == 0 or starts or np.count_nonzero(left) < ids.size:
            done = (left == 0) | (step <= _MIN_STEP)
            if t == 0 or done.any():
                k = ids[done]
                used[k], f_out[k], u_out[k] = cap[k] - left[done], f[done], u[done]
                ids, u, f, left, step, moved, cols = (
                    a[~done] for a in (ids, u, f, left, step, moved, cols))
                if not ids.size:
                    return used, f_out, u_out
                size = sizes[ids]
                runs = _size_runs(size)
                starts = [(rows, n) for rows, n in runs if t % (2 * n) == 0]
                rows_at, pairs = np.arange(ids.size), np.repeat(size, 2)
        for rows, n in starts:                          # fresh coordinate orders
            perms = np.array([rngs[k].permutation(2 * n) for k in ids[rows].tolist()])
            cols[rows, :2 * n] = np.where(perms < n, perms, perms + (width - n))
        points = np.repeat(u, 2, axis=0)                # row 2i: +step, row 2i + 1: -step
        at = 4 * width * rows_at + cols[rows_at, t % (2 * size)]
        flat = points.reshape(-1)
        flat[at] += step
        flat[at + 2 * width] -= step
        f_t = relative_residuals(id, _batch(points, pairs), params)
        better = f_t.reshape(-1, 2) < f[:, None]
        first = np.where(better[:, 0], 0, np.where(better[:, 1], 1, 2))
        count = np.minimum(left, 2)
        left -= np.minimum(first + 1, count)
        h = np.flatnonzero(first < count)
        j = 2 * h + first[h]                            # the batch row each hit moves to
        u[h] = points[j]
        f[h] = f_t[j]
        moved[h] = True
        t += 1


class ProbeClaim(str, Enum):
    """Monotonicity claims checked by the sign of a slope."""

    SMALLEST_SAMPLE_SLOPE = "smallest-sample-slope"
    LARGEST_SAMPLE_SLOPE = "largest-sample-slope"
    WEIGHT_PARAM_SLOPE = "weight-param-slope"


# Each claim's proven range: whether it reads a, its test on (r, a), and the
# message when the test fails.
_PROBE_RANGES = {
    ProbeClaim.SMALLEST_SAMPLE_SLOPE: (
        True, lambda r, a: a is not None and 1.0 < r <= 2.0 and a > 0.0,
        "the smallest-sample slope needs 1 < r <= 2 and a > 0"),
    ProbeClaim.LARGEST_SAMPLE_SLOPE: (
        True, lambda r, a: a is not None and r >= 2.0 and 0.0 < a < 1.0,
        "the largest-sample slope needs r >= 2 and 0 < a < 1"),
    ProbeClaim.WEIGHT_PARAM_SLOPE: (
        False, lambda r, a: 0.5 < r <= 2.0, "the weight-parameter slope needs 1/2 < r <= 2"),
}


def _ratio_slope(config: Configuration, r: float, a: float, upper: bool) -> float:
    """The upper or lower ratio functional's slope in the smallest or largest sample.

    The functional (A^p - b^{(r-1)p/r} M_r^p) / G^p, with b = 1 - q and p = (1 + a) r
    (upper) or b = q and p = (1 - a) r (lower), is T_1 - T_2 with T_1 = (A/G)^p and
    T_2 = b^{(r-1)p/r} (M_r/G)^p, taken from the log-means, where the means' powers
    would overflow.  With d ln A = q_i/A, d ln G = q_i/x_i and d ln M_r =
    (q_i/x_i) (x_i/M_r)^r, its slope is p T_1 (d ln A - d ln G) - p T_2 (d ln M_r - d ln G).
    """
    m = config._means
    i, p, base = (0, (1.0 + a) * r, 1.0 - m.q) if upper else (-1, (1.0 - a) * r, m.q)
    lg, la, lr = map(m.log_mean, (0.0, 1.0, r))
    xi, qi = float(config.x[i]), float(config.q_weights[i])
    lx = math.log(xi)
    try:
        t1 = math.exp(p * (la - lg))
        t2 = math.exp((r - 1.0) * p / r * math.log(base) + p * (lr - lg))
    except OverflowError:
        raise DomainError("the ratio functional is past the float range here") from None
    # d ln A - d ln G = (q_i/x_i) (x_i/A - 1), and likewise for M_r
    return p * qi * (t1 * math.expm1(lx - la) - t2 * math.expm1(r * (lx - lr))) / xi


def finite_difference_probe(
    claim: ProbeClaim,
    config: Configuration,
    *,
    r: float,
    a: float | None = None,
) -> float:
    """The exact slope of a proof-driving functional, in closed form from the log-means.

    The public name is kept from when this was a finite difference.  The
    caller asserts the sign; the claims hold for parameters inside the
    corresponding proven ranges (upper: 1 < r <= 2 with a below the
    profile minimum; lower: r >= 2 with a below min(1 - 1/r, profile
    minimum); weight-parameter: 1/2 < r <= 2, and it takes no a).  Where
    the functional's two terms nearly cancel (samples many orders of
    magnitude apart), the slope is rounding noise and its sign unsettled.
    """
    claim = ProbeClaim(claim)
    r = _real(r, "r")
    a = None if a is None else _real(a, "a")
    if config.x[0] <= 0.0:
        raise DomainError("finite-difference probes need x_1 > 0")
    takes_a, in_range, message = _PROBE_RANGES[claim]
    if a is not None and not takes_a:
        raise DomainError(f"{claim.value} takes no parameter 'a'")
    if not in_range(r, a):
        raise DomainError(message)
    if claim is ProbeClaim.WEIGHT_PARAM_SLOPE:
        # half-mean-var-upper's lhs - rhs, M_{1/2} - w M_r - (1 - w) G - (1/2 - r w) sigma/(2 x_1)
        # with w = q^{2-1/r}, has the slope w' (G - M_r + r sigma / (2 x_1)) in q
        m = config._means
        return ((2.0 - 1.0 / r) * m.q ** (1.0 - 1.0 / r)
                * (m.mean(0.0) - m.mean(r) + r * m.sigma() / (2.0 * m.x1())))
    return _ratio_slope(config, r, a, claim is ProbeClaim.SMALLEST_SAMPLE_SLOPE)
