import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from meanineq import (
    CheckStatus,
    Configuration,
    DegenerateInput,
    DomainError,
    InequalityId,
    ProbeClaim,
    SearchBudget,
    c_constant,
    check,
    counterexample_hunt,
    delta,
    finite_difference_probe,
    sharpness_probe,
)
from meanineq import means, search
from meanineq.means import DeltaParams
from meanineq.search import _pinned_weights, _stream

TRIPLE = (1.0, 0.5, 0.0)


class TestSharpnessProbe:
    @pytest.mark.parametrize("q_target", [0.1, 0.25, 0.4, 0.5])
    def test_boundary_attains_the_bound(self, q_target):
        up = sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, alpha=1.0,
                             q_target=q_target, budget=SearchBudget(max_evals=2000, seed=7))
        lo = sharpness_probe(InequalityId.DIANANDA_LOWER, triple=TRIPLE, alpha=1.0,
                             q_target=q_target, budget=SearchBudget(max_evals=2000, seed=7))
        assert up.verdict == "SupremumGap"
        assert up.boundary_gap <= 1e-12
        assert lo.boundary_gap <= 1e-12
        assert up.supremum_gap <= 1e-12
        assert lo.supremum_gap <= 1e-12

    def test_boundary_values_are_the_constants(self):
        up = sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, alpha=1.0,
                             q_target=0.25, budget=SearchBudget(max_evals=10, seed=0))
        # weight 0.25 on the zero sample: the ratio equals C(0.75) = 4
        assert delta(Configuration([0.0, 1.0], [0.25, 0.75]),
                     DeltaParams(*TRIPLE, 1.0)) == pytest.approx(4.0, abs=1e-12)
        assert up.boundary_gap <= 1e-12
        lo_bound = c_constant(1.0, 0.5, 0.0, 0.25)
        assert lo_bound == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_equal_weights_coincide_at_two(self):
        # at q = 1/2 both constants equal 2 and every two-point config attains it
        up = sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, alpha=1.0,
                             q_target=0.5, budget=SearchBudget(max_evals=500, seed=1))
        lo = sharpness_probe(InequalityId.DIANANDA_LOWER, triple=TRIPLE, alpha=1.0,
                             q_target=0.5, budget=SearchBudget(max_evals=500, seed=1))
        bound = c_constant(1.0, 0.5, 0.0, 0.5)
        assert bound == pytest.approx(2.0, abs=1e-15)
        assert up.boundary_gap <= 1e-12 and lo.boundary_gap <= 1e-12

    def test_rejects_other_tags_and_bad_targets(self):
        with pytest.raises(DomainError):
            sharpness_probe(InequalityId.MG_SIGMA_UPPER, triple=TRIPLE, q_target=0.25)
        with pytest.raises(DomainError):
            sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, q_target=0.6)

    @pytest.mark.parametrize("q_target, message", [
        ("a", "q_target must be a finite real number, got 'a'"),
        (True, "q_target must be a finite real number, got True"),
        (None, "q_target must be a finite real number, got None"),
        (10**400, "q_target must be a finite real number, got inf"),
    ], ids=["string", "bool", "none", "past-float-range"])
    def test_q_target_is_read_as_a_real_number(self, q_target, message):
        # a string used to raise TypeError from the range comparison
        with pytest.raises(DomainError) as info:
            sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, q_target=q_target)
        assert str(info.value) == message

    def test_min_weight_pinning(self):
        report = sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, alpha=1.0,
                                 q_target=0.2, budget=SearchBudget(max_evals=3000, seed=5))
        assert report.best_config.min_weight == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("run", [
    lambda n_range: counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                        budget=SearchBudget(max_evals=40, n_range=n_range)),
    lambda n_range: sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, q_target=1e-7,
                                    budget=SearchBudget(max_evals=40, n_range=n_range)),
], ids=["hunt", "probe"])
def test_sizes_past_the_spent_budget_cost_nothing(run):
    # 40 evaluations are spent at the smallest sizes; the sizes past them are
    # summed in closed form and never visited
    want = run((2, 10**6)).to_json_dict()
    for n_max in (10**15, 2**64 - 1):
        start = time.perf_counter()
        assert run((2, n_max)).to_json_dict() == want
        assert time.perf_counter() - start < 0.5


class TestCounterexampleHunt:
    def test_finds_violation_beyond_upper_frontier(self):
        report = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                     budget=SearchBudget(max_evals=20_000, seed=0))
        assert report.verdict == "ViolationFound"
        confirm = check(InequalityId.MG_SIGMA_UPPER, report.best_config, r=2.5, force=True)
        assert confirm.status is CheckStatus.VIOLATED

    def test_finds_violation_beyond_lower_frontier(self):
        report = counterexample_hunt(InequalityId.MG_SIGMA_LOWER, r=3.5,
                                     budget=SearchBudget(max_evals=20_000, seed=0))
        assert report.verdict == "ViolationFound"
        confirm = check(InequalityId.MG_SIGMA_LOWER, report.best_config, r=3.5, force=True)
        assert confirm.status is CheckStatus.VIOLATED

    def test_no_violation_inside_frontier(self):
        report = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.0,
                                     budget=SearchBudget(max_evals=20_000, seed=0))
        assert report.verdict == "NoViolationFound"

    def test_a_hunt_keeps_only_each_descents_best_point(self):
        # Each descent's best point used to be kept as (batch, row), which
        # kept alive every trial batch a descent had moved in: the traced
        # peak at this budget was about 4 MiB, and the points alone keep it
        # near 1.4 MiB.
        budget = SearchBudget(max_evals=4000, seed=1, n_range=(2, 40), restarts=3)
        tracemalloc.start()
        try:
            report = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.evals_used == 3942
        assert peak < 2.5 * 2**20

    def test_weight_power_past_the_float_range_scores_inf(self):
        # (1 - q)^(2 - 1/r) overflows at r = 1e-9; the hunt used to raise OverflowError
        report = counterexample_hunt(InequalityId.HALF_MEAN_UPPER, r=1e-9,
                                     budget=SearchBudget(max_evals=200, restarts=2))
        assert report.verdict == "NoViolationFound"
        assert report.best_residual == math.inf

    def test_deterministic_reports(self):
        budget = SearchBudget(max_evals=5000, seed=9)
        a = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5, budget=budget)
        b = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5, budget=budget)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_budget_respected(self):
        report = counterexample_hunt(InequalityId.DIANANDA_BASE_UPPER,
                                     budget=SearchBudget(max_evals=3000, seed=2))
        assert report.evals_used <= 3000
        assert report.verdict == "NoViolationFound"

    def test_parameters_fail_before_any_evaluation(self, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("the hunt evaluated configurations")

        monkeypatch.setattr("meanineq.search.relative_residuals", no_evaluation)
        with pytest.raises(DomainError, match="mg-sigma-upper requires parameter 'r'"):
            counterexample_hunt(InequalityId.MG_SIGMA_UPPER, budget=SearchBudget(max_evals=300))
        with pytest.raises(DomainError, match="nonzero"):
            counterexample_hunt(InequalityId.MG_SIGMA_LOWER, r=0.0)
        with pytest.raises(DomainError, match="alpha must be positive"):
            counterexample_hunt(InequalityId.DIANANDA_UPPER, triple=TRIPLE, alpha=-1.0)
        with pytest.raises(DomainError, match="r must be a finite real number, got inf"):
            counterexample_hunt(InequalityId.MIX_VARIANCE_UPPER, r=math.inf)
        with pytest.raises(DomainError, match="an order must be a finite real number, got nan"):
            sharpness_probe(InequalityId.DIANANDA_UPPER, triple=(1.0, math.nan, 0.0),
                            q_target=0.25)

    def test_unscorable_configurations_give_a_verdict(self):
        # (1 - q)^alpha underflows to 0 at every configuration the hunt visits
        report = counterexample_hunt(InequalityId.DIANANDA_UPPER, triple=TRIPLE, alpha=1e6,
                                     budget=SearchBudget(max_evals=300, seed=0))
        assert report.verdict == "NoViolationFound"
        assert report.best_residual == math.inf
        assert report.evals_used == 280
        assert report.to_json_dict()["best_residual"] is None

    def test_restarts_beyond_the_budget_cost_nothing(self):
        # every restart uses an evaluation, so at most max_evals of them can
        # start, and the hunt builds no others
        start = time.perf_counter()
        huge = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                   budget=SearchBudget(max_evals=50, restarts=10**12))
        assert time.perf_counter() - start < 1.0
        fifty = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                    budget=SearchBudget(max_evals=50, restarts=50))
        assert huge.to_json_dict() == fifty.to_json_dict()

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            SearchBudget(max_evals=0)
        with pytest.raises(DomainError):
            SearchBudget(n_range=(1, 3))
        with pytest.raises(DomainError):
            SearchBudget(restarts=0)
        with pytest.raises(DomainError):
            SearchBudget(seed=-1)
        # a float budget used to crash the descent, float restarts, n_range or
        # seed raised TypeError mid-hunt, and True ran a one-evaluation hunt
        for bad in (dict(max_evals=50.5), dict(max_evals=True), dict(restarts=2.5),
                    dict(n_range=(2.5, 3)), dict(n_range=(2, 3.0)), dict(seed=1.5),
                    dict(seed=False)):
            with pytest.raises(DomainError, match="must be an integer"):
                SearchBudget(**bad)
        assert SearchBudget(max_evals=np.int64(5), seed=np.int64(3)).max_evals == 5


def sequential_hunt(id, budget, **params):
    """The hunt's definition: one restart after another, one trial at a time."""

    def objective(u, n):
        logx = np.clip(u[:n], -40.0, 40.0)
        logits = np.clip(u[n:], -40.0, 40.0)
        w = np.exp(logits - logits.max())
        cfg = Configuration(np.exp(logx), w / w.sum())
        try:
            rep = check(id, cfg, force=True, **params)
        except DomainError:
            return cfg, math.inf
        if rep.status is CheckStatus.DEGENERATE or math.isnan(rep.residual_rel):
            return cfg, math.inf
        return cfg, rep.residual_rel

    best_cfg, best_rel, evals = None, math.inf, 0
    lo_n, hi_n = budget.n_range
    weight_total = sum(range(lo_n, hi_n + 1))
    for n in range(lo_n, hi_n + 1):
        per_restart = max(2, max(1, budget.max_evals * n // weight_total) // budget.restarts)
        for k in range(budget.restarts):
            if evals >= budget.max_evals:
                break
            rng = _stream(budget.seed, n, k)
            u = np.concatenate([rng.uniform(-math.log(50.0), math.log(50.0), n),
                                rng.normal(0.0, 1.5, n)])
            allowance = min(per_restart, budget.max_evals - evals)
            cfg, f = objective(u, n)
            used, step = 1, 0.6
            while used < allowance and step > 1e-7:
                moved = False
                for i in rng.permutation(2 * n):
                    if used >= allowance:
                        break
                    for sign in (1.0, -1.0):
                        if used >= allowance:
                            break
                        trial = u.copy()
                        trial[i] += sign * step
                        cfg_t, f_t = objective(trial, n)
                        used += 1
                        if f_t < f:
                            u, f, cfg, moved = trial, f_t, cfg_t, True
                            break
                if not moved:
                    step *= 0.5
            evals += used
            if best_cfg is None or f < best_rel:
                best_cfg, best_rel = cfg, f
    return best_cfg, best_rel, evals


class TestLockstepHunt:
    """Lockstep restarts reproduce the sequential descent exactly."""

    @pytest.mark.parametrize("tag, params, budget", [
        (InequalityId.MG_SIGMA_UPPER, dict(r=2.5), 1),
        (InequalityId.MG_SIGMA_UPPER, dict(r=2.5), 7),
        (InequalityId.MG_SIGMA_UPPER, dict(r=2.5), 50),
        (InequalityId.MG_SIGMA_LOWER, dict(r=3.5), 400),
        (InequalityId.DIANANDA_UPPER, dict(triple=(1, 0.5, 0), alpha=2.0), 300),
        (InequalityId.HALF_MEAN_VAR_UPPER, dict(r=0.9), 300),
        # The hunt fixes each restart's allowance before any runs.  Here
        # per_restart is raised to 2 at n = 2, and the allowances sum to
        # max_evals exactly.
        (InequalityId.MG_SIGMA_LOWER, dict(r=3.5), 20),
        # None is raised, and the allowances (10, 15, 20 twice) sum to 90.
        pytest.param(InequalityId.HALF_MEAN_VAR_UPPER, dict(r=0.9),
                     dict(max_evals=90, n_range=(2, 4), restarts=2), id="exact-sum"),
        # One restart per n: max_evals * n // W is 0 at n = 2 and 3, and the
        # allowances (40 in all) run out at n = 17.
        pytest.param(InequalityId.MG_SIGMA_UPPER, dict(r=2.5),
                     dict(max_evals=38, n_range=(2, 17), restarts=1), id="one-restart"),
        # Raised at n = 2 to 7 only; the last restart at n = 17 is cut by one.
        pytest.param(InequalityId.DIANANDA_UPPER, dict(triple=(1, 0.5, 0), alpha=2.0),
                     dict(max_evals=125, n_range=(2, 17), restarts=3), id="raised-small-n"),
    ])
    def test_equals_the_sequential_definition(self, tag, params, budget):
        # an int is max_evals, at seed 3 with 5 restarts of n = 2 and 3
        fields = budget if isinstance(budget, dict) else dict(max_evals=budget)
        budget = SearchBudget(**{"seed": 3, "n_range": (2, 3), "restarts": 5, **fields})
        report = counterexample_hunt(tag, budget=budget, **params)
        cfg, rel, evals = sequential_hunt(tag, budget, **params)
        assert report.evals_used == evals <= budget.max_evals
        assert report.best_residual == rel
        assert report.best_config.to_json_dict() == cfg.to_json_dict()

    @pytest.mark.parametrize("tag, params", [
        (InequalityId.MG_SIGMA_LOWER, dict(r=3.5)),
        (InequalityId.MG_SIGMA_UPPER, dict(r=1e-3)),
        (InequalityId.DIANANDA_UPPER, dict(triple=(1, 0.5, 0), alpha=2.0)),
    ])
    # 1984 and 992: every restart uses its full allowance; 100: the budget
    # runs out one evaluation into the first restart at n = 17.  From n = 9
    # up, the best configuration has at least 9 samples.
    @pytest.mark.parametrize("n_range, max_evals, restarts, used", [
        ((2, 17), 2000, 2, 1984), ((2, 17), 100, 3, 100), ((9, 17), 1000, 2, 992)])
    def test_sizes_across_reduction_boundaries(self, tag, params, n_range, max_evals, restarts,
                                               used):
        # all sizes in one lockstep, padded to the largest: numpy's pairwise
        # sum regroups from 8 terms and the BLAS dot from 16
        budget = SearchBudget(max_evals=max_evals, seed=11, n_range=n_range, restarts=restarts)
        report = counterexample_hunt(tag, budget=budget, **params)
        cfg, rel, evals = sequential_hunt(tag, budget, **params)
        assert report.evals_used == evals == used
        assert report.best_residual == rel
        assert report.best_config.to_json_dict() == cfg.to_json_dict()

    def test_descents_stopping_at_min_step(self):
        # per-restart allowance 400: these descents converge and stop earlier
        budget = SearchBudget(max_evals=1600, seed=5, n_range=(2, 2), restarts=4)
        report = counterexample_hunt(InequalityId.DIANANDA_BASE_UPPER, budget=budget)
        cfg, rel, evals = sequential_hunt(InequalityId.DIANANDA_BASE_UPPER, budget)
        assert report.evals_used == evals == 367 + 295 + 399 + 284
        assert report.best_residual == rel
        assert report.best_config.to_json_dict() == cfg.to_json_dict()


# Reports recorded with the sequential implementation (one check() per
# trial, one restart after another).
GOLDEN = {
    "r2.5-violation": (
        lambda: counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                    budget=SearchBudget(max_evals=3000, seed=1)),
        {"verdict": "ViolationFound", "best_residual": -0.06684024307692682,
         "evals_used": 2980,
         "best_config": {"x": [0.36998908629964256, 14.860312211961379],
                         "q": [0.9997414366100746, 0.00025856338992528505]}}),
    "r3.5-violation": (
        lambda: counterexample_hunt(InequalityId.MG_SIGMA_LOWER, r=3.5,
                                    budget=SearchBudget(max_evals=3000, seed=1)),
        {"verdict": "ViolationFound", "best_residual": -0.003911745819721424,
         "evals_used": 2980,
         "best_config": {"x": [16.311872799907622, 25.182634420364057],
                         "q": [0.04823936279666739, 0.9517606372033326]}}),
    "budget-50": (
        lambda: counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                    budget=SearchBudget(max_evals=50, seed=0)),
        {"verdict": "NoViolationFound", "best_residual": 3.156565621513014e-05,
         "evals_used": 50,
         "best_config": {"x": [0.02999321997748457, 0.03593004055047384],
                         "q": [0.5471063725661405, 0.45289362743385947]}}),
    "min-step": (
        lambda: counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=1.5,
                                    budget=SearchBudget(max_evals=1680, seed=5,
                                                        n_range=(2, 2), restarts=4)),
        {"verdict": "NoViolationFound", "best_residual": -5.71361258370526e-15,
         "evals_used": 1671,
         "best_config": {"x": [8.068558562943714, 8.154929122734742],
                         "q": [0.9999999999979927, 2.007172349239209e-12]}}),
    "probe": (
        lambda: sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, alpha=1.0,
                                q_target=0.3, budget=SearchBudget(max_evals=2000, seed=4)),
        {"verdict": "SupremumGap", "best_residual": -1.7763568394002505e-15,
         "evals_used": 1954,
         "best_config": {"x": [0.0, 0.2311549086502307], "q": [0.3, 0.7]}}),
    # Batches up to n = 12, past the widths where numpy's sums and reduces
    # regroup their terms; recorded with per-size sums and numpy's row reduces.
    "n9-12-mg-sigma-upper": (
        lambda: counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                    budget=SearchBudget(max_evals=1500, n_range=(9, 12))),
        {"verdict": "NoViolationFound", "best_residual": 0.8299901719110953,
         "evals_used": 1460,
         "best_config": {
             "x": [0.07127490431874761, 0.0728797323180221, 0.07559562797420291,
                   0.08403525272323398, 0.2679943042220816, 0.4034141234255665,
                   0.588375347774557, 1.2671428711827981, 5.78928138511183],
             "q": [0.004336112851440529, 0.003739542934570947, 0.0046220947354983855,
                   0.8777595738975553, 0.011963479454021859, 0.0043340560235163505,
                   0.02344045051500089, 0.0664828321151088, 0.003321857473286973]}}),
    "n9-12-half-mean-var-lower": (
        lambda: counterexample_hunt(InequalityId.HALF_MEAN_VAR_LOWER, r=2.1,
                                    budget=SearchBudget(max_evals=1500, n_range=(9, 12))),
        {"verdict": "NoViolationFound", "best_residual": 0.28972265838561856,
         "evals_used": 1460,
         "best_config": {
             "x": [0.020414461692474222, 0.060263689472780636, 0.075738000670169,
                   0.09381920208799402, 0.10767650190502658, 0.18756738632831063,
                   0.3130241688106946, 0.356206252080773, 0.6865535126741694],
             "q": [0.019499046564003253, 0.7279898260923281, 0.02121641672332339,
                   0.18474670541771582, 0.004135591124282908, 0.004403910357610683,
                   0.0157872198213156, 0.0019525111735783298, 0.02026877272584201]}}),
    "probe-n2-10-upper": (
        lambda: sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, q_target=0.1,
                                budget=SearchBudget(max_evals=2000, n_range=(2, 10))),
        {"verdict": "SupremumGap", "best_residual": -5.329070518200751e-15,
         "evals_used": 728,
         "best_config": {"x": [0.0, 0.6037807861594441], "q": [0.1, 0.9]}}),
    "probe-n2-10-lower": (
        lambda: sharpness_probe(InequalityId.DIANANDA_LOWER, triple=TRIPLE, q_target=0.1,
                                budget=SearchBudget(max_evals=2000, n_range=(2, 10))),
        {"verdict": "SupremumGap", "best_residual": 0.0,
         "evals_used": 728,
         "best_config": {"x": [0.0, 1.0], "q": [0.9, 0.1]}}),
}


def sequential_probe(id, q_target, budget, triple=TRIPLE, alpha=1.0, degenerate=None):
    """The probe's definition: each restart's samples scored one at a time, in order.

    ``degenerate(cfg)`` marks further samples as unscorable.
    """
    upper = id is InequalityId.DIANANDA_UPPER
    params = DeltaParams(*triple, alpha)
    if upper:
        best_cfg = Configuration([0.0, 1.0], [q_target, 1.0 - q_target])
    else:
        best_cfg = Configuration([0.0, 1.0], [1.0 - q_target, q_target])
    best, evals = delta(best_cfg, params), 1
    lo_n, hi_n = budget.n_range
    feasible = [n for n in range(lo_n, hi_n + 1) if q_target <= 1.0 / n + 1e-12]
    for n in feasible:
        per_restart = max(1, max(1, budget.max_evals * n // sum(feasible)) // budget.restarts)
        for k in range(budget.restarts):
            if evals >= budget.max_evals:
                break
            rng = _stream(budget.seed, n, k)
            for _ in range(per_restart):
                if evals >= budget.max_evals:
                    break
                w = _pinned_weights(rng, n, q_target)
                if w is None:
                    break
                x = sorted(rng.random(n).tolist())
                if rng.random() < 0.5:
                    x[0] = 0.0
                if x[-1] - x[0] < 0.1 * x[-1] or x[-1] <= 0.0:
                    continue
                cfg = Configuration(x, w)
                try:
                    d = delta(cfg, params)
                except DegenerateInput:
                    continue
                if degenerate is not None and degenerate(cfg):
                    continue
                evals += 1
                if (d > best) if upper else (d < best):
                    best_cfg, best = cfg, d
    return best_cfg, best, evals


class TestBatchedProbe:
    """One batch per size reproduces the per-sample probe exactly."""

    @pytest.mark.parametrize("tag", [InequalityId.DIANANDA_UPPER, InequalityId.DIANANDA_LOWER])
    @pytest.mark.parametrize("q_target", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("seed, max_evals, restarts", [(0, 700, 6), (3, 150, 20), (8, 41, 4)])
    def test_equals_the_sequential_definition(self, tag, q_target, seed, max_evals, restarts):
        budget = SearchBudget(max_evals=max_evals, seed=seed, n_range=(2, 6), restarts=restarts)
        report = sharpness_probe(tag, triple=TRIPLE, q_target=q_target, budget=budget)
        cfg, best, evals = sequential_probe(tag, q_target, budget)
        assert report.evals_used == evals
        assert report.best_config.to_json_dict() == cfg.to_json_dict()
        if tag is InequalityId.DIANANDA_UPPER:
            bound = c_constant(*TRIPLE, 1.0 - q_target)
            assert report.best_residual == bound - best
        else:
            assert report.best_residual == best - c_constant(*TRIPLE, q_target)


    def test_degenerate_samples_leave_budget_to_later_restarts(self, monkeypatch):
        drawn = []
        stream, row_delta = search._stream, means._RowMeans.delta

        def recording(seed, n, k):
            drawn.append((n, k))
            return stream(seed, n, k)

        def marking(m, r, s, t, alpha):
            d = row_delta(m, r, s, t, alpha)
            d[m.xn() > 0.8] = np.nan
            return d

        monkeypatch.setattr(search, "_stream", recording)
        monkeypatch.setattr(means._RowMeans, "delta", marking)
        budget = SearchBudget(max_evals=12, seed=2, n_range=(2, 6), restarts=20)
        report = sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, q_target=0.1,
                                 budget=budget)
        cfg, best, evals = sequential_probe(InequalityId.DIANANDA_UPPER, 0.1, budget,
                                            degenerate=lambda cfg: cfg.x[-1] > 0.8)
        assert report.evals_used == evals == 12
        assert report.best_config.to_json_dict() == cfg.to_json_dict()
        # one sample per restart: the first batch drew 11 restarts for the
        # 11 evaluations left, and marked samples sent the probe back for 6
        # more; the budget was spent before n = 2 ran out of restarts
        assert drawn == [(2, k) for k in range(17)]

    @pytest.mark.parametrize("n, q_target", [(3, 0.3333333333333333), (4, 0.25), (5, 0.2)])
    @pytest.mark.parametrize("restarts", [10, 1000])
    def test_sizes_that_cannot_pin_the_weight_draw_no_restart(self, n, q_target, restarts,
                                                               monkeypatch):
        # at n * q_target = 1 the other weights would all have to equal q_target
        drawn = []
        stream = search._stream

        def recording(seed, n, k):
            drawn.append((n, k))
            return stream(seed, n, k)

        monkeypatch.setattr(search, "_stream", recording)
        budget = SearchBudget(max_evals=100, seed=1, n_range=(n, n), restarts=restarts)
        report = sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, q_target=q_target,
                                 budget=budget)
        assert drawn == []
        assert report.evals_used == 1

    @pytest.mark.parametrize("q_target", [1 / 3 - 1e-9, 1 / 3 - 1e-6])
    def test_sizes_that_almost_never_pin_the_weight_draw_no_restart(self, q_target,
                                                                   monkeypatch):
        # both free weights reach q_target with chance about 4.5e-9 or 4.5e-6
        # a draw, below search._MIN_PIN_CHANCE
        drawn = []
        stream = search._stream

        def recording(seed, n, k):
            drawn.append((n, k))
            return stream(seed, n, k)

        monkeypatch.setattr(search, "_stream", recording)
        budget = SearchBudget(max_evals=100, n_range=(3, 3), restarts=1000)
        report = sharpness_probe(InequalityId.DIANANDA_UPPER, triple=TRIPLE, q_target=q_target,
                                 budget=budget)
        assert drawn == []
        assert report.evals_used == 1


class TestGoldenTrajectories:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_report(self, name):
        run, want = GOLDEN[name]
        report = run()
        assert report.verdict == want["verdict"]
        assert report.evals_used == want["evals_used"]
        assert report.best_config.to_json_dict() == want["best_config"]
        assert report.best_residual == pytest.approx(want["best_residual"], rel=1e-15)


def dirichlet_pinned_weights(rng, n, q_target, max_tries=200):
    """The probe's weight sampler written with ``rng.dirichlet``."""
    ones = np.ones(n - 1)
    for _ in range(max_tries):
        draw = rng.dirichlet(ones)
        if (1.0 - q_target) * min(draw.tolist()) >= q_target - 1e-12:
            rest = (1.0 - q_target) * draw
            slot = int(rng.integers(n))
            w = np.empty(n)
            w[:slot] = rest[:slot]
            w[slot] = q_target
            w[slot + 1:] = rest[slot:]
            return w
    return None


class TestPinnedWeights:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_dirichlet_sampler(self, n):
        outcomes = set()
        for q_target in (0.01, 0.1, 0.5 / n, 1.0 / n):
            for seed in range(20):
                ours, ref = _stream(seed, n, 1), _stream(seed, n, 1)
                for _ in range(3):
                    got = _pinned_weights(ours, n, q_target)
                    want = dirichlet_pinned_weights(ref, n, q_target)
                    assert (got is None and want is None) or np.array_equal(got, want)
                    outcomes.add(got is None)
                assert ours.bit_generator.state == ref.bit_generator.state
        # both the accepting path and the 200-try give-up path ran; at n = 2
        # every draw is accepted, its one value being 1 up to rounding
        assert outcomes == ({False} if n == 2 else {True, False})


class TestSpeculation:
    def test_each_step_scores_at_most_two_rows_per_live_restart(self, monkeypatch):
        steps = []
        evaluate = search.relative_residuals

        def recording(id, batch, params):
            padding = batch.sizes[:, None] <= np.arange(batch.x.shape[1])
            steps.append((np.where(padding, np.nan, batch.x), batch.sizes.copy()))
            return evaluate(id, batch, params)

        monkeypatch.setattr(search, "relative_residuals", recording)
        run, want = GOLDEN["r2.5-violation"]
        assert run().evals_used == want["evals_used"]
        # one lockstep for n = 2, 3 and 4, where one descent per n in turn
        # would make 99 to 102 evaluation calls
        assert len(steps) <= 45
        assert any(len(set(sizes.tolist())) > 1 for _, sizes in steps[1:])
        for x, sizes in steps:
            # a restart's trials step one log sample or one weight logit of
            # its point, so they share all its samples but at most one;
            # distinct restarts share none
            shared = (x[:, None, :, None] == x[None, :, None, :]).any(axis=3).sum(axis=2)
            shared = (shared >= sizes[:, None] - 1) & (sizes[:, None] == sizes[None, :])
            restarts = np.unique(shared.argmax(axis=1)).size
            assert x.shape[0] <= 2 * restarts


    @pytest.mark.parametrize("max_evals, rows", [(7, 10), (50, 75)])
    def test_small_budgets_score_only_counted_restarts(self, monkeypatch, max_evals, rows):
        # allowances are fixed before the lockstep, so no restart runs past its own
        scored = []
        evaluate = search.relative_residuals

        def counting(id, batch, params):
            scored.append(len(batch.sizes))
            return evaluate(id, batch, params)

        monkeypatch.setattr(search, "relative_residuals", counting)
        report = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5,
                                     budget=SearchBudget(max_evals=max_evals))
        assert report.evals_used == max_evals
        assert sum(scored) == rows


class TestGroupedHunt:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("tag, params", [
        (InequalityId.MG_SIGMA_UPPER, dict(r=2.5)),
        (InequalityId.MG_SIGMA_LOWER, dict(r=3.5)),
        (InequalityId.DIANANDA_UPPER, dict(triple=TRIPLE, alpha=2.0)),
    ])
    def test_groups_give_the_one_group_report(self, tag, params, seed, monkeypatch):
        # descents are independent and a row's score does not depend on the
        # padding, so cutting the restarts into groups moves no report
        groups = []
        descend = search._descend

        def recording(id, params, sizes, rngs, allowances):
            groups.append(sizes)
            return descend(id, params, sizes, rngs, allowances)

        monkeypatch.setattr(search, "_descend", recording)
        budget = SearchBudget(max_evals=3000, seed=seed, n_range=(2, 12))
        whole = json.dumps(counterexample_hunt(tag, budget=budget, **params).to_json_dict())
        [sizes] = groups
        # 72 groups, of at most 12 restarts at n = 2 and 2 at n = 12; four of
        # these six winners come from the second group
        monkeypatch.setattr(search, "_GROUP_FLOATS", 2 * 12 * 2)
        groups.clear()
        grouped = json.dumps(counterexample_hunt(tag, budget=budget, **params).to_json_dict())
        assert len(groups) >= 3
        assert all(len(g) * 2 * max(g) <= 2 * 12 * 2 for g in groups)
        assert [n for g in groups for n in g] == sizes
        assert grouped == whole

    def test_an_earlier_group_wins_a_tie(self, monkeypatch):
        # Fixed scores: the lowest, -1, is tied between groups 1 and 3, and
        # every restart's point is a distinct row.
        calls = []

        def fixed(id, params, sizes, rngs, allowances):
            g, rows = len(calls), len(sizes)
            used = np.arange(1, rows + 1) + 10 * g
            f = np.full(rows, 0.5)
            f[1] = -0.5
            if g in (1, 3):
                f[2 if g == 1 else 0] = -1.0
            u = np.zeros((rows, 2 * max(sizes)))
            u[:, 0] = g + 0.1 * np.arange(rows)
            calls.append((used, u))
            return used, f, u

        monkeypatch.setattr(search, "_descend", fixed)
        monkeypatch.setattr(search, "_GROUP_FLOATS", 4 * 2 * 2)  # four restarts of n = 2
        report = counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=2.5, budget=SearchBudget(
            max_evals=3000, n_range=(2, 2)))
        assert len(calls) == 5
        assert report.best_residual == -1.0
        assert report.evals_used == sum(int(used.sum()) for used, _ in calls)
        for g, row, wins in ((1, 2, True), (3, 0, False)):
            cfg = search._batch(calls[g][1][row:row + 1], [2]).row(0)
            same = (cfg.x.tobytes(), cfg.q_weights.tobytes()) == (
                report.best_config.x.tobytes(), report.best_config.q_weights.tobytes())
            assert same == wins


class TestLogCoordinateRows:
    @pytest.mark.parametrize("scale", [1.5, 20.0])
    def test_each_row_equals_its_one_row_batch(self, scale):
        # the hunt rebuilds its winner alone from the row the descent scored
        rng = np.random.default_rng(29)
        for width in range(2, 13):
            sizes = rng.integers(2, width + 1, 60)
            u = rng.normal(0.0, 5.0, (60, 2 * width))  # the padding too
            for i, n in enumerate(sizes.tolist()):
                u[i, :n] = rng.uniform(-40.0, 40.0, n)
                u[i, width:width + n] = rng.normal(0.0, scale, n)
            batch = search._batch(u, sizes)
            for i, n in enumerate(sizes.tolist()):
                row = batch.row(i)
                own = np.concatenate([u[i, :n], u[i, width:width + n]])
                for alone in (search._batch(u[i:i + 1], sizes[i:i + 1]).row(0),
                              search._batch(own[None], [n]).row(0)):
                    assert alone.x.tobytes() == row.x.tobytes()
                    assert alone.q_weights.tobytes() == row.q_weights.tobytes()


class TestFiniteDifferenceProbes:
    CFG = Configuration([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])

    def test_upper_functional_slope_nonnegative(self):
        value = finite_difference_probe(ProbeClaim.SMALLEST_SAMPLE_SLOPE, self.CFG,
                                        r=1.5, a=0.05)
        assert value >= -1e-8

    def test_lower_functional_slope_nonnegative(self):
        value = finite_difference_probe(ProbeClaim.LARGEST_SAMPLE_SLOPE, self.CFG,
                                        r=3.0, a=0.1)
        assert value >= -1e-8

    def test_weight_parameter_slope_nonnegative(self):
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        value = finite_difference_probe(ProbeClaim.WEIGHT_PARAM_SLOPE, cfg, r=1.0)
        assert value >= -1e-8

    def test_random_configs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            x = np.sort(np.exp(rng.normal(0.0, 0.8, n)))
            cfg = Configuration(x, rng.dirichlet(np.ones(n)))
            up = finite_difference_probe(ProbeClaim.SMALLEST_SAMPLE_SLOPE, cfg,
                                         r=float(rng.uniform(1.1, 2.0)), a=0.01)
            assert up >= -1e-7
            down = finite_difference_probe(ProbeClaim.WEIGHT_PARAM_SLOPE, cfg,
                                           r=float(rng.uniform(0.6, 2.0)))
            assert down >= -1e-7

    @pytest.mark.parametrize("claim, r, a", [(ProbeClaim.SMALLEST_SAMPLE_SLOPE, 1.5, 0.05),
                                             (ProbeClaim.LARGEST_SAMPLE_SLOPE, 3.0, 0.1)],
                             ids=["smallest", "largest"])
    def test_ratio_functional_is_scale_free(self, claim, r, a):
        # the functional has degree 0, so its slope in a sample has degree -1;
        # at the scale 1e200 the means' powers used to raise OverflowError
        value = finite_difference_probe(claim, self.CFG, r=r, a=a)
        scaled = finite_difference_probe(claim, self.CFG.scaled(1e200), r=r, a=a)
        assert scaled * 1e200 == pytest.approx(value, rel=1e-11)
        assert math.isfinite(finite_difference_probe(
            ProbeClaim.SMALLEST_SAMPLE_SLOPE, Configuration([1.0, 1e200], [0.5, 0.5]), r=1.5,
            a=0.1))

    def test_a_probe_builds_no_configuration(self, monkeypatch):
        # the slopes are read off the configuration's log-means; a finite
        # difference used to build four perturbed configurations per call
        built = []
        monkeypatch.setattr(Configuration, "__post_init__", lambda cfg: built.append(cfg))
        for claim, r, a in ((ProbeClaim.SMALLEST_SAMPLE_SLOPE, 1.5, 0.05),
                            (ProbeClaim.LARGEST_SAMPLE_SLOPE, 3.0, 0.1),
                            (ProbeClaim.WEIGHT_PARAM_SLOPE, 1.0, None)):
            finite_difference_probe(claim, self.CFG, r=r, a=a)
        assert built == []

    def test_ratio_functional_past_the_float_range_is_refused(self):
        cfg = Configuration([1.0, 1e200], [0.5, 0.5])
        with pytest.raises(DomainError, match="^the ratio functional is past the float range"):
            finite_difference_probe(ProbeClaim.SMALLEST_SAMPLE_SLOPE, cfg, r=1.5, a=100.0)

    @pytest.mark.parametrize("claim, r, a, message", [
        (ProbeClaim.SMALLEST_SAMPLE_SLOPE, "1", 0.05, "r must be a finite real number, got '1'"),
        (ProbeClaim.WEIGHT_PARAM_SLOPE, None, None, "r must be a finite real number, got None"),
        (ProbeClaim.LARGEST_SAMPLE_SLOPE, 3.0, "0.1",
         "a must be a finite real number, got '0.1'"),
        (ProbeClaim.SMALLEST_SAMPLE_SLOPE, 1.5, 10**400,
         "a must be a finite real number, got inf"),
        (ProbeClaim.SMALLEST_SAMPLE_SLOPE, 1.5, math.inf,
         "a must be a finite real number, got inf"),
        (ProbeClaim.LARGEST_SAMPLE_SLOPE, 3.0, math.nan,
         "a must be a finite real number, got nan"),
    ], ids=["string-r", "none-r", "string-a", "a-past-float-range", "infinite-a", "nan-a"])
    def test_parameters_are_read_as_real_numbers(self, claim, r, a, message):
        # '1' and a string a used to raise TypeError, 10**400 OverflowError,
        # and a = inf passed the smallest-sample range test
        with pytest.raises(DomainError) as info:
            finite_difference_probe(claim, self.CFG, r=r, a=a)
        assert str(info.value) == message

    def test_integer_parameters_read_as_their_floats(self):
        for claim, r, a in ((ProbeClaim.SMALLEST_SAMPLE_SLOPE, 2, 0.05),
                            (ProbeClaim.LARGEST_SAMPLE_SLOPE, 3, 0.1),
                            (ProbeClaim.WEIGHT_PARAM_SLOPE, 1, None)):
            assert finite_difference_probe(claim, self.CFG, r=r, a=a) == \
                finite_difference_probe(claim, self.CFG, r=float(r), a=a)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            finite_difference_probe(ProbeClaim.SMALLEST_SAMPLE_SLOPE, self.CFG, r=3.0, a=0.1)
        with pytest.raises(DomainError):
            finite_difference_probe(ProbeClaim.LARGEST_SAMPLE_SLOPE, self.CFG, r=1.5, a=0.1)
        with pytest.raises(DomainError):
            finite_difference_probe(ProbeClaim.WEIGHT_PARAM_SLOPE, self.CFG, r=2.5)
        # the weight-parameter slope used to ignore a
        with pytest.raises(DomainError, match="^weight-param-slope takes no parameter 'a'$"):
            finite_difference_probe(ProbeClaim.WEIGHT_PARAM_SLOPE, self.CFG, r=1.0, a=0.3)
        zero_cfg = Configuration([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            finite_difference_probe(ProbeClaim.WEIGHT_PARAM_SLOPE, zero_cfg, r=1.0)
