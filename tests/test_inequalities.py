import copy
import dataclasses
import gc
import hashlib
import inspect
import json
import math
import pickle
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from meanineq import (
    CheckReport,
    CheckStatus,
    Configuration,
    DegenerateInput,
    DeltaParams,
    DomainError,
    InequalityId,
    SearchBudget,
    check,
    counterexample_hunt,
    delta,
    equality_witness,
    mean_value,
    power_mean,
    r0_value,
    sharpness_probe,
    variance_sigma,
)

from meanineq import inequalities, log_power_mean, means
from meanineq.inequalities import relative_residuals, resolve_params
from meanineq.means import ConfigurationBatch

from conftest import pinned_config, rst_table_rows, sample_config

BASE_TRIPLE = (1.0, 0.5, 0.0)


class TestCheckExamples:
    def test_diananda_upper_three_point(self):
        cfg = Configuration([1.0, 4.0, 9.0], [1 / 3, 1 / 3, 1 / 3])
        rep = check(InequalityId.DIANANDA_UPPER, cfg, triple=BASE_TRIPLE, alpha=1.0)
        assert rep.status is CheckStatus.HOLDS
        assert rep.lhs == pytest.approx(2.0471, abs=1e-4)  # the ratio
        assert rep.rhs == pytest.approx(3.0, abs=1e-12)  # C(2/3)
        assert rep.q_used == pytest.approx(1 / 3)

    def test_diananda_lower_boundary_equality(self):
        cfg = Configuration([0.0, 1.0], [0.75, 0.25])
        rep = check(InequalityId.DIANANDA_LOWER, cfg, triple=BASE_TRIPLE, alpha=1.0)
        assert rep.status is CheckStatus.EQUALITY
        assert rep.rhs == pytest.approx(4.0 / 3.0, abs=1e-13)
        assert rep.lhs == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_cartwright_field_upper_hand_values(self):
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        rep = check(InequalityId.CARTWRIGHT_FIELD_UPPER, cfg, r=1.0, s=0.0)
        assert rep.status is CheckStatus.HOLDS
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)  # A - G
        assert rep.rhs == pytest.approx(1.125, abs=1e-12)  # sigma / (2 x_1)

    def test_half_mean_var_lower_constant_equality(self):
        cfg = Configuration([2.0, 2.0, 2.0], [0.5, 0.25, 0.25])
        rep = check(InequalityId.HALF_MEAN_VAR_LOWER, cfg, r=1.5)
        assert rep.status is CheckStatus.EQUALITY

    def test_degenerate_for_ratio_tags_only(self):
        cfg = Configuration([3.0, 3.0], [0.5, 0.5])
        rep = check(InequalityId.DIANANDA_UPPER, cfg, triple=BASE_TRIPLE, alpha=1.0)
        assert rep.status is CheckStatus.DEGENERATE
        rep = check(InequalityId.DIANANDA_BASE_UPPER, cfg)
        assert rep.status is CheckStatus.EQUALITY

    @pytest.mark.parametrize("tag, params", [
        (InequalityId.DIANANDA_UPPER, dict(triple=(0, 1, 0.5))),
        (InequalityId.DIANANDA_LOWER, dict(triple=(2, 0, 1), alpha=3)),
    ])
    def test_degenerate_report_echoes_the_resolved_params(self, tag, params):
        cfg = Configuration([3.0, 3.0], [0.5, 0.5])
        rep = check(tag, cfg, **params)
        assert rep.status is CheckStatus.DEGENERATE
        assert rep.params == resolve_params(tag, **params)
        assert rep.params == check(tag, Configuration([1.0, 3.0], [0.5, 0.5]), **params).params


class TestReportContract:
    def test_residual_orientation_and_scaling(self, rng):
        for _ in range(100):
            cfg = sample_config(rng)
            rep = check(InequalityId.DIANANDA_BASE_LOWER, cfg)
            assert rep.residual == pytest.approx(rep.rhs - rep.lhs, abs=1e-15)
            scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
            assert rep.residual_rel == pytest.approx(rep.residual / scale, rel=1e-12)

    def test_json_keys_are_stable(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        payload = check(InequalityId.MG_SIGMA_UPPER, cfg, r=1.5).to_json_dict()
        assert list(payload.keys()) == [
            "id", "params", "lhs", "rhs", "residual", "residual_rel", "status", "q",
        ]
        json.dumps(payload)  # serializable

    def test_degenerate_serializes_nans_as_null(self):
        cfg = Configuration([1.0, 1.0], [0.5, 0.5])
        payload = check(InequalityId.DIANANDA_UPPER, cfg, triple=BASE_TRIPLE,
                        alpha=1.0).to_json_dict()
        assert payload["lhs"] is None
        assert payload["status"] == "Degenerate"

    def test_report_is_a_frozen_value(self):
        cfg = Configuration([1.0, 2.0, 4.0], [0.25, 0.25, 0.5])
        rep = check("mg-sigma-upper", cfg, r=1.5)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "id", "params", "lhs", "rhs", "residual", "residual_rel", "status", "q_used"]
        assert rep.id is InequalityId.MG_SIGMA_UPPER and rep.status is CheckStatus.HOLDS
        assert rep == check(InequalityId.MG_SIGMA_UPPER, cfg, r=1.5)
        assert pickle.loads(pickle.dumps(rep)) == rep == copy.deepcopy(rep)
        assert repr(rep) == (
            "CheckReport(id=<InequalityId.MG_SIGMA_UPPER: 'mg-sigma-upper'>, params={'r': 1.5}, "
            f"lhs={rep.lhs!r}, rhs={rep.rhs!r}, residual={rep.residual!r}, "
            f"residual_rel={rep.residual_rel!r}, status=<CheckStatus.HOLDS: 'Holds'>, "
            "q_used=0.25)")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.lhs = 0.0
        assert dataclasses.replace(rep, lhs=0.0) == CheckReport(
            rep.id, rep.params, 0.0, rep.rhs, rep.residual, rep.residual_rel, rep.status, 0.25)

    def test_unknown_tag_is_the_enum_error(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        for bad in ("nope", ["diananda-upper"], "DIANANDA_BASE_UPPER"):
            with pytest.raises(ValueError, match="is not a valid InequalityId"):
                check(bad, cfg)
            with pytest.raises(ValueError, match="is not a valid InequalityId"):
                resolve_params(bad)

    def test_q_used_is_min_weight(self, rng):
        for _ in range(50):
            cfg = sample_config(rng)
            rep = check(InequalityId.DIANANDA_BASE_UPPER, cfg)
            assert rep.q_used == cfg.min_weight


class TestHypotheses:
    def test_range_violations_raise(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            check(InequalityId.MIX_VARIANCE_UPPER, cfg, r=1.5)
        with pytest.raises(DomainError):
            check(InequalityId.MIX_VARIANCE_LOWER, cfg, r=3.0)
        with pytest.raises(DomainError):
            check(InequalityId.HALF_MEAN_LOWER, cfg, r=1.5)
        with pytest.raises(DomainError):
            check(InequalityId.HALF_MEAN_UPPER, cfg, r=0.8)
        with pytest.raises(DomainError):
            check(InequalityId.HALF_MEAN_VAR_UPPER, cfg, r=0.5)
        with pytest.raises(DomainError):
            check(InequalityId.HALF_MEAN_VAR_LOWER, cfg, r=2.5)
        with pytest.raises(DomainError):
            check(InequalityId.DIANANDA_UPPER, cfg, triple=BASE_TRIPLE, alpha=-1.0)

    def test_zero_smallest_sample_rejected_when_divided_by(self):
        cfg = Configuration([0.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            check(InequalityId.MG_SIGMA_UPPER, cfg, r=1.0)
        with pytest.raises(DomainError):
            check(InequalityId.CARTWRIGHT_FIELD_LOWER, cfg, r=1.0, s=0.0)

    def test_force_overrides_ranges(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        rep = check(InequalityId.MIX_VARIANCE_UPPER, cfg, r=1.5, force=True)
        assert rep.status in (CheckStatus.HOLDS, CheckStatus.VIOLATED, CheckStatus.EQUALITY)

    def test_missing_parameter_named(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError, match="'r'"):
            check(InequalityId.MG_SIGMA_UPPER, cfg)

    # The parameters each tag takes, and a value for each parameter.
    TAKES = {InequalityId.DIANANDA_UPPER: ("triple", "alpha"),
             InequalityId.DIANANDA_LOWER: ("triple", "alpha"),
             InequalityId.DIANANDA_BASE_UPPER: (), InequalityId.DIANANDA_BASE_LOWER: (),
             InequalityId.CARTWRIGHT_FIELD_LOWER: ("r", "s"),
             InequalityId.CARTWRIGHT_FIELD_UPPER: ("r", "s")}
    VALUES = {"triple": (1.0, 0.5, 0.0), "alpha": 1.0, "r": 1.5, "s": 0.5}

    @pytest.mark.parametrize("tag", list(InequalityId))
    def test_parameters_the_tag_does_not_take_are_refused(self, tag):
        cfg = Configuration([1.0, 2.0, 4.0], [0.25, 0.25, 0.5])
        takes = self.TAKES.get(tag, ("r",))
        params = {key: self.VALUES[key] for key in takes}
        check(tag, cfg, force=True, **params)  # its own parameters pass
        for key in self.VALUES.keys() - set(takes):
            message = f"^{tag.value} takes no parameter '{key}'$"
            for force in (False, True):
                with pytest.raises(DomainError, match=message):
                    check(tag, cfg, force=force, **params, **{key: self.VALUES[key]})
                with pytest.raises(DomainError, match=message):
                    resolve_params(tag, force=force, **params, **{key: self.VALUES[key]})
        with pytest.raises(DomainError, match=f"^{tag.value} takes no parameter"):
            counterexample_hunt(tag, **params, **{k: v for k, v in self.VALUES.items()
                                                  if k not in takes})

    def test_an_unused_parameter_is_named(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError, match="^diananda-base-upper takes no parameter 'r'$"):
            check(InequalityId.DIANANDA_BASE_UPPER, cfg, r=7)
        with pytest.raises(DomainError, match="^mg-sigma-upper takes no parameter 'triple'$"):
            check(InequalityId.MG_SIGMA_UPPER, cfg, r=1.0, s=None, triple=BASE_TRIPLE)
        # one extra beside a missing parameter: the missing one is named
        with pytest.raises(DomainError, match="^mg-sigma-upper requires parameter 'r'$"):
            check(InequalityId.MG_SIGMA_UPPER, cfg, s=0.5)

    def _refusal(self, tag, given) -> str | None:
        """The rule's message for the parameters ``given``, or None if it accepts them.

        It reads triple, alpha, r and s in that order and names the first one
        the tag takes but is missing (alpha may be left out) or is given but
        the tag does not take.
        """
        takes = self.TAKES.get(tag, ("r",))
        for key in self.VALUES:
            if key in given and key not in takes:
                return f"{tag.value} takes no parameter '{key}'"
            if key not in given and key in takes and key != "alpha":
                return f"{tag.value} requires parameter '{key}'"
        return None

    # every subset of the four parameters, on every tag; among them the
    # Diananda tags' {triple, r} and {triple, s} were accepted with the extra
    # one ignored, and the Cartwright-Field tags' {alpha, r} named s
    @pytest.mark.parametrize("given", [
        keys for n in range(5) for keys in combinations(("triple", "alpha", "r", "s"), n)],
        ids=lambda keys: "+".join(keys) or "none")
    @pytest.mark.parametrize("tag", list(InequalityId))
    def test_the_parameter_rule(self, tag, given, monkeypatch):
        cfg = Configuration([1.0, 2.0, 4.0], [0.25, 0.25, 0.5])
        params = {key: self.VALUES[key] for key in given}
        budget = SearchBudget(max_evals=10)
        message = self._refusal(tag, given)
        if message is None:
            report = check(tag, cfg, force=True, **params)
            assert report.params == resolve_params(tag, force=True, **params)
            assert counterexample_hunt(tag, budget=budget, **params).evals_used <= 10
            return

        def no_evaluation(*args):
            raise AssertionError("the hunt evaluated before it refused")

        monkeypatch.setattr("meanineq.search.relative_residuals", no_evaluation)
        for call in (lambda: check(tag, cfg, force=True, **params),
                     lambda: resolve_params(tag, force=True, **params),
                     lambda: counterexample_hunt(tag, budget=budget, **params)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()

    def test_tolerances_must_be_finite_and_nonnegative(self):
        cfg = Configuration([1.0, 1.0], [0.5, 0.5])
        for bad in (math.nan, math.inf, -1.0):
            for key in ("rel_tol", "abs_floor"):
                message = ("rel_tol and abs_floor" if bad == -1.0
                           else f"^{key} must be a finite real number, got ")
                with pytest.raises(DomainError, match=message):
                    check(InequalityId.DIANANDA_BASE_LOWER, cfg, **{key: bad})
        assert check(InequalityId.DIANANDA_BASE_LOWER, cfg, rel_tol=0.0,
                     abs_floor=0.0).status is CheckStatus.EQUALITY

    @pytest.mark.parametrize("bad", [True, "a", 1e-9j], ids=["bool", "text", "complex"])
    def test_tolerances_must_be_numbers(self, bad):
        # "a" used to raise TypeError, and True was read as 1.0 (reporting Equality here).
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        for key in ("rel_tol", "abs_floor"):
            with pytest.raises(DomainError, match=f"^{key} must be a finite real number, got "):
                check(InequalityId.DIANANDA_BASE_UPPER, cfg, **{key: bad})
        default = check(InequalityId.DIANANDA_BASE_UPPER, cfg)
        assert check(InequalityId.DIANANDA_BASE_UPPER, cfg, rel_tol=None,
                     abs_floor=None) == default


class TestBaseCase:
    def test_random_suite(self, rng):
        # Smaller replica of the acceptance run (which does 1e5).
        for _ in range(10_000):
            cfg = sample_config(rng, zero_prob=0.25)
            up = check(InequalityId.DIANANDA_BASE_UPPER, cfg)
            lo = check(InequalityId.DIANANDA_BASE_LOWER, cfg)
            assert up.residual_rel >= -1e-12
            assert lo.residual_rel >= -1e-12


class TestGeneralTripleAtUnitExponent:
    def test_upper_for_small_orders(self, rng):
        for _ in range(2000):
            r = rng.uniform(1.0 + 1e-6, 2.0)
            rep = check(InequalityId.DIANANDA_UPPER, sample_config(rng, zero_prob=0.2),
                        triple=(1.0, 1.0 / r, 0.0), alpha=1.0)
            if rep.status is not CheckStatus.DEGENERATE:
                assert rep.residual_rel >= -1e-9

    def test_lower_for_large_orders(self, rng):
        for _ in range(2000):
            r = rng.uniform(2.0, 5.0)
            rep = check(InequalityId.DIANANDA_LOWER, sample_config(rng, zero_prob=0.2),
                        triple=(1.0, 1.0 / r, 0.0), alpha=1.0)
            if rep.status is not CheckStatus.DEGENERATE:
                assert rep.residual_rel >= -1e-9


class TestSharpExponentBoundary:
    R = 2.5
    Q = 0.25

    def test_holds_at_the_exact_threshold(self, rng):
        alpha = 1.0 / (self.Q * self.R)
        for _ in range(2000):
            n = int(rng.integers(2, 4))
            cfg = pinned_config(rng, n, self.Q, zero_prob=0.3)
            if cfg is None:
                continue
            rep = check(InequalityId.DIANANDA_UPPER, cfg,
                        triple=(1.0, 1.0 / self.R, 0.0), alpha=alpha)
            if rep.status is not CheckStatus.DEGENERATE:
                assert rep.residual_rel >= -1e-9

    def test_hunter_finds_violations_five_percent_above(self):
        alpha = 1.05 / (self.Q * self.R)
        report = counterexample_hunt(
            InequalityId.DIANANDA_UPPER,
            triple=(1.0, 1.0 / self.R, 0.0),
            alpha=alpha,
            budget=SearchBudget(max_evals=100_000, seed=3),
        )
        assert report.verdict == "ViolationFound"
        confirm = check(InequalityId.DIANANDA_UPPER, report.best_config,
                        triple=(1.0, 1.0 / self.R, 0.0), alpha=alpha, force=True)
        assert confirm.status is CheckStatus.VIOLATED


class TestMeanDifferenceBounds:
    def test_cartwright_field_sandwich(self, rng):
        for _ in range(2000):
            cfg = sample_config(rng)
            lo = check(InequalityId.CARTWRIGHT_FIELD_LOWER, cfg, r=1.0, s=0.0)
            up = check(InequalityId.CARTWRIGHT_FIELD_UPPER, cfg, r=1.0, s=0.0)
            assert lo.residual_rel >= -1e-9
            assert up.residual_rel >= -1e-9

    def test_mg_sigma_inside_the_frontier(self, rng):
        for _ in range(2000):
            cfg = sample_config(rng)
            up = check(InequalityId.MG_SIGMA_UPPER, cfg, r=rng.uniform(0.01, 2.0))
            lo = check(InequalityId.MG_SIGMA_LOWER, cfg, r=rng.uniform(1.0, 3.0))
            assert up.residual_rel >= -1e-9
            assert lo.residual_rel >= -1e-9


class TestRecastEquivalence:
    def test_half_mean_var_upper_rearranged(self, rng):
        # M_{1/2} - G - sigma/(4 x_1) <= q^{2-1/r} (M_r - G - r sigma/(2 x_1))
        # is the same inequality regrouped; residuals agree to 1e-12.
        for _ in range(500):
            cfg = sample_config(rng)
            r = rng.uniform(r0_value(), 1.0)
            rep = check(InequalityId.HALF_MEAN_VAR_UPPER, cfg, r=r)
            q = cfg.min_weight
            w = q ** (2.0 - 1.0 / r)
            sigma = variance_sigma(cfg)
            x1 = float(cfg.x[0])
            g = power_mean(cfg, 0.0)
            lhs = power_mean(cfg, 0.5) - g - sigma / (4.0 * x1)
            rhs = w * (power_mean(cfg, r) - g - r * sigma / (2.0 * x1))
            scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
            assert (rhs - lhs) == pytest.approx(rep.residual, abs=1e-12 * scale)


class TestHalfMeanCombos:
    def test_lower_range(self, rng):
        for _ in range(1500):
            cfg = sample_config(rng, zero_prob=0.2)
            rep = check(InequalityId.HALF_MEAN_LOWER, cfg, r=rng.uniform(0.5 + 1e-9, 1.0))
            assert rep.residual_rel >= -1e-9

    def test_upper_range(self, rng):
        for _ in range(1500):
            cfg = sample_config(rng, zero_prob=0.2)
            rep = check(InequalityId.HALF_MEAN_UPPER, cfg, r=rng.uniform(1.0, 6.0))
            assert rep.residual_rel >= -1e-9

    def test_mix_variance_ranges(self, rng):
        for _ in range(1500):
            cfg = sample_config(rng)
            up = check(InequalityId.MIX_VARIANCE_UPPER, cfg, r=rng.uniform(2.0, 6.0))
            lo = check(InequalityId.MIX_VARIANCE_LOWER, cfg, r=rng.uniform(1.0 + 1e-9, 2.0))
            assert up.residual_rel >= -1e-9
            assert lo.residual_rel >= -1e-9


class TestEqualityWitness:
    def test_constant_samples(self):
        cfg = Configuration([2.0, 2.0], [0.5, 0.5])
        for tag in InequalityId:
            assert equality_witness(tag, cfg)

    def test_half_mean_var_upper_special_point(self):
        cfg = Configuration([1.0, 4.0], [0.5, 0.5])
        assert equality_witness(InequalityId.HALF_MEAN_VAR_UPPER, cfg, r=1.0)
        assert not equality_witness(InequalityId.HALF_MEAN_VAR_UPPER, cfg, r=0.9)
        rep = check(InequalityId.HALF_MEAN_VAR_UPPER, cfg, r=1.0)
        assert rep.status is CheckStatus.EQUALITY

    def test_boundary_configs(self):
        upper_cfg = Configuration([0.0, 1.0], [0.25, 0.75])
        lower_cfg = Configuration([0.0, 1.0], [0.75, 0.25])
        assert equality_witness(InequalityId.DIANANDA_UPPER, upper_cfg)
        assert not equality_witness(InequalityId.DIANANDA_UPPER, lower_cfg)
        assert equality_witness(InequalityId.DIANANDA_LOWER, lower_cfg)
        assert not equality_witness(InequalityId.DIANANDA_LOWER, upper_cfg)

    def test_tag_without_a_documented_case(self):
        cfg = Configuration([0.0, 1.0], [0.25, 0.75])
        assert equality_witness(InequalityId.DIANANDA_UPPER, cfg)
        assert equality_witness(InequalityId.MG_SIGMA_UPPER, cfg, r=1.0) is False

    @pytest.mark.parametrize("tag", list(InequalityId))
    def test_r_is_refused_by_a_tag_that_does_not_take_it(self, tag):
        # diananda-upper used to accept r=5 and report this configuration a witness
        cfg = Configuration([0.0, 1.0], [0.3, 0.7])
        if "r" in TestHypotheses.TAKES.get(tag, ("r",)):
            assert equality_witness(tag, cfg, r=1.0) is False
        else:
            with pytest.raises(DomainError, match=f"^{tag.value} takes no parameter 'r'$"):
                equality_witness(tag, cfg, r=5)
            assert equality_witness(tag, cfg) is (tag is InequalityId.DIANANDA_UPPER
                                                  or tag is InequalityId.DIANANDA_BASE_UPPER)

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_base_bounds_two_point_configs(self, q):
        # the minimum weight on the zero (upper) or positive (lower) sample
        on_zero = Configuration([0.0, 2.0], [q, 1.0 - q])
        on_pos = Configuration([0.0, 2.0], [1.0 - q, q])
        for tag, cfg, other in ((InequalityId.DIANANDA_BASE_UPPER, on_zero, on_pos),
                                (InequalityId.DIANANDA_BASE_LOWER, on_pos, on_zero)):
            rep = check(tag, cfg)
            assert rep.status is CheckStatus.EQUALITY and abs(rep.residual) <= 1e-15
            assert equality_witness(tag, cfg)
            assert equality_witness(tag, other) is (q == 0.5)

    def test_generic_config_is_not_a_witness(self):
        cfg = Configuration([1.0, 4.0, 9.0], [1 / 3, 1 / 3, 1 / 3])
        rep = check(InequalityId.DIANANDA_UPPER, cfg, triple=BASE_TRIPLE, alpha=1.0)
        assert rep.status is CheckStatus.HOLDS and rep.residual > 1e-3
        assert not equality_witness(InequalityId.DIANANDA_UPPER, cfg)


def test_equality_witness_takes_only_the_order_and_a_tolerance():
    # triple, alpha and s were accepted and never read
    cfg = Configuration([0.0, 1.0], [0.25, 0.75])
    for key in ("triple", "alpha", "s"):
        with pytest.raises(TypeError):
            equality_witness(InequalityId.DIANANDA_UPPER, cfg, **{key: 1.0})
    assert {id for id, tag in inequalities._CATALOG.items() if tag.witness is not None} == {
        InequalityId.DIANANDA_UPPER, InequalityId.DIANANDA_LOWER,
        InequalityId.DIANANDA_BASE_UPPER, InequalityId.DIANANDA_BASE_LOWER,
        InequalityId.HALF_MEAN_VAR_UPPER}


class TestParametersAreRealNumbers:
    """Tag parameters and tolerances are read as real numbers, in the checks and the searches."""

    CFG = Configuration([1.0, 4.0], [0.25, 0.75])
    BIG = 10**400  # an integer past the float range
    BUDGET = SearchBudget(max_evals=10, restarts=1)

    def test_integer_tolerance_past_the_float_range(self):
        # used to raise OverflowError at rel_tol * scale
        with pytest.raises(DomainError, match="^rel_tol must be a finite real number, got inf$"):
            check(InequalityId.DIANANDA_BASE_UPPER, self.CFG, rel_tol=self.BIG)

    @pytest.mark.parametrize("bad", ["2", True], ids=["text", "bool"])
    def test_order_must_be_a_real_number(self, bad):
        # "2" and True used to be read as 2.0 and 1.0
        with pytest.raises(DomainError, match="^r must be a finite real number, got "):
            check(InequalityId.MG_SIGMA_UPPER, self.CFG, r=bad)
        with pytest.raises(DomainError, match="^r must be a finite real number, got "):
            counterexample_hunt(InequalityId.MG_SIGMA_UPPER, r=bad, budget=self.BUDGET)

    @pytest.mark.parametrize("tag, params", [
        (InequalityId.MG_SIGMA_UPPER, {"r": BIG}),
        (InequalityId.DIANANDA_UPPER, {"triple": BASE_TRIPLE, "alpha": BIG}),
        (InequalityId.DIANANDA_UPPER, {"triple": (BIG, 0.5, 0)}),
    ], ids=["r", "alpha", "triple"])
    def test_integer_past_the_float_range_is_not_finite(self, tag, params):
        # each used to raise OverflowError, in the check, the hunt and the probe
        with pytest.raises(DomainError, match="finite"):
            check(tag, self.CFG, **params)
        with pytest.raises(DomainError, match="finite"):
            counterexample_hunt(tag, **params, budget=self.BUDGET)
        if "triple" in params:
            with pytest.raises(DomainError, match="finite"):
                sharpness_probe(tag, q_target=0.3, **params, budget=self.BUDGET)

    @pytest.mark.parametrize("triple, message", [
        ((1, 0.5), r"^diananda-upper needs a triple of three orders \(got \(1, 0\.5\)\)$"),
        (("a", 0.5, 0), "^an order must be a finite real number, got 'a'$"),
    ], ids=["two-orders", "text"])
    def test_triple_holds_three_real_numbers(self, triple, message):
        # both used to raise TypeError
        with pytest.raises(DomainError, match=message):
            check(InequalityId.DIANANDA_UPPER, self.CFG, triple=triple)
        with pytest.raises(DomainError, match=message):
            sharpness_probe(InequalityId.DIANANDA_UPPER, triple=triple, q_target=0.3,
                            budget=self.BUDGET)


# Two parameter sets per tag: one inside the stated hypotheses and one
# outside them (evaluated under force), so residuals of both signs occur.
# mg-sigma-lower also takes an order inside the expm1 band of the power sums.
BATCH_PARAMS = {
    InequalityId.DIANANDA_UPPER: [dict(triple=(1, 0.5, 0), alpha=1.5),
                                  dict(triple=(3, 1, 0.2), alpha=0.3)],
    InequalityId.DIANANDA_LOWER: [dict(triple=(1, 0.3, 0), alpha=0.5),
                                  dict(triple=(2, 0.7, 0.1), alpha=4.0)],
    InequalityId.DIANANDA_BASE_UPPER: [{}],
    InequalityId.DIANANDA_BASE_LOWER: [{}],
    InequalityId.MIX_VARIANCE_UPPER: [dict(r=3.0), dict(r=0.5)],
    InequalityId.MIX_VARIANCE_LOWER: [dict(r=1.5), dict(r=-2.0)],
    InequalityId.CARTWRIGHT_FIELD_LOWER: [dict(r=1.5, s=0.5), dict(r=1.0, s=0.0)],
    InequalityId.CARTWRIGHT_FIELD_UPPER: [dict(r=1.5, s=-0.5), dict(r=5e-9, s=0.0)],
    InequalityId.MG_SIGMA_LOWER: [dict(r=3.5), dict(r=0.01), dict(r=-1.0)],
    InequalityId.MG_SIGMA_UPPER: [dict(r=2.5), dict(r=5e-9)],
    InequalityId.HALF_MEAN_LOWER: [dict(r=0.7), dict(r=3.0)],
    InequalityId.HALF_MEAN_UPPER: [dict(r=2.0), dict(r=-0.5)],
    InequalityId.HALF_MEAN_VAR_UPPER: [dict(r=0.8), dict(r=3.0)],
    InequalityId.HALF_MEAN_VAR_LOWER: [dict(r=1.5), dict(r=0.3)],
}


def _batch_groups(widest: int = 8):
    """30 seeded configurations for each n = 2..widest, as one batch per n.

    Every fifth has a zero sample, every seventh is constant (a 0/0
    ratio), every eleventh ties its two smallest samples, and every
    thirteenth has a weight of 1e-200, which pushes the three-mean bound
    arguments out of (0, 1).
    """
    rng = np.random.default_rng(20240811)
    groups = []
    for n in range(2, widest + 1):
        configs = []
        for i in range(30):
            x = np.exp(rng.normal(0.0, 2.0, n))
            q = rng.dirichlet(np.full(n, 0.5))
            if i % 5 == 0:
                x[np.argmin(x)] = 0.0
            if i % 7 == 0:
                x[:] = x[0]
            if i % 11 == 0:
                x[1] = x[0]
            if i % 13 == 0:
                q[0] = 1e-200
            q = np.maximum(q, 1e-300)
            configs.append(Configuration(x, q / q.sum()))
        batch = ConfigurationBatch(np.array([c.x for c in configs]),
                                   np.array([c.q_weights for c in configs]))
        groups.append((configs, batch))
    return groups


class TestBatchEvaluation:
    GROUPS = _batch_groups()
    WIDE_GROUPS = _batch_groups(12)

    @staticmethod
    def assert_rows_equal_check(tag, groups):
        signs = set()
        for params in BATCH_PARAMS[tag]:
            resolved = resolve_params(tag, force=True, **params)
            for configs, batch in groups:
                rows = relative_residuals(tag, batch, resolved).tolist()
                for cfg, got in zip(configs, rows):
                    try:
                        rep = check(tag, cfg, force=True, **params)
                    except DomainError:
                        assert got == math.inf
                        continue
                    if rep.status is CheckStatus.DEGENERATE:
                        assert got == math.inf
                    else:
                        assert got == rep.residual_rel, (params, cfg)
                        signs.add(math.copysign(1.0, got))
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("tag", list(InequalityId))
    def test_rows_equal_check(self, tag):
        self.assert_rows_equal_check(tag, self.GROUPS)

    @pytest.mark.parametrize("tag", list(InequalityId))
    def test_padded_rows_equal_check(self, tag):
        # every size n = 2..12 in one batch, rows in a seeded order, samples
        # descending (ties kept in order); padding that sorted first or
        # entered a sum would show, and so would a reduce that regroups its
        # terms from 8 of them
        configs = [cfg for group, _ in self.WIDE_GROUPS for cfg in group]
        configs = [configs[i] for i in np.random.default_rng(7).permutation(len(configs))]
        x = np.full((len(configs), 12), -1.0)
        q = np.full((len(configs), 12), np.nan)
        for i, cfg in enumerate(configs):
            descending = np.argsort(-cfg.x, kind="stable")
            x[i, :cfg.n] = cfg.x[descending]
            q[i, :cfg.n] = cfg.q_weights[descending]
        batch = ConfigurationBatch(x, q, [cfg.n for cfg in configs])
        assert [batch.row(i).to_json_dict() for i in range(len(configs))] == \
            [cfg.to_json_dict() for cfg in configs]
        self.assert_rows_equal_check(tag, [(configs, batch)])

    def test_parameters_checked_once_without_a_configuration(self):
        with pytest.raises(DomainError, match="'r'"):
            resolve_params(InequalityId.MG_SIGMA_UPPER, force=True)
        with pytest.raises(DomainError, match="r >= 2"):
            resolve_params(InequalityId.MIX_VARIANCE_UPPER, r=1.5)
        assert resolve_params(InequalityId.MIX_VARIANCE_UPPER, r=1.5, force=True) == {"r": 1.5}
        with pytest.raises(DomainError, match="alpha must be positive"):
            resolve_params(InequalityId.DIANANDA_UPPER, triple=BASE_TRIPLE, alpha=0.0,
                           force=True)

    @pytest.mark.parametrize("tag, params, message", [
        (InequalityId.MIX_VARIANCE_UPPER, dict(r=math.inf),
         "r must be a finite real number, got inf"),
        (InequalityId.MG_SIGMA_UPPER, dict(r=math.nan), "r must be a finite real number, got nan"),
        (InequalityId.CARTWRIGHT_FIELD_UPPER, dict(r=1.0, s=-math.inf),
         "s must be a finite real number, got -inf"),
        (InequalityId.CARTWRIGHT_FIELD_LOWER, dict(r=math.inf, s=0.0),
         "r must be a finite real number, got inf"),
        (InequalityId.DIANANDA_UPPER, dict(triple=(math.nan, 0.5, 0.0)),
         "an order must be a finite real number, got nan"),
        (InequalityId.DIANANDA_LOWER, dict(triple=BASE_TRIPLE, alpha=math.inf),
         "alpha must be a finite real number, got inf"),
    ])
    def test_non_finite_parameters_rejected(self, tag, params, message):
        # at r = inf, mix-variance-upper used to report Equality
        with pytest.raises(DomainError, match=message):
            resolve_params(tag, force=True, **params)
        with pytest.raises(DomainError, match=message):
            check(tag, Configuration([1.0, 2.0], [0.5, 0.5]), force=True, **params)

    @pytest.mark.parametrize("tag, cfg, alpha", [
        # (1 - q)^(1/s - 1/r) rounds to 1 at q = 1e-14
        (InequalityId.DIANANDA_UPPER, Configuration([1e-8, 1e8], [1 - 1e-14, 1e-14]), None),
        # q^alpha lies just below 1 and its power rounds to 1
        (InequalityId.DIANANDA_LOWER, Configuration([1.0, 4.0], [0.5, 0.5]), 1e-15),
    ])
    def test_vanishing_constant_denominator_is_degenerate(self, tag, cfg, alpha):
        triple = (1, 0.999, 0)
        rep = check(tag, cfg, triple=triple, alpha=alpha)
        assert rep.status is CheckStatus.DEGENERATE
        params = resolve_params(tag, triple=triple, alpha=alpha, force=True)
        batch = ConfigurationBatch(cfg.x[None], cfg.q_weights[None])
        assert relative_residuals(tag, batch, params).tolist() == [math.inf]


    @pytest.mark.parametrize("tag, r", [
        # q^(2 - 1/r) = 0.1^-998 and (1 - q)^(2 - 1/r) = 0.9^(2 - 1e9) overflow;
        # check used to raise OverflowError
        (InequalityId.HALF_MEAN_LOWER, 0.001),
        (InequalityId.HALF_MEAN_UPPER, 1e-9),
    ])
    def test_weight_power_past_the_float_range_is_degenerate(self, tag, r):
        cfg = Configuration([1.0, 2.0, 3.0], [0.1, 0.3, 0.6])
        rep = check(tag, cfg, r=r, force=True)
        assert rep.status is CheckStatus.DEGENERATE
        assert math.isnan(rep.residual)
        params = resolve_params(tag, r=r, force=True)
        batch = ConfigurationBatch(cfg.x[None], cfg.q_weights[None])
        assert relative_residuals(tag, batch, params).tolist() == [math.inf]

    @pytest.mark.parametrize("tag, params", [
        (InequalityId.DIANANDA_BASE_UPPER, {}),
        (InequalityId.HALF_MEAN_UPPER, {"r": 2.0}),
        (InequalityId.MG_SIGMA_UPPER, {"r": 1.5}),
    ])
    def test_mean_past_the_float_range_is_degenerate(self, tag, params):
        # weights summing to 1 + 5e-13, which a configuration accepts, put M_1
        # past the float range; check used to raise OverflowError from math.exp
        huge = Configuration([1.7976931348623157e308] * 2, [0.5, 0.5 + 5e-13])
        plain = Configuration([1.0, 3.0], [0.25, 0.75])
        with np.errstate(over="ignore"):  # sigma overflows too (ROADMAP direction 13)
            rep = check(tag, huge, **params)
        assert rep.status is CheckStatus.DEGENERATE
        assert math.isnan(rep.residual)
        # the overflowing row takes the batch's slow path; the other keeps its bits
        batch = ConfigurationBatch(np.array([huge.x, plain.x]),
                                   np.array([huge.q_weights, plain.q_weights]))
        rows = relative_residuals(tag, batch, resolve_params(tag, **params)).tolist()
        assert rows == [math.inf, check(tag, plain, **params).residual_rel]

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("r, s", [(1.0, 1.0), (1.0, 2.0)])
    def test_mean_difference_bounds_need_r_above_s(self, r, s, force):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError, match=r"^the mean-difference bounds need r > s$"):
            check(InequalityId.CARTWRIGHT_FIELD_UPPER, cfg, r=r, s=s, force=force)


@pytest.mark.parametrize("run", [
    lambda: check("mix-variance-upper", Configuration([1, 2], [0.5, 0.5]), r=1e-310, force=True),
    lambda: counterexample_hunt("mix-variance-lower", r=-1e-310,
                                budget=SearchBudget(max_evals=40)),
], ids=["check", "hunt"])
def test_mix_variance_refuses_an_overflowing_inverse_order_by_name(run):
    # M_{1/r} needs a finite 1/r; a subnormal r is a valid order, so the
    # message names the derived order, on the scalar and the batch path alike
    with pytest.raises(DomainError, match=r"^1/r must be a finite real number, got -?inf$"):
        run()


# What a catalog formula may read of a formula record; a record for another
# number type (decimal, mpmath) implements the same names.
RECORD_INTERFACE = {"q", "log_mean", "mean", "sigma", "x1", "xn", "delta", "bound", "pow", "div"}


class _InterfaceOnly:
    """A formula record seen through the record interface; any other name fails."""

    def __init__(self, record):
        object.__setattr__(self, "record", record)

    def __getattribute__(self, name):
        if name not in RECORD_INTERFACE:
            raise AssertionError(f"a formula read {name!r} of its record")
        return getattr(object.__getattribute__(self, "record"), name)


class TestFormulaRecords:
    @pytest.mark.parametrize("record", [means._Means, means._RowMeans])
    def test_records_give_exactly_the_interface(self, record):
        assert {name for name in dir(record) if not name.startswith("_")} == RECORD_INTERFACE
        assert list(inspect.signature(record.delta).parameters) == ["self", "r", "s", "t",
                                                                    "alpha"]

    @pytest.mark.parametrize("tag", list(InequalityId))
    def test_sides_read_only_the_interface(self, tag):
        configs, batch = TestBatchEvaluation.GROUPS[2]
        for params in BATCH_PARAMS[tag]:
            resolved = resolve_params(tag, force=True, **params)
            sides = inequalities._CATALOG[tag].sides
            rows = sides(_InterfaceOnly(means._RowMeans(batch)), resolved)
            assert all(len(side) == len(configs) for side in rows)
            for cfg in configs:
                try:
                    sides(_InterfaceOnly(means._Means(cfg)), resolved)
                except (DegenerateInput, DomainError):
                    pass


def _outcome(tag, cfg, params) -> str:
    """``check`` under force as a string (or its error); equal strings mean equal bits."""
    try:
        return repr(check(tag, cfg, force=True, **params))
    except DomainError as exc:
        return f"DomainError: {exc}"


class TestSharedMeansRecord:
    """Checks on a configuration other tags have used report as on a fresh one."""

    ROUNDS = [
        {tag: sets[0] for tag, sets in BATCH_PARAMS.items()},
        {tag: sets[-1] for tag, sets in BATCH_PARAMS.items()},
        dict({tag: sets[0] for tag, sets in BATCH_PARAMS.items()}, **{
            # an order in the expm1 band, signed zero orders, negative orders
            InequalityId.MG_SIGMA_UPPER: dict(r=1e-9),
            InequalityId.CARTWRIGHT_FIELD_UPPER: dict(r=1.0, s=-0.0),
            InequalityId.CARTWRIGHT_FIELD_LOWER: dict(r=1.0, s=0.0),
            InequalityId.DIANANDA_UPPER: dict(triple=(1, 0.5, -0.0)),
            InequalityId.DIANANDA_LOWER: dict(triple=(1, 0.5, 0.0)),
            InequalityId.MG_SIGMA_LOWER: dict(r=-2.0),
            InequalityId.HALF_MEAN_UPPER: dict(r=-1.0),
        }),
    ]

    @pytest.mark.parametrize("round", range(len(ROUNDS)))
    def test_reports_equal_those_of_a_fresh_configuration(self, round):
        params = self.ROUNDS[round]
        tags = list(InequalityId)
        rng = np.random.default_rng(round)
        for configs, _ in TestBatchEvaluation.GROUPS:
            for cfg in configs:
                shared = Configuration(cfg.x, cfg.q_weights)
                # the second pass finds the record filled by all the other tags
                for _ in range(2):
                    for i in rng.permutation(len(tags)).tolist():
                        tag = tags[i]
                        fresh = Configuration(cfg.x, cfg.q_weights)
                        assert _outcome(tag, shared, params[tag]) == \
                            _outcome(tag, fresh, params[tag]), (tag, cfg)

    # parameters inside each tag's hypotheses
    INSIDE = {
        InequalityId.DIANANDA_UPPER: dict(triple=(1, 0.6, 0), alpha=1.2),
        InequalityId.DIANANDA_LOWER: dict(triple=(1, 0.3, 0), alpha=0.5),
        InequalityId.DIANANDA_BASE_UPPER: {},
        InequalityId.DIANANDA_BASE_LOWER: {},
        InequalityId.MIX_VARIANCE_UPPER: dict(r=3.0),
        InequalityId.MIX_VARIANCE_LOWER: dict(r=1.5),
        InequalityId.CARTWRIGHT_FIELD_LOWER: dict(r=1.5, s=0.5),
        InequalityId.CARTWRIGHT_FIELD_UPPER: dict(r=1.0, s=0.0),
        InequalityId.MG_SIGMA_LOWER: dict(r=2.0),
        InequalityId.MG_SIGMA_UPPER: dict(r=1.5),
        InequalityId.HALF_MEAN_LOWER: dict(r=0.7),
        InequalityId.HALF_MEAN_UPPER: dict(r=2.0),
        InequalityId.HALF_MEAN_VAR_UPPER: dict(r=0.8),
        InequalityId.HALF_MEAN_VAR_LOWER: dict(r=1.5),
    }

    def _serve_every_tag(self, cfg):
        for tag in InequalityId:
            assert check(tag, cfg, **self.INSIDE[tag]).status is CheckStatus.HOLDS

    def test_shared_orders_and_logs_are_computed_once(self, monkeypatch):
        orders = []
        compute = means._log_power_mean

        def recording(q, logx, r):
            orders.append(r)
            return compute(q, logx, r)

        class CountingLog:
            """numpy as the means module sees it, counting np.log calls."""

            calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def log(self, *args, **kwargs):
                CountingLog.calls += 1
                return np.log(*args, **kwargs)

        monkeypatch.setattr(means, "_log_power_mean", recording)
        monkeypatch.setattr(means, "np", CountingLog())
        self._serve_every_tag(Configuration([0.5, 1.0, 2.0, 7.0], [0.1, 0.2, 0.3, 0.4]))
        assert sorted(r for r in orders if r in (0.0, 0.5, 1.0)) == [0.0, 0.5, 1.0]
        assert CountingLog.calls == 1

    def test_one_record_serves_every_reader(self, monkeypatch):
        built = []
        init = means._Means.__init__

        def counting(record, *args):
            built.append(record)
            init(record, *args)

        monkeypatch.setattr(means._Means, "__init__", counting)
        cfg = Configuration([0.5, 1.0, 2.0, 7.0], [0.1, 0.2, 0.3, 0.4])
        self._serve_every_tag(cfg)
        for r in (0.0, 2.5):
            log_power_mean(cfg, r)
            power_mean(cfg, r)
            mean_value(cfg, r)
        variance_sigma(cfg)
        delta(cfg, DeltaParams(1.0, 0.5, 0.0))
        assert built == [cfg._means]
        assert set(vars(cfg)) == {"x", "q_weights", "min_weight", "_means"}

    def test_a_served_configuration_is_freed_by_refcount(self):
        cfg = Configuration([0.5, 1.0, 2.0, 7.0], [0.1, 0.2, 0.3, 0.4])
        self._serve_every_tag(cfg)
        record = weakref.ref(cfg._means)
        gc.disable()
        try:
            del cfg
            assert record() is None  # a reference cycle would keep it until a collection
        finally:
            gc.enable()


class TestRecordConstruction:
    def test_each_configuration_builds_one_record(self, monkeypatch):
        built = []
        init = means._Means.__init__

        def counting(record, config):
            built.append(record)
            init(record, config)

        monkeypatch.setattr(means._Means, "__init__", counting)
        configs, _ = TestBatchEvaluation.GROUPS[2]
        shared = [Configuration(cfg.x, cfg.q_weights) for cfg in configs]
        for cfg in shared:
            for tag in InequalityId:
                _outcome(tag, cfg, BATCH_PARAMS[tag][0])
            for r in (0.0, 0.5, 2.5):
                log_power_mean(cfg, r)
                power_mean(cfg, r)
                mean_value(cfg, r)
            variance_sigma(cfg)
            try:
                delta(cfg, DeltaParams(1.0, 0.5, 0.0))
            except DegenerateInput:
                pass
        assert built == [cfg._means for cfg in shared]


def _scalar_configs():
    """112 seeded configurations, 16 for each n = 2..8.

    Every fourth has a zero sample, every fifth ties its two smallest
    samples, every seventh is constant and every sixth has a 1e-200 weight.
    """
    rng = np.random.default_rng(1919)
    configs = []
    for n in range(2, 9):
        for i in range(16):
            x = np.exp(rng.normal(0.0, 2.0, n))
            q = rng.dirichlet(np.full(n, 0.5))
            if i % 4 == 0:
                x[np.argmin(x)] = 0.0
            if i % 5 == 1:
                x[1] = x[0]
            if i % 7 == 2:
                x[:] = x[0]
            if i % 6 == 3:
                q[0] = 1e-200
            q = np.maximum(q, 1e-300)
            configs.append(Configuration(x, q / q.sum()))
    return configs


# Orders of both signs inside the expm1 band of the power sums (|r| < 0.05)
# and at its edge, the record's fixed orders and their sign twin, and wide
# orders; a negative order on a zero sample gives -inf.
SCALAR_ORDERS = [0.0, -0.0, 0.5, 1.0, 1e-9, -1e-9, 0.01, -0.03, 0.0499, -0.0499, 0.05, -0.05,
                 0.37, -0.8, 2.0, -3.0, 12.5, -40.0]


def _scalar_params(tag, rng) -> list[dict]:
    """Three parameter sets for one tag: two drawn, one with an order in the expm1 band."""
    if tag in (InequalityId.DIANANDA_UPPER, InequalityId.DIANANDA_LOWER):
        return [dict(triple=tuple(rng.choice(np.linspace(0.0, 3.0, 13), 3, replace=False)),
                     alpha=float(rng.uniform(0.1, 4.0))) for _ in range(2)] + [
            dict(triple=(1.0, 0.02, 0.0), alpha=1.0)]
    if tag in (InequalityId.DIANANDA_BASE_UPPER, InequalityId.DIANANDA_BASE_LOWER):
        return [{}]
    if tag in (InequalityId.CARTWRIGHT_FIELD_LOWER, InequalityId.CARTWRIGHT_FIELD_UPPER):
        r, s = sorted(rng.uniform(-3.0, 6.0, 2).tolist(), reverse=True)
        return [dict(r=r, s=s), dict(r=1.0, s=1e-9), dict(r=0.03, s=-0.02)]
    r = float(rng.uniform(-3.0, 6.0))
    return [dict(r=r if r else 1.0), dict(r=1e-9), dict(r=-0.02)]


def _scalar_check_outcomes(tag) -> list[str]:
    """``check`` under force of one tag on every scalar configuration."""
    rng = np.random.default_rng([1919, list(InequalityId).index(tag)])
    out = []
    for cfg in _scalar_configs():
        for params in _scalar_params(tag, rng):
            try:
                rep = check(tag, cfg, force=True, **params)
            except DomainError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
            else:
                out.append(f"{rep.status.value} {rep.residual_rel!r}")
    return out


def _short_sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestScalarBits:
    """The scalar path gives the bits it has always given.

    The digests were recorded when construction, ``log_power_mean`` and
    ``check`` made every step through numpy and the frozen-dataclass
    constructors.  An optimization of the scalar path must leave them as
    they are; ``TestBatchEvaluation`` ties the batch path to the same bits.
    """

    LOG_POWER_MEAN_SHA256 = "898af33f671189cd"
    CHECK_SHA256 = {
        "diananda-upper": "5c48d22e9da1ca6d",
        "diananda-lower": "651144ea6b9d625f",
        "diananda-base-upper": "436d0b456c6d9b1d",
        "diananda-base-lower": "0bab3120dc3d784c",
        "mix-variance-upper": "5e88c3f27220931f",
        "mix-variance-lower": "693488b3b5ce2ac4",
        "cartwright-field-lower": "3acd639976e2bf18",
        "cartwright-field-upper": "51bfd0b94eaabc60",
        "mg-sigma-lower": "adb60b60da4fb01e",
        "mg-sigma-upper": "5d2fcdf33011ae75",
        "half-mean-lower": "c08630b925ba487c",
        "half-mean-upper": "41e692a4f64cc44d",
        "half-mean-var-upper": "89a95aef97bcedff",
        "half-mean-var-lower": "261a5194ef7a3c21",
    }

    def test_log_power_mean(self):
        rng = np.random.default_rng(19)
        out = []
        for cfg in _scalar_configs():
            drawn = [float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-0.05, 0.05))]
            for r in SCALAR_ORDERS + drawn:
                # a fresh configuration, so no order is read back from the record
                out.append(repr(log_power_mean(Configuration(cfg.x, cfg.q_weights), r)))
                out.append(repr(log_power_mean(cfg, r)))
        assert _short_sha256(out) == self.LOG_POWER_MEAN_SHA256

    @pytest.mark.parametrize("tag", list(InequalityId))
    def test_check_residuals(self, tag):
        assert _short_sha256(_scalar_check_outcomes(tag)) == self.CHECK_SHA256[tag.value]


class TestCatalogDocs:
    """The catalog tables in the docs are the one rendered from the catalog, row for row."""

    ROWS = [(id.value, tag.claim, tag.hypotheses) for id, tag in inequalities._CATALOG.items()]

    def test_every_tag_in_the_catalog(self):
        assert list(inequalities._CATALOG) == list(InequalityId)

    def test_module_docstring_table(self):
        assert rst_table_rows(inequalities.__doc__) == self.ROWS

    def test_readme_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## The inequality catalog", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        assert rows == [f"| `{tag}` | `{claim}` | `{hyps}` |" for tag, claim, hyps in self.ROWS]

    def test_hypothesis_messages_name_the_tag_and_range(self):
        cfg = Configuration([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError, match=r"^mix-variance-upper is stated for r >= 2$"):
            check(InequalityId.MIX_VARIANCE_UPPER, cfg, r=1.2)
        with pytest.raises(DomainError, match=r"^half-mean-var-upper is stated for x_1 > 0$"):
            check(InequalityId.HALF_MEAN_VAR_UPPER, Configuration([0.0, 2.0], [0.5, 0.5]), r=0.8)
