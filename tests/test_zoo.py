"""Tests for the generative bug zoo (:mod:`repro.zoo`).

The load-bearing properties:

* every recipe is reproducible — ``(family, params, seed)`` round-trips
  through JSON and always instantiates the same bug on the same config;
* a fixed-seed sample across every family is *detected* by the oracle and
  every counterexample concretises to a real executor-divergent run
  (replayed on the golden ISA executor, the same program stays
  consistent — so a detection is never an encoding artefact);
* the verdict is invariant across SAT kernels and optimisation levels;
* bug-free controls never produce a false alarm;
* a budget-starved BMC run comes back ``inconclusive``, never wrong, and
  a trace BMC's own check rejects is a ``disagreement``;
* a PDR refutation of a seeded bug carries BMC's shortest trace, which
  replays on the executor like BMC's;
* the committed regression recipes (shrunk reproducers of previously
  found instances) keep replaying.
"""

from __future__ import annotations

import json

import pytest

from repro.bmc.engine import BmcSession
from repro.errors import BmcError, ProcessorError, UnknownBugError, ZooError
from repro.proc.bugs import Bug, BugKind, BugRecipe, bug_catalog, get_bug
from repro.proc.bugs import _build_catalog
from repro.zoo import (
    FAMILIES,
    CampaignConfig,
    OracleSettings,
    generate_recipes,
    get_family,
    instantiate,
    load_recipes,
    run_campaign,
    run_control,
    run_instance,
    sample_recipe,
    save_recipes,
    shrink_recipe,
)
from repro.zoo.campaign import summarize
from repro.zoo.cli import main as zoo_main
from repro.zoo.oracle import (
    STATUS_CLEAN,
    STATUS_DETECTED,
    STATUS_DISAGREEMENT,
    STATUS_INCONCLUSIVE,
    make_flow,
    replay_check,
)

#: The oracle's default settings: BMC plus executor replay.
_BMC_ONLY = OracleSettings()

#: The tier-1 fixed-seed sample: at least one instance per family, a
#: second seed where sampling is actually parameter-diverse.
_SAMPLE = [
    ("alu_op_swap", 1),
    ("alu_op_swap", 3),
    ("alu_result_offset", 2),
    ("alu_result_offset", 9),
    ("operand_swap", 4),
    ("imm_sext_flip", 5),
    ("imm_sext_flip", 8),
    ("forward_drop", 1),
    ("forward_drop", 6),
    ("forward_corruption", 42),
    ("wb_drop", 7),
    ("wb_drop", 11),
]


# ---------------------------------------------------------------------------
# Recipes and families
# ---------------------------------------------------------------------------


class TestRecipes:
    def test_round_trip_through_json(self):
        recipe = sample_recipe("alu_op_swap", seed=12)
        blob = json.dumps(recipe.as_dict())
        assert BugRecipe.from_dict(json.loads(blob)) == recipe

    def test_sampling_is_deterministic(self):
        for family in FAMILIES:
            assert sample_recipe(family, seed=77) == sample_recipe(family, seed=77)

    def test_instantiation_is_deterministic(self):
        recipe = sample_recipe("forward_drop", seed=9)
        a, b = instantiate(recipe), instantiate(recipe)
        assert a.bug.name == b.bug.name
        assert a.config == b.config
        assert a.flow_kind == b.flow_kind and a.bound == b.bound
        assert a.bug.recipe == recipe

    def test_unknown_family_rejected(self):
        with pytest.raises(ZooError, match="alu_op_swap"):
            get_family("nope")

    def test_malformed_recipe_dict_rejected(self):
        with pytest.raises(ProcessorError):
            BugRecipe.from_dict(42)
        with pytest.raises(ProcessorError):
            BugRecipe.from_dict({"family": 3, "params": {}, "seed": 0})
        with pytest.raises(ProcessorError):
            BugRecipe.from_dict({"family": "alu_op_swap", "seed": "x"})

    def test_invalid_params_rejected_at_build(self):
        bad = BugRecipe(
            family="alu_result_offset",
            params=(("delta", 16), ("op", "ADD"), ("xlen", 4)),
            seed=0,
        )
        with pytest.raises(ZooError):
            instantiate(bad)

    def test_sepe_families_on_sepe_flow_sqed_on_sqed(self):
        kinds = {name: get_family(name).flow_kind for name in FAMILIES}
        assert kinds["alu_op_swap"] == "sepe"
        assert kinds["imm_sext_flip"] == "sepe"
        assert kinds["forward_drop"] == "sqed"
        assert kinds["wb_drop"] == "sqed"

    def test_recipe_files_round_trip(self, tmp_path):
        recipes = [sample_recipe(f, seed=1) for f in sorted(FAMILIES)]
        path = tmp_path / "recipes.json"
        save_recipes(recipes, path)
        assert load_recipes(path) == recipes

    def test_generate_recipes_round_robin_all_families(self):
        config = CampaignConfig(count=2 * len(FAMILIES), seed=3)
        recipes = generate_recipes(config)
        assert len(recipes) == 2 * len(FAMILIES)
        assert {r.family for r in recipes} == set(FAMILIES)
        assert len({(r.family, r.seed) for r in recipes}) == len(recipes)


# ---------------------------------------------------------------------------
# Deep-mode registry re-entry (forward_corruption/priority_swap)
# ---------------------------------------------------------------------------


class TestDeepModeRegistry:
    """``forward_corruption/priority_swap`` is back in the registry.

    PR 7 excluded the mode (shortest counterexample past bound 9);
    per-mode bound overrides let recipes build, replay and shrink again.
    Random campaign sampling must still stick to the cheap modes: one
    bound-11 oracle evaluation of this model costs tens of CPU-minutes
    on the pure-Python kernels, which would dominate any campaign or
    tier-1 budget.
    """

    @staticmethod
    def _deep_recipe(**extra) -> BugRecipe:
        return BugRecipe(
            family="forward_corruption",
            params=tuple(sorted({"mode": "priority_swap", "xlen": 4, **extra}.items())),
            seed=0,
        )

    def test_priority_swap_builds_with_deep_bound(self):
        inst = instantiate(self._deep_recipe())
        assert inst.bound == 11
        assert inst.bug.kind is BugKind.MULTIPLE_INSTRUCTION
        assert "write-back" in inst.bug.description
        assert inst.bug.recipe == self._deep_recipe()

    def test_explicit_bound_param_beats_the_mode_override(self):
        assert instantiate(self._deep_recipe(bound=12)).bound == 12

    def test_cheap_modes_keep_the_family_default_bound(self):
        recipe = BugRecipe(
            family="forward_corruption",
            params=(("mode", "wrong_value"), ("xlen", 4)),
            seed=0,
        )
        assert instantiate(recipe).bound == 8

    def test_random_sampling_never_draws_the_deep_mode(self):
        family = get_family("forward_corruption")
        drawn = {
            dict(sample_recipe("forward_corruption", seed=s).params)["mode"]
            for s in range(64)
        }
        assert "priority_swap" not in drawn
        assert drawn == set(family._SAMPLE_MODES)
        assert "priority_swap" in family._MODES

    def test_deep_mode_shrinks_toward_the_cheap_mode(self):
        family = get_family("forward_corruption")
        candidates = family.shrink_candidates(dict(self._deep_recipe().params))
        assert any(c["mode"] == "wrong_value" for c in candidates)


# ---------------------------------------------------------------------------
# Bug-catalog hardening (static catalog satellites)
# ---------------------------------------------------------------------------


class TestCatalogHardening:
    def test_catalog_names_unique(self):
        catalog = bug_catalog()
        assert len(catalog) >= 25
        assert all(catalog[name].name == name for name in catalog)

    def test_duplicate_names_rejected_at_build(self):
        dup = Bug(
            name="dup",
            kind=BugKind.SINGLE_INSTRUCTION,
            description="",
            hooks={},
        )
        with pytest.raises(ProcessorError, match="duplicate"):
            _build_catalog([dup], [dup])

    def test_unknown_bug_error_lists_known_names(self):
        with pytest.raises(UnknownBugError, match="single_add_off_by_one"):
            get_bug("no_such_bug")
        # Dict-style callers can catch it as KeyError too.
        with pytest.raises(KeyError):
            get_bug("no_such_bug")


# ---------------------------------------------------------------------------
# The oracle on the fixed-seed tier-1 sample
# ---------------------------------------------------------------------------


class TestOracleSample:
    @pytest.mark.parametrize("family,seed", _SAMPLE)
    def test_seeded_instance_detected_and_concretized(self, family, seed):
        report = run_instance(
            instantiate(sample_recipe(family, seed)), _BMC_ONLY
        )
        assert report.status == STATUS_DETECTED, report.failure
        assert report.concretized is True
        assert report.cex_length is not None and report.cex_length >= 4

    @pytest.mark.parametrize("kernel", ["arena", "reference"])
    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_verdict_invariant_across_kernels_and_opt_levels(
        self, monkeypatch, kernel, opt_level
    ):
        # The oracle's answer is a property of the design, not of the SAT
        # kernel or the encoding pipeline: both kernels at both ends of
        # the optimisation range must agree, cex length included.
        monkeypatch.setenv("REPRO_SAT_BACKEND", kernel)
        monkeypatch.setenv("REPRO_OPT_LEVEL", str(opt_level))
        report = run_instance(
            instantiate(sample_recipe("alu_op_swap", seed=1)), _BMC_ONLY
        )
        assert report.status == STATUS_DETECTED, report.failure
        assert report.concretized is True
        assert report.cex_length == 7

    def test_pdr_refutation_replays_on_the_executor(self):
        recipe = next(
            r
            for r in load_recipes("tests/data/regression_recipes.json")
            if r.family == "wb_drop"
        )
        instance = instantiate(recipe)
        # No total budget: PDR refutes this recipe at every encoder level.
        proof = make_flow(instance).prove(instance.bug, engine="pdr", max_frames=8)
        assert proof.proven is False
        # The refutation carries BMC's shortest trace, which replays on the
        # golden executor.
        assert proof.pdr_result.counterexample_length == 5
        report = run_instance(instance, _BMC_ONLY)
        assert report.cex_length == 5
        assert replay_check(proof.model, proof.pdr_result.trace) is None

    def test_bmc_certificate_failure_is_a_disagreement(self, monkeypatch):
        def reject(self, trace, model):
            raise BmcError("forged trace")

        monkeypatch.setattr(BmcSession, "_certify", reject)
        report = run_instance(
            instantiate(sample_recipe("alu_op_swap", seed=1)), _BMC_ONLY
        )
        assert report.status == STATUS_DISAGREEMENT
        assert report.failure == "BMC leg: forged trace"

    def test_trace_replays_on_the_model_bmc_checked(self):
        instance = instantiate(sample_recipe("alu_op_swap", seed=1))
        outcome = make_flow(instance).run(instance.bug, bound=instance.bound)
        assert outcome.detected is True
        ts = outcome.model.ts
        states = {s.name for s in ts.states}
        inputs = {i.name for i in ts.inputs}
        for step in outcome.trace.steps:
            assert step.states and set(step.states) <= states
            assert step.inputs and set(step.inputs) <= inputs
        assert replay_check(outcome.model, outcome.trace) is None

    def test_control_produces_no_false_alarm(self):
        report = run_control(
            instantiate(sample_recipe("alu_op_swap", seed=1)), _BMC_ONLY
        )
        assert report.status == STATUS_CLEAN, report.failure
        assert report.bmc_verdict == "safe"

    def test_budget_starved_bmc_is_inconclusive_not_wrong(self):
        settings = OracleSettings(bmc_conflict_budget=1)
        report = run_instance(
            instantiate(sample_recipe("forward_drop", seed=1)), settings
        )
        assert report.status == STATUS_INCONCLUSIVE
        assert report.bmc_verdict == "inconclusive"


# ---------------------------------------------------------------------------
# Shrinking and committed regression recipes
# ---------------------------------------------------------------------------


class TestShrinking:
    def test_shrinks_to_canonical_op_pair(self):
        result = shrink_recipe(sample_recipe("alu_op_swap", seed=3))
        assert result.status == STATUS_DETECTED
        assert result.reduced
        assert dict(result.shrunk["params"])["op"] == "ADD"
        assert result.shrunk_cex_length <= result.original_cex_length

    def test_shrink_never_lengthens_the_counterexample(self):
        # wb_drop's lattice points at double_write, whose shortest trace
        # is *longer*; the shrinker must refuse that step.
        result = shrink_recipe(sample_recipe("wb_drop", seed=11))
        assert result.status == STATUS_DETECTED
        assert not result.reduced
        assert result.shrunk_cex_length == result.original_cex_length


class TestRegressionRecipes:
    def test_committed_recipes_still_replay(self):
        recipes = load_recipes("tests/data/regression_recipes.json")
        assert recipes, "regression recipe file must not be empty"
        reports = [run_instance(instantiate(r), _BMC_ONLY) for r in recipes]
        for report in reports:
            assert report.status == STATUS_DETECTED, report.failure
            assert report.concretized is True
        summary = summarize(reports, [])
        assert summary["passed"] and summary["detection_rate"] == 1.0


# ---------------------------------------------------------------------------
# Campaign driver and CLI
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_small_campaign_passes_with_parallel_workers(self):
        config = CampaignConfig(
            count=4,
            seed=5,
            families=("alu_op_swap", "forward_drop"),
            settings=_BMC_ONLY,
            jobs=2,
            run_controls=False,
        )
        report = run_campaign(config)
        assert report.passed
        assert report.summary["instances"] == 4
        assert report.summary["detected"] == 4
        assert report.summary["all_detected_concretized"] is True
        # The JSON form must be self-contained and serialisable.
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["summary"]["passed"] is True

    def test_config_records_the_kernel_that_ran(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_BACKEND", "reference")
        config = CampaignConfig(
            count=1,
            seed=5,
            families=("alu_op_swap",),
            settings=_BMC_ONLY,
            run_controls=False,
        )
        report = run_campaign(config)
        assert report.summary["detected"] == 1
        assert report.config["sat_kernel"] == "reference"

    @pytest.mark.parametrize("value,level", [("1", 1), (None, 2)])
    def test_config_records_the_level_that_ran(self, monkeypatch, value, level):
        if value is None:
            monkeypatch.delenv("REPRO_OPT_LEVEL", raising=False)
        else:
            monkeypatch.setenv("REPRO_OPT_LEVEL", value)
        config = CampaignConfig(
            count=1,
            seed=5,
            families=("alu_op_swap",),
            settings=_BMC_ONLY,
            run_controls=False,
        )
        report = run_campaign(config)
        assert report.summary["detected"] == 1
        assert report.config["opt_level"] == level

    def test_campaign_rejects_bad_config(self):
        with pytest.raises(ZooError):
            generate_recipes(CampaignConfig(count=0))
        with pytest.raises(ZooError):
            CampaignConfig(families=("nope",)).family_names()
        with pytest.raises(ZooError, match="bmc_conflict_budget"):
            OracleSettings(bmc_conflict_budget=-1)

    def test_summary_flags_disagreements(self):
        from repro.zoo.oracle import OracleReport

        bad = OracleReport(
            family="f",
            recipe={},
            flow_kind="sqed",
            kind="seeded",
            status="disagreement",
            failure="synthetic",
        )
        summary = summarize([bad], [])
        assert not summary["passed"]
        assert summary["failures"] == [
            {"family": "f", "kind": "seeded", "failure": "synthetic"}
        ]


    @pytest.mark.parametrize("inconclusive,passed", [(1, True), (2, False)])
    def test_summary_bounds_inconclusive_instances(self, inconclusive, passed):
        from repro.zoo.oracle import OracleReport

        def report(status):
            return OracleReport(
                family="f",
                recipe={},
                flow_kind="sepe",
                kind="seeded",
                status=status,
                cex_length=3,
                concretized=status == STATUS_DETECTED,
            )

        seeded = [report(STATUS_INCONCLUSIVE) for _ in range(inconclusive)]
        seeded += [report(STATUS_DETECTED) for _ in range(10 - inconclusive)]
        summary = summarize(seeded, [])
        assert summary["inconclusive"] == inconclusive
        assert summary["detection_rate"] == 1.0
        # At most a tenth of the campaign may run out of budget.
        assert summary["passed"] is passed


class TestCli:
    def test_list_families(self, capsys):
        assert zoo_main(["list"]) == 0
        out = capsys.readouterr().out
        for family in FAMILIES:
            assert family in out

    def test_generate_writes_loadable_recipes(self, tmp_path):
        path = tmp_path / "recipes.json"
        assert (
            zoo_main(["generate", "--count", "5", "--seed", "2",
                      "--out", str(path)]) == 0
        )
        assert len(load_recipes(path)) == 5

    def test_replay_gates_on_verdict(self, tmp_path, capsys):
        path = tmp_path / "recipes.json"
        save_recipes([sample_recipe("alu_op_swap", seed=1)], path)
        code = zoo_main(["replay", "--recipes", str(path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["detection_rate"] == 1.0

    def test_unknown_engine_rejected(self):
        # BMC is the oracle's one leg: a typo or a deleted leg is refused.
        with pytest.raises(ZooError, match="pfr"):
            OracleSettings(engines=("bmc", "pfr"))
        with pytest.raises(ZooError, match="pdr"):
            OracleSettings(engines=("bmc", "pdr"))

    def test_negative_bmc_budget_rejected(self, capsys):
        # A negative budget would run every instance to "inconclusive".
        code = zoo_main(
            ["run", "--count", "2", "--seed", "2024", "--bmc-budget", "-1",
             "--no-controls"]
        )
        assert code != 0
        assert "bmc_conflict_budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Tier-2: the full campaign (nightly)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestFullCampaign:
    def test_sixty_instance_campaign(self):
        # A fresh-seed campaign across every family through the oracle
        # (BMC plus executor replay): every conclusive seeded instance must
        # be detected with a concretised counterexample, controls must stay
        # clean, and nothing may disagree.  Sixty instances fit the shared
        # tier-2 pytest budget; the ≥200-instance acceptance campaign is the
        # dedicated nightly CI job running `python -m repro.zoo run --count
        # 200`, which uploads its report.
        config = CampaignConfig(
            count=60,
            seed=2025,
            settings=OracleSettings(),
            jobs=2,
        )
        report = run_campaign(config)
        summary = report.summary
        assert summary["disagreements"] == 0, summary["failures"]
        assert summary["false_alarms"] == 0, summary["failures"]
        assert summary["detection_rate"] == 1.0
        assert summary["all_detected_concretized"] is True
        # Budget starvation may make a few instances inconclusive, but
        # never the bulk of the campaign.
        assert summary["inconclusive"] <= summary["instances"] // 10
