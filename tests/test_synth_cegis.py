"""Tests for the CEGIS engine and the two multiset synthesis algorithms."""

from __future__ import annotations

import pytest

from repro.errors import SynthesisError
from repro.experiments import figure3
from repro.isa.config import IsaConfig
from repro.synth.cegis import CegisConfig, CegisEngine
from repro.synth.hpf import HpfCegis, PriorityDict
from repro.synth.iterative import IterativeCegis
from repro.synth.search import count_multisets, enumerate_multisets
from repro.synth.spec import spec_from_instruction


@pytest.fixture(scope="module")
def isa():
    return IsaConfig.small()


@pytest.fixture(scope="module")
def engine():
    return CegisEngine(CegisConfig(max_iterations=12))


class TestCegisEngine:
    def test_sub_via_xori_add_xori(self, isa, small_library, engine):
        """The paper's Listing 1 multiset synthesizes SUB."""
        spec = spec_from_instruction("SUB", isa)
        multiset = [small_library.by_name("XORI.D"), small_library.by_name("ADD"),
                    small_library.by_name("XORI.D")]
        outcome = engine.synthesize(spec, multiset)
        assert outcome.succeeded
        for a, b in [(0, 0), (17, 200), (255, 1)]:
            assert outcome.program.evaluate([a, b]) == (a - b) & 0xFF
        assert engine.find_counterexample(spec, outcome.program) is None

    def test_add_via_three_subs(self, isa, small_library, engine):
        """The paper's HPF motivation example: ADD out of three SUBs."""
        spec = spec_from_instruction("ADD", isa)
        outcome = engine.synthesize(spec, [small_library.by_name("SUB")] * 3)
        assert outcome.succeeded
        assert outcome.program.component_names() == ["SUB", "SUB", "SUB"]

    def test_impossible_multiset_fails(self, isa, small_library, engine):
        spec = spec_from_instruction("SUB", isa)
        outcome = engine.synthesize(
            spec, [small_library.by_name("AND"), small_library.by_name("OR")]
        )
        assert not outcome.succeeded

    def test_self_identity_excluded(self, isa, small_library, engine):
        """A single same-named component must not be wired as the instruction itself."""
        spec = spec_from_instruction("SUB", isa)
        outcome = engine.synthesize(spec, [small_library.by_name("SUB")])
        assert not outcome.succeeded

    def test_immediate_spec_synthesis(self, isa, small_library, engine):
        """XORI synthesized from dynamic-immediate CIC components."""
        spec = spec_from_instruction("XORI", isa)
        multiset = [
            small_library.by_name("ORI.C"),
            small_library.by_name("ANDI.C"),
            small_library.by_name("SUB"),
        ]
        outcome = engine.synthesize(spec, multiset)
        assert outcome.succeeded
        for a, imm in [(0x0F, 0xF0), (0xAA, 0x55), (3, 3)]:
            assert outcome.program.evaluate([a, imm]) == a ^ imm

    def test_stats_populated(self, isa, small_library, engine):
        spec = spec_from_instruction("XOR", isa)
        multiset = [small_library.by_name("OR"), small_library.by_name("AND"),
                    small_library.by_name("SUB")]
        outcome = engine.synthesize(spec, multiset)
        assert outcome.succeeded
        assert outcome.stats.synthesis_queries >= 1
        assert outcome.stats.verification_queries >= 1


class TestMultisets:
    def test_count_matches_enumeration(self, small_library):
        assert count_multisets(len(small_library), 2) == len(
            enumerate_multisets(small_library, 2)
        )

    def test_paper_blowup_number(self):
        """The paper's example: 29 components, size-6 multisets -> 1,344,904."""
        assert count_multisets(29, 6) == 1344904


class TestPriorityDict:
    def test_priority_prefers_unrelated_components(self, small_library):
        priorities = PriorityDict.initial(small_library)
        sub = small_library.by_name("SUB")
        add = small_library.by_name("ADD")
        with_overlap = priorities.priority([sub, sub, add], "ADD")
        without_overlap = priorities.priority([sub, sub, sub], "ADD")
        assert without_overlap > with_overlap

    def test_reward_and_penalise(self, small_library):
        priorities = PriorityDict.initial(small_library)
        multiset = [small_library.by_name("ADD"), small_library.by_name("SUB")]
        before = priorities.priority(multiset, "XOR")
        priorities.reward(multiset)
        assert priorities.priority(multiset, "XOR") > before
        priorities.penalise(multiset)
        priorities.penalise(multiset)
        assert priorities.priority(multiset, "XOR") < before


class TestAlgorithms:
    def test_hpf_finds_add_quickly_via_name_penalty(self, isa, small_library):
        """The χ penalty pushes ADD-free multisets first, so {SUB,SUB,SUB} is
        tried almost immediately (the paper's own motivating example)."""
        hpf = HpfCegis(
            small_library,
            multiset_size=3,
            target_programs=1,
            cegis_config=CegisConfig(max_iterations=10),
            max_multisets=10,
        )
        run = hpf.synthesize_for(spec_from_instruction("ADD", isa))
        assert run.succeeded
        assert run.multisets_tried <= 5
        best = run.best_program()
        assert "ADD" not in best.component_names()
        for a, b in [(0xAA, 0x55), (1, 1), (255, 255)]:
            assert best.evaluate([a, b]) == (a + b) & 0xFF

    def test_iterative_respects_budget_and_programs_are_sound(self, isa, small_library):
        iterative = IterativeCegis(
            small_library,
            multiset_size=3,
            target_programs=1,
            cegis_config=CegisConfig(max_iterations=10),
            max_multisets=40,
            shuffle_seed=7,
        )
        spec = spec_from_instruction("ADD", isa)
        run = iterative.synthesize_for(spec)
        assert run.multisets_tried <= 40
        # With a capped budget the baseline may or may not succeed; when it
        # does, the programs must be genuinely equivalent.
        for program in run.programs:
            assert program.evaluate([0xAA, 0x55]) == (0xAA + 0x55) & 0xFF
        # Figure 3's claim on ADD: HPF needs no more multisets than the baseline.
        hpf = HpfCegis(
            small_library,
            multiset_size=3,
            target_programs=1,
            cegis_config=CegisConfig(max_iterations=10),
            max_multisets=40,
        ).synthesize_for(spec)
        assert hpf.succeeded
        assert hpf.multisets_tried <= run.multisets_tried

    def test_hpf_weights_persist_across_instructions(self, isa, small_library):
        hpf = HpfCegis(
            small_library,
            multiset_size=3,
            target_programs=1,
            cegis_config=CegisConfig(max_iterations=10),
            max_multisets=25,
        )
        specs = [spec_from_instruction(n, isa) for n in ("XOR", "OR")]
        hpf.synthesize_all(specs)
        weights = set(hpf.priorities.choice.values()) | set(hpf.priorities.exclusion.values())
        assert weights != {1.0}


class TestBudgetValidation:
    """A malformed multiset budget is rejected, never silently skewed."""

    @pytest.mark.parametrize("algorithm", [HpfCegis, IterativeCegis])
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_multisets": -1}, {"multiset_size": 0}, {"multiset_size": -1}],
        ids=["negative-cap", "empty-multisets", "negative-size"],
    )
    def test_bad_budget_raises(self, small_library, algorithm, kwargs):
        with pytest.raises(SynthesisError):
            algorithm(small_library, **kwargs)

    @pytest.mark.parametrize("algorithm", [HpfCegis, IterativeCegis])
    def test_zero_cap_tries_nothing(self, isa, small_library, algorithm):
        run = algorithm(small_library, max_multisets=0).synthesize_for(
            spec_from_instruction("ADD", isa)
        )
        assert run.multisets_tried == 0
        assert not run.programs

    @pytest.mark.parametrize(
        "argv",
        [["--max-multisets", "-1"], ["--cases", "FOO"]],
        ids=["negative-cap", "unknown-case"],
    )
    def test_figure3_cli_rejects_bad_input(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            figure3.main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
