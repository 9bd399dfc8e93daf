"""Tests for the component library and synthesized-program machinery."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SynthesisError
from repro.isa.config import IsaConfig
from repro.isa.executor import ArchState, execute_program
from repro.qed.equivalents import default_equivalent_programs
from repro.smt import terms as T
from repro.smt.evaluator import evaluate
from repro.synth.components import ComponentClass, ComponentLibrary, build_default_library
from repro.synth.program import ProgramSlot, SynthesizedProgram
from repro.synth.spec import SpecInput, SynthesisSpec, spec_from_instruction, synthesis_case_names
from repro.utils.bitops import mask


class TestLibraryComposition:
    def test_29_components(self, small_library):
        assert len(small_library) == 29

    def test_class_split_matches_paper(self, small_library):
        assert len(small_library.of_class(ComponentClass.NIC)) == 10
        assert len(small_library.of_class(ComponentClass.DIC)) == 10
        assert len(small_library.of_class(ComponentClass.CIC)) == 9

    def test_unique_names(self, small_library):
        names = small_library.names()
        assert len(names) == len(set(names))

    def test_lookup(self, small_library):
        assert small_library.by_name("ADD").component_class is ComponentClass.NIC
        with pytest.raises(SynthesisError):
            small_library.by_name("NOPE")

    def test_duplicate_rejected(self, small_isa, small_library):
        library = ComponentLibrary(small_isa, [small_library.by_name("ADD")])
        with pytest.raises(SynthesisError):
            library.add(small_library.by_name("ADD"))

    def test_rv32_library_builds(self, rv32_isa):
        assert len(build_default_library(rv32_isa)) == 29


class TestComponentSemantics:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_nic_components_match_instruction_semantics(self, small_isa, small_library, a, b):
        from repro.isa.instructions import Instruction, result_value

        x = T.bv_const(a, small_isa.xlen)
        y = T.bv_const(b, small_isa.xlen)
        for comp in small_library.of_class(ComponentClass.NIC):
            term = comp.output_term(small_isa, [x, y], [])
            expected = result_value(small_isa, Instruction(comp.name, 1, 2, 3), a, b)
            assert term.const_value() == expected

    def test_dic_component_uses_attribute(self, small_isa, small_library):
        addi = small_library.by_name("ADDI.D")
        out = addi.output_term(small_isa, [T.bv_const(10, 8)], [T.bv_const(0xFF, 8)])
        assert out.const_value() == 9  # 10 + sext(-1)

    def test_arity_checked(self, small_isa, small_library):
        with pytest.raises(SynthesisError):
            small_library.by_name("ADD").output_term(small_isa, [T.bv_const(0, 8)], [])

    def test_cic_mulh_matches_reference(self, small_isa, small_library):
        from repro.isa.instructions import Instruction, result_value

        mulh_c = small_library.by_name("MULH.C")
        for a, b in [(0x80, 0x7F), (0xFF, 0xFF), (0x12, 0x34), (0x80, 0x80)]:
            term = mulh_c.output_term(
                small_isa, [T.bv_const(a, 8), T.bv_const(b, 8)], []
            )
            assert term.const_value() == result_value(small_isa, Instruction("MULH", 1, 2, 3), a, b)


def _component_program(cfg, component, attributes) -> SynthesizedProgram:
    """``component`` alone, reading one program input per component input."""
    inputs = tuple(
        SpecInput(f"in{k}", width, is_immediate=k in component.immediate_inputs)
        for k, width in enumerate(component.input_widths)
    )
    spec = SynthesisSpec(
        component.name, inputs, cfg.xlen, lambda c, terms: T.bv_const(0, c.xlen), cfg
    )
    wiring = tuple(("input", k) for k in range(component.arity))
    return SynthesizedProgram(spec, [ProgramSlot(component, wiring, tuple(attributes))])


def _run_on_executor(program: SynthesizedProgram, values) -> int:
    """Run the program's instructions: register inputs in x1.., the output
    in the next register, temporaries above it."""
    cfg = program.config
    inputs = program.spec.inputs
    reg_inputs = [values[i] for i, inp in enumerate(inputs) if not inp.is_immediate]
    imm_value = next((values[i] for i, inp in enumerate(inputs) if inp.is_immediate), 0)
    dest = len(reg_inputs) + 1
    state = ArchState(cfg)
    for reg, value in enumerate(reg_inputs, start=1):
        state.write_reg(reg, value)
    instructions = program.to_concrete_instructions(
        input_regs=list(range(1, dest)),
        dest_reg=dest,
        temp_regs=list(range(dest + 1, cfg.num_regs)),
        imm_value=imm_value,
    )
    execute_program(state, instructions)
    return state.read_reg(dest)


class TestExpansionComputesSemantics:
    """What CEGIS reasons about is what the DUV runs: every library
    component and curated program, dispatched to the executor, computes
    ``SynthesizedProgram.evaluate``."""

    # x0, up to two register inputs, the output and MULH.C's six temporaries.
    NUM_REGS = 16

    @pytest.mark.parametrize("xlen, imm_width", [(8, 8), (4, 2), (32, 12)])
    def test_executor_matches_evaluate(self, xlen, imm_width):
        cfg = IsaConfig(xlen=xlen, num_regs=self.NUM_REGS, imm_width=imm_width)
        rng = random.Random(xlen * 100 + imm_width)
        programs = list(default_equivalent_programs(cfg).values())
        for component in build_default_library(cfg):
            for _ in range(4):
                attributes = [rng.getrandbits(w) for w in component.attribute_widths]
                programs.append(_component_program(cfg, component, attributes))
        for program in programs:
            for _ in range(16):
                values = [
                    rng.choice((0, 1, 1 << (inp.width - 1), mask(inp.width), rng.getrandbits(inp.width)))
                    for inp in program.spec.inputs
                ]
                expected = program.evaluate(values)
                assert _run_on_executor(program, values) == expected, (program, values)


class TestSpecs:
    def test_case_list_has_26_entries(self):
        assert len(synthesis_case_names()) == 26

    def test_r_type_spec(self, small_isa):
        spec = spec_from_instruction("ADD", small_isa)
        assert [i.name for i in spec.inputs] == ["rs1", "rs2"]
        out = spec.output_term([T.bv_const(3, 8), T.bv_const(4, 8)])
        assert out.const_value() == 7

    def test_i_type_spec_has_immediate_input(self, small_isa):
        spec = spec_from_instruction("XORI", small_isa)
        assert [i.name for i in spec.inputs] == ["rs1", "imm"]
        assert spec.inputs[1].is_immediate

    def test_store_spec_output_is_address(self, small_isa):
        spec = spec_from_instruction("SW", small_isa)
        out = spec.output_term(
            [T.bv_const(10, 8), T.bv_const(99, 8), T.bv_const(3, 8)]
        )
        assert out.const_value() == 13

    def test_width_mismatch_rejected(self, small_isa):
        spec = spec_from_instruction("ADD", small_isa)
        with pytest.raises(SynthesisError):
            spec.output_term([T.bv_const(0, 4), T.bv_const(0, 8)])


def _sub_program(small_isa, small_library) -> SynthesizedProgram:
    """The paper's Listing 1 program for SUB: XORI; ADD; XORI."""
    spec = spec_from_instruction("SUB", small_isa)
    ones = mask(small_isa.imm_width)
    slots = [
        ProgramSlot(small_library.by_name("XORI.D"), (("input", 0),), (ones,)),
        ProgramSlot(small_library.by_name("ADD"), (("slot", 0), ("input", 1)), ()),
        ProgramSlot(small_library.by_name("XORI.D"), (("slot", 1),), (ones,)),
    ]
    return SynthesizedProgram(spec, slots)


class TestSynthesizedProgram:
    def test_listing1_program_is_equivalent(self, small_isa, small_library):
        program = _sub_program(small_isa, small_library)
        for a, b in [(0, 0), (5, 3), (3, 5), (200, 13), (255, 255)]:
            assert program.evaluate([a, b]) == (a - b) & 0xFF

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_symbolic_and_concrete_agree(self, small_isa, small_library, a, b):
        program = _sub_program(small_isa, small_library)
        rs1 = T.bv_var("prog_rs1", 8)
        rs2 = T.bv_var("prog_rs2", 8)
        term = program.output_term([rs1, rs2])
        assert evaluate(term, {"prog_rs1": a, "prog_rs2": b}) == program.evaluate([a, b])

    def test_expansion_structure(self, small_isa, small_library):
        program = _sub_program(small_isa, small_library)
        templates = program.expand()
        assert [t.mnemonic for t in templates] == ["XORI", "ADD", "XORI"]
        assert program.num_instructions == 3
        assert templates[1].rs1.kind == "virtual"
        assert templates[2].rd.index == 2

    def test_concrete_instructions_execute_correctly(self, small_isa, small_library):
        """Expanded to real instructions, the program matches SUB on an ISS."""
        program = _sub_program(small_isa, small_library)
        instrs = program.to_concrete_instructions(
            input_regs=[2, 3], dest_reg=1, temp_regs=[6, 7]
        )
        state = ArchState(small_isa)
        state.write_reg(2, 0x37)
        state.write_reg(3, 0x59)
        execute_program(state, instrs)
        assert state.read_reg(1) == (0x37 - 0x59) & 0xFF

    def test_topological_order_enforced(self, small_isa, small_library):
        spec = spec_from_instruction("ADD", small_isa)
        with pytest.raises(SynthesisError):
            SynthesizedProgram(
                spec,
                [ProgramSlot(small_library.by_name("ADD"), (("slot", 0), ("input", 0)), ())],
            )

    def test_describe_mentions_spec(self, small_isa, small_library):
        text = _sub_program(small_isa, small_library).describe()
        assert "SUB" in text and "XORI" in text
