"""Tests for the RV32IM subset: semantics, assembler, executor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AssemblerError, IsaError
from repro.isa.assembler import assemble, assemble_line, format_instruction
from repro.isa.config import IsaConfig
from repro.isa.executor import ArchState, execute_instruction, execute_program
from repro.isa.instructions import (
    CANONICAL_ORDER,
    Instruction,
    get_instruction,
    instruction_names,
    result_value,
    symbolic_result,
)
from repro.smt import terms as T
from repro.smt.evaluator import evaluate
from repro.utils.bitops import mask, to_signed


class TestConfig:
    def test_defaults(self):
        cfg = IsaConfig.rv32()
        assert cfg.xlen == 32 and cfg.num_regs == 32 and cfg.imm_width == 12
        assert cfg.shamt_width == 5 and cfg.reg_index_width == 5
        assert cfg.lui_shift == 12

    def test_small(self):
        cfg = IsaConfig.small()
        assert cfg.xlen == 8 and cfg.num_regs == 8
        assert cfg.imm_width == 8 and cfg.lui_shift == 0

    @pytest.mark.parametrize(
        "kwargs", [dict(xlen=2), dict(num_regs=6), dict(imm_width=0), dict(mem_words=3)]
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(IsaError):
            IsaConfig(**{**dict(xlen=8, num_regs=8, imm_width=8, mem_words=4), **kwargs})


class TestCatalog:
    def test_26_instructions(self):
        assert len(instruction_names()) == 26
        assert set(CANONICAL_ORDER) == set(instruction_names())

    def test_unknown_instruction(self):
        with pytest.raises(IsaError):
            get_instruction("BEQ")

    def test_lookup_case_insensitive(self):
        assert get_instruction("add").name == "ADD"

    @pytest.mark.parametrize("name", ["ADD", "SUB", "MULH", "SW", "LW", "LUI", "XORI"])
    def test_operand_flags(self, name):
        defn = get_instruction(name)
        if name == "SW":
            assert defn.is_store and not defn.writes_rd
        if name == "LW":
            assert defn.is_load and defn.writes_rd
        if name == "LUI":
            assert not defn.uses_rs1 and defn.uses_imm


class TestConcreteSemantics:
    cfg = IsaConfig.small()

    def test_add_sub(self):
        assert result_value(self.cfg, Instruction("ADD", 1, 2, 3), 200, 100) == (300 & 0xFF)
        assert result_value(self.cfg, Instruction("SUB", 1, 2, 3), 5, 9) == (5 - 9) & 0xFF

    def test_signed_compares(self):
        assert result_value(self.cfg, Instruction("SLT", 1, 2, 3), 0xFF, 0x01) == 1
        assert result_value(self.cfg, Instruction("SLTU", 1, 2, 3), 0xFF, 0x01) == 0

    def test_shifts(self):
        assert result_value(self.cfg, Instruction("SLL", 1, 2, 3), 0x0F, 2) == 0x3C
        assert result_value(self.cfg, Instruction("SRA", 1, 2, 3), 0x80, 7) == 0xFF
        assert result_value(self.cfg, Instruction("SRL", 1, 2, 3), 0x80, 7) == 0x01

    def test_multiplies(self):
        assert result_value(self.cfg, Instruction("MUL", 1, 2, 3), 0x10, 0x10) == 0x00
        assert result_value(self.cfg, Instruction("MULH", 1, 2, 3), 0xFF, 0xFF) == 0x00
        assert result_value(self.cfg, Instruction("MULHU", 1, 2, 3), 0xFF, 0xFF) == 0xFE

    def test_lui_and_addresses(self):
        assert result_value(self.cfg, Instruction("LUI", 1, imm=0x12), 0, 0) == 0x12
        assert result_value(self.cfg, Instruction("SW", rs1=2, rs2=3, imm=3), 10, 77) == 13

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(CANONICAL_ORDER),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_concrete_matches_symbolic(self, name, a, b, imm):
        """Concrete and symbolic semantics agree on every instruction."""
        cfg = self.cfg
        rs1 = T.bv_var("isa_cc_a", cfg.xlen)
        rs2 = T.bv_var("isa_cc_b", cfg.xlen)
        imm_t = T.bv_var("isa_cc_i", cfg.imm_width)
        concrete = result_value(cfg, Instruction(name, rd=1, rs1=2, rs2=3, imm=imm), a, b)
        symbolic = evaluate(
            symbolic_result(cfg, name, rs1, rs2, imm_t),
            {"isa_cc_a": a, "isa_cc_b": b, "isa_cc_i": imm},
        )
        assert concrete == symbolic

    def test_rv32_sra_sign(self):
        cfg = IsaConfig.rv32()
        value = 0x8000_0000
        assert result_value(cfg, Instruction("SRA", 1, 2, 3), value, 31) == mask(32)
        assert to_signed(result_value(cfg, Instruction("SRAI", 1, 2, imm=4), value, 0), 32) == -(1 << 27)


class TestAssembler:
    def test_roundtrip(self):
        program = assemble(
            """
            # paper Listing 1
            SUB x1, x2, x3
            XORI x4, x2, 0xfff
            ADD x5, x4, x3
            XORI x1, x5, 0xfff
            SW x2, 1(x3)
            LW x6, 0(x3)
            LUI x7, 0x12
            """
        )
        assert len(program) == 7
        for instr in program:
            again = assemble_line(format_instruction(instr))
            assert again == instr

    def test_blank_and_comment_lines(self):
        assert assemble("\n# nothing\n\n") == []

    @pytest.mark.parametrize(
        "text", ["ADD x1, x2", "FOO x1, x2, x3", "ADD y1, x2, x3", "SW x1, x2", "XORI x1, x2, zz"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises((AssemblerError, IsaError)):
            assemble_line(text)


class TestExecutor:
    def test_basic_dataflow(self, small_isa):
        state = ArchState(small_isa)
        state.write_reg(2, 10)
        state.write_reg(3, 250)
        execute_program(
            state,
            assemble("ADD x1, x2, x3\nSUB x4, x2, x3\nSW x2, 1(x3)\nLW x5, 1(x3)"),
        )
        assert state.read_reg(1) == (10 + 250) % 256
        assert state.read_reg(4) == (10 - 250) % 256
        assert state.read_reg(5) == 10
        assert state.executed == 4

    def test_x0_is_hardwired_zero(self, small_isa):
        state = ArchState(small_isa)
        state.write_reg(0, 99)
        assert state.read_reg(0) == 0
        execute_instruction(state, Instruction("ADDI", rd=0, rs1=0, imm=5))
        assert state.read_reg(0) == 0

    def test_memory_wraps_modulo(self, small_isa):
        state = ArchState(small_isa)
        state.write_mem(small_isa.mem_words + 1, 7)
        assert state.read_mem(1) == 7

    def test_register_index_checked(self, small_isa):
        state = ArchState(small_isa)
        with pytest.raises(IsaError):
            state.read_reg(small_isa.num_regs)

    def test_equivalent_program_listing1(self, small_isa):
        """The paper's Listing 1: SUB == XORI; ADD; XORI on real state."""
        state = ArchState(small_isa)
        state.write_reg(2, 0x37)
        state.write_reg(3, 0x59)
        direct = state.copy()
        execute_instruction(direct, Instruction("SUB", rd=1, rs1=2, rs2=3))
        execute_program(
            state,
            assemble("XORI x4, x2, 0xff\nADD x5, x4, x3\nXORI x1, x5, 0xff"),
        )
        assert state.read_reg(1) == direct.read_reg(1)


class TestEdgeSemantics:
    """Corner semantics the pipeline model leans on: shift-amount masking,
    high-half multiplies, and immediate sign extension.  Each case checks
    the concrete executor against the symbolic encoding evaluated on the
    same operands, so the two semantics cannot drift apart silently."""

    @pytest.fixture(scope="class")
    def narrow_imm(self):
        # imm_width < xlen: sign extension of immediates is *not* the
        # identity here, unlike IsaConfig.small().
        return IsaConfig(xlen=8, num_regs=8, imm_width=4, mem_words=4)

    def _cross_check(self, cfg, name, rs1, rs2, imm=0):
        instr = Instruction(name, rd=1, rs1=2, rs2=3, imm=imm)
        concrete = result_value(cfg, instr, rs1, rs2)
        sym = symbolic_result(
            cfg,
            name,
            T.bv_const(rs1, cfg.xlen),
            T.bv_const(rs2, cfg.xlen),
            T.bv_const(imm, cfg.imm_width),
        )
        assert evaluate(sym, {}) == concrete
        return concrete

    @pytest.mark.parametrize("name", ["SLL", "SRL", "SRA"])
    @pytest.mark.parametrize("amount", [0, 1, 7, 8, 9, 15, 255])
    def test_shift_amount_masked_modulo_xlen(self, small_isa, name, amount):
        # Only the low log2(xlen) bits of rs2 participate: shifting by
        # xlen+k behaves exactly like shifting by k.
        value = 0b1011_0110
        got = self._cross_check(small_isa, name, value, amount)
        want = self._cross_check(small_isa, name, value, amount % small_isa.xlen)
        assert got == want

    def test_sra_fills_with_sign_bit(self, small_isa):
        assert self._cross_check(small_isa, "SRA", 0x80, 3) == 0xF0
        assert self._cross_check(small_isa, "SRA", 0x40, 3) == 0x08

    @pytest.mark.parametrize(
        "a,b",
        [(0, 0), (255, 255), (200, 200), (1, 255), (128, 2), (17, 19)],
    )
    def test_mulhu_returns_upper_half_unsigned(self, small_isa, a, b):
        assert self._cross_check(small_isa, "MULHU", a, b) == (a * b) >> 8

    def test_mulh_vs_mulhu_disagree_on_negative_operands(self, small_isa):
        # 0xFF is -1 signed: MULH sees -1 * 2 = -2 (upper half 0xFF),
        # MULHU sees 255 * 2 = 510 (upper half 1).
        assert self._cross_check(small_isa, "MULH", 0xFF, 2) == 0xFF
        assert self._cross_check(small_isa, "MULHU", 0xFF, 2) == 0x01

    @pytest.mark.parametrize("name", ["ADDI", "SLTI"])
    def test_itype_immediate_sign_extends(self, narrow_imm, name):
        # imm=0b1111 in a 4-bit field is -1 after sign extension.
        if name == "ADDI":
            assert self._cross_check(narrow_imm, name, 10, 0, imm=0b1111) == 9
        else:
            # rs1 = -3 signed (0xFD) < -1, so SLTI yields 1.
            assert self._cross_check(narrow_imm, name, 0xFD, 0, imm=0b1111) == 1
            assert self._cross_check(narrow_imm, name, 5, 0, imm=0b1111) == 0

    def test_logical_itype_immediates_also_sign_extend(self, narrow_imm):
        # RISC-V sign-extends *all* I-type immediates, including the
        # logical ones: ANDI with imm=-1 is the identity on rs1.
        assert self._cross_check(narrow_imm, "ANDI", 0xA5, 0, imm=0b1111) == 0xA5
        assert self._cross_check(narrow_imm, "ORI", 0xA5, 0, imm=0b1111) == 0xFF
        assert self._cross_check(narrow_imm, "XORI", 0xA5, 0, imm=0b1111) == 0x5A

    def test_shift_immediate_uses_shamt_not_sext(self, narrow_imm):
        # SLLI's shift amount comes from the raw shamt field, never from a
        # sign-extended immediate: imm=0b1111 shifts by 15 & 7 = 7.
        assert self._cross_check(narrow_imm, "SLLI", 1, 0, imm=0b1111) == 0x80

    @pytest.mark.parametrize("name", ["LW", "SW"])
    def test_memory_address_offset_sign_extends(self, narrow_imm, name):
        # The effective address is rs1 + sext(imm): imm=-1 addresses one
        # word *below* the base, not fifteen above it.
        assert self._cross_check(narrow_imm, name, 5, 9, imm=0b1111) == 4
        assert self._cross_check(narrow_imm, name, 5, 9, imm=0b0111) == 12
