"""Tests for the QED layer (partitions, schemes, equivalents) and the flows.

Model-checking assertions are kept deliberately small: bug *detection* is a
satisfiable query (fast); "cannot detect" checks use a conflict budget so a
pure-Python UNSAT proof never stalls the suite.
"""

from __future__ import annotations

import pytest

from repro.core.flow import SepeSqedFlow, SqedFlow, pool_for_bug
from repro.errors import QedError
from repro.isa.config import IsaConfig
from repro.proc.bugs import get_bug
from repro.proc.config import ProcessorConfig
from repro.qed.equivalents import default_equivalent_programs
from repro.qed.mapping import MemoryPartition, RegisterPartition
from repro.qed.module import build_verification_model
from repro.qed.scheme import EddivScheme, EdsepvScheme, EntryFields
from repro.smt import terms as T
from repro.synth.cegis import CegisEngine


@pytest.fixture(scope="module")
def isa():
    return IsaConfig.small()


@pytest.fixture(scope="module")
def equivalents(isa):
    return default_equivalent_programs(isa)


class TestRegisterPartition:
    def test_eddiv_paper_layout(self):
        partition = RegisterPartition.eddiv(32)
        assert partition.original == tuple(range(16))
        assert partition.shadow == tuple(range(16, 32))
        assert partition.offset == 16
        assert len(partition.compare_pairs()) == 15  # x0 excluded

    def test_edsepv_paper_layout(self):
        """Section 5: O = x0..x12, E = x13..x25, T = x26..x31."""
        partition = RegisterPartition.edsepv(32)
        assert partition.original == tuple(range(13))
        assert partition.shadow == tuple(range(13, 26))
        assert partition.temps == tuple(range(26, 32))
        assert partition.offset == 13

    def test_edsepv_small_layout(self):
        partition = RegisterPartition.edsepv(8)
        assert partition.original == (0, 1, 2)
        assert partition.shadow == (3, 4, 5)
        assert partition.temps == (6, 7)

    def test_shadow_of(self):
        partition = RegisterPartition.edsepv(8)
        assert partition.shadow_of(1) == 4
        with pytest.raises(QedError):
            partition.shadow_of(5)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(QedError):
            RegisterPartition(8, (0, 1), (1, 2), (3,))

    def test_memory_partition(self):
        memory = MemoryPartition(4)
        assert memory.half == 2
        assert memory.compare_pairs() == [(0, 2), (1, 3)]


#: Curated programs proved equivalent; MUL and MULH are only spot-checked.
_PROVED_OPS = [
    "ADD", "SUB", "XOR", "OR", "AND", "SLT", "SLTU", "SRA", "XORI", "ORI",
    "ANDI", "ADDI", "SLLI", "SRLI", "SRAI", "SLTI", "SLTIU", "LUI", "LW", "SW",
    "SLL", "SRL",
]
#: The 8-bit configuration keeps the bare op as its id.  RV32's 12-bit
#: immediate and a 2-bit one at xlen 4 cannot hold the sign bit.
_PROOF_CONFIGS = [
    ("", IsaConfig.small()),
    ("xlen32-", IsaConfig(xlen=32, num_regs=8, imm_width=12)),
    ("xlen4-imm2-", IsaConfig(xlen=4, num_regs=8, imm_width=2)),
]


class TestCuratedEquivalents:
    def test_covers_table1_targets(self, equivalents):
        for op in ("ADD", "SUB", "XOR", "OR", "AND", "SLT", "SLTU", "SRA",
                   "MULH", "XORI", "SLLI", "SRAI", "SW"):
            assert op in equivalents

    @pytest.mark.parametrize(
        "cfg, op",
        [
            pytest.param(cfg, op, id=prefix + op)
            for prefix, cfg in _PROOF_CONFIGS
            for op in _PROVED_OPS
        ],
    )
    def test_programs_are_equivalent(self, cfg, op):
        program = default_equivalent_programs(cfg, ops=[op])[op]
        assert CegisEngine().find_counterexample(program.spec, program) is None

    def test_mul_family_checked_concretely(self, equivalents):
        """Multiplier equivalence is SAT-hard, so MUL/MULH are spot-checked."""
        from repro.isa.instructions import Instruction, result_value

        isa = equivalents["MUL"].config
        for a, b in [(0, 0), (0x7F, 0x80), (0xFF, 0xFF), (0x13, 0x27), (0x80, 0x80)]:
            assert equivalents["MUL"].evaluate([a, b]) == result_value(
                isa, Instruction("MUL", 1, 2, 3), a, b
            )
            assert equivalents["MULH"].evaluate([a, b]) == result_value(
                isa, Instruction("MULH", 1, 2, 3), a, b
            )

    def test_table1_programs_avoid_their_own_datapath(self, equivalents):
        """For Table 1 targets (except SRA, whose curated program
        ``~(~a >>s b)`` keeps the SRA datapath) the equivalent program does
        not reuse the mutated opcode."""
        for op in ("ADD", "SUB", "XOR", "OR", "AND", "SLT", "SLTU", "MULH",
                   "XORI", "SLLI", "SRAI", "SW"):
            mnemonics = {t.mnemonic for t in equivalents[op].expand()}
            assert op not in mnemonics, op

    def test_unknown_op_rejected(self, isa):
        with pytest.raises(QedError):
            default_equivalent_programs(isa, ops=["MULHU"])


class TestSchemes:
    def test_eddiv_transform_offsets_registers(self, isa):
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB", "SW"))
        scheme = EddivScheme(RegisterPartition.eddiv(8), MemoryPartition(4))
        entry = EntryFields(
            op=T.bv_const(config.op_index("ADD"), config.op_width),
            rd=T.bv_const(1, 3), rs1=T.bv_const(2, 3), rs2=T.bv_const(3, 3),
            imm=T.bv_const(0, isa.imm_width),
        )
        fields = scheme.transformed_instruction(config, "ADD", 0, entry)
        assert fields.rd.const_value() == 5
        assert fields.rs1.const_value() == 6
        assert fields.rs2.const_value() == 7
        assert scheme.sequence_length("ADD") == 1

    def test_eddiv_store_offsets_immediate(self, isa):
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SW"))
        scheme = EddivScheme(RegisterPartition.eddiv(8), MemoryPartition(4))
        entry = EntryFields(
            op=T.bv_const(config.op_index("SW"), config.op_width),
            rd=T.bv_const(0, 3), rs1=T.bv_const(0, 3), rs2=T.bv_const(2, 3),
            imm=T.bv_const(1, isa.imm_width),
        )
        fields = scheme.transformed_instruction(config, "SW", 0, entry)
        assert fields.imm.const_value() == 1 + 2  # original offset + memory half

    def test_edsepv_plans_respect_temp_budget(self, isa, equivalents):
        partition = RegisterPartition.edsepv(8)
        scheme = EdsepvScheme(partition, MemoryPartition(4), equivalents)
        for op in scheme.equivalents:
            plan = scheme.plan_for(op)
            for step in plan:
                if step.dest_kind == "temp":
                    assert step.dest_temp in partition.temps

    def test_edsepv_sequence_lengths(self, isa, equivalents):
        scheme = EdsepvScheme(RegisterPartition.edsepv(8), MemoryPartition(4), equivalents)
        assert scheme.sequence_length("SUB") == 3
        assert scheme.sequence_length("SW") == 4  # address computation + final store
        assert scheme.sequence_length("MULH") == 7

    def test_edsepv_store_appends_memory_access(self, isa, equivalents):
        scheme = EdsepvScheme(RegisterPartition.edsepv(8), MemoryPartition(4), equivalents)
        plan = scheme.plan_for("SW")
        assert plan[-1].mnemonic == "SW"
        assert plan[-1].imm.kind == "const" and plan[-1].imm.index == 2

    def test_allowed_ops_filtered_by_pool(self, isa, equivalents):
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        scheme = EdsepvScheme(RegisterPartition.edsepv(8), MemoryPartition(4), equivalents)
        allowed = scheme.allowed_ops(config)
        assert "ADD" in allowed  # its equivalent program only needs SUB
        assert "XOR" not in allowed


class TestVerificationModel:
    def test_model_structure(self, isa, equivalents):
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        scheme = EdsepvScheme(RegisterPartition.edsepv(8), MemoryPartition(4), equivalents)
        model = build_verification_model(config, scheme, fifo_depth=2)
        assert model.property_name in model.ts.properties
        assert model.ts.num_state_bits() > 50
        assert len(model.ts.constraints) >= 3
        model.ts.validate()

    def test_pool_for_bug_includes_equivalent_opcodes(self, equivalents):
        bug = get_bug("single_xor_as_or")
        pool = pool_for_bug(bug, equivalents)
        assert "XOR" in pool and "OR" in pool and "AND" in pool and "SUB" in pool

    def test_bad_fifo_depth_rejected(self, isa, equivalents):
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        scheme = EddivScheme(RegisterPartition.eddiv(8), MemoryPartition(4))
        with pytest.raises(QedError):
            build_verification_model(config, scheme, fifo_depth=0)


class TestFlows:
    def test_sepe_detects_single_instruction_bug(self, isa, equivalents):
        bug = get_bug("single_add_off_by_one")
        pool = pool_for_bug(bug, equivalents)
        config = ProcessorConfig(isa=isa, supported_ops=pool)
        outcome = SepeSqedFlow(config).run(bug, bound=9)
        assert outcome.detected is True
        assert outcome.counterexample_length is not None
        assert outcome.counterexample_length <= 10

    def test_golden_rv32_slt_model_holds(self):
        """At RV32's 12-bit immediate the sign bit fits neither an XORI nor a
        LUI immediate; SLT's curated program builds it from immediates that
        fit, so the bug-free SEPE-SQED model has no counterexample."""
        isa = IsaConfig(xlen=32, num_regs=8, imm_width=12)
        program = default_equivalent_programs(isa, ops=["SLT"])["SLT"]
        pool = ("SLT", *dict.fromkeys(t.mnemonic for t in program.expand()))
        config = ProcessorConfig(isa=isa, supported_ops=pool)
        outcome = SepeSqedFlow(config).run(None, bound=8)
        assert outcome.detected is False

    def test_sqed_cannot_detect_single_instruction_bug(self, isa, equivalents):
        bug = get_bug("single_add_off_by_one")
        pool = pool_for_bug(bug, equivalents)
        config = ProcessorConfig(isa=isa, supported_ops=pool)
        outcome = SqedFlow(config).run(bug, bound=4, conflict_budget=3000)
        assert outcome.detected is not True

    @pytest.mark.slow
    def test_both_flows_detect_forwarding_bug(self, isa, equivalents):
        """Tier-2: the full-pool forwarding-bug check dominates suite wall
        time (>240s); the fast reduced variant below covers tier-1."""
        bug = get_bug("multi_no_forward_ex_rs1")
        pool = pool_for_bug(bug, equivalents, extra_ops=bug.recommended_pool)
        config = ProcessorConfig(isa=isa, supported_ops=pool)
        sqed = SqedFlow(config).run(bug, bound=8)
        sepe = SepeSqedFlow(config).run(bug, bound=8)
        assert sqed.detected is True
        assert sepe.detected is True

    def test_forwarding_bug_detected_fast(self):
        """Tier-1 variant: a 4-bit datapath and a two-op pool expose the
        missing EX-stage rs1 forwarding within bound 7 in a few seconds."""
        bug = get_bug("multi_no_forward_ex_rs1")
        isa = IsaConfig.small(xlen=4, num_regs=4)
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        outcome = SqedFlow(config).run(bug, bound=7)
        assert outcome.detected is True
        assert outcome.counterexample_length is not None
        assert outcome.counterexample_length <= 8

    def test_trace_is_replayable(self, isa, equivalents):
        """The counterexample assigns a QED-ready frame that is inconsistent."""
        bug = get_bug("single_add_off_by_one")
        pool = pool_for_bug(bug, equivalents)
        config = ProcessorConfig(isa=isa, supported_ops=pool)
        flow = SepeSqedFlow(config)
        outcome = flow.run(bug, bound=9)
        trace = outcome.trace
        assert trace is not None
        last = trace.steps[-1]
        partition = RegisterPartition.edsepv(isa.num_regs)
        mismatches = [
            (o, s)
            for o, s in partition.compare_pairs()
            if last.states[f"m{_model_index(flow)}_duv_reg{o}"]
            != last.states[f"m{_model_index(flow)}_duv_reg{s}"]
        ]
        assert mismatches


def _model_index(flow) -> int:
    """Recover the unique model prefix index of the flow's last build."""
    from repro.qed import module as qed_module

    return qed_module._MODEL_COUNTER[0]
