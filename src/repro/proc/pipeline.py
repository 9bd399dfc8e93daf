"""An in-order pipelined processor model as a symbolic transition system.

The micro-architecture is a three-stage, single-issue pipeline:

* **D** (dispatch/decode, the cycle the instruction enters): source
  registers are read, with operand forwarding from the execute and
  write-back stages, and the instruction is latched into the execute stage.
* **EX**: the ALU result (or load value / store address) is computed from
  the latched operands; stores update the data memory at the end of this
  cycle; the result is latched into the write-back stage.
* **WB**: the register file is written.

The instruction stream is supplied by the caller (the QED module of
:mod:`repro.qed`) as a bundle of bit-vector terms, mirroring Figure 2 of the
paper where the EDSEP-V module sits between the symbolic instruction source
and the DUV's pipeline.

Instructions use a compact micro-encoding at this boundary (opcode index
into the configured pool plus register/immediate fields) rather than the
full 32-bit RISC-V word: decoding full instruction words symbolically would
only blow up the BMC queries without changing what the QED properties
observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ProcessorError
from repro.isa.instructions import get_instruction
from repro.proc.bugs import Bug
from repro.proc.config import ProcessorConfig
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.ts.system import TransitionSystem
from repro.utils.bitops import clog2


@dataclass
class InstructionSignals:
    """The micro-encoded instruction presented to the pipeline this cycle."""

    valid: BV  # width 1
    op: BV  # width cfg.op_width (index into the instruction pool)
    rd: BV  # width reg_index_width
    rs1: BV
    rs2: BV
    imm: BV  # width imm_width


@dataclass
class ProcessorHandles:
    """Signals the QED layer needs to observe the DUV."""

    reg_symbols: list[BV]  # architectural register file (index 0 is the constant 0)
    mem_symbols: list[BV]  # data memory words
    pipeline_empty: BV  # no instruction in flight
    ex_valid: BV
    wb_valid: BV


class _OpMatch:
    """Maps opcode mnemonics to match conditions; unknown opcodes are false."""

    def __init__(self, cfg: ProcessorConfig, op_term: BV):
        self._conditions = {
            name: T.bv_eq(op_term, T.bv_const(cfg.op_index(name), cfg.op_width))
            for name in cfg.supported_ops
        }

    def __getitem__(self, name: str) -> BV:
        return self._conditions.get(name, T.bv_false())

    def __contains__(self, name: str) -> bool:
        return name in self._conditions


class PipelineProcessor:
    """Builds the pipeline's state variables and logic inside a transition system."""

    def __init__(
        self,
        config: ProcessorConfig,
        bug: Optional[Bug] = None,
        name_prefix: str = "duv",
    ):
        self.cfg = config
        self.bug = bug
        self.prefix = name_prefix

    # ---------------------------------------------------------------- helpers

    def _hook(self, hook: str, ctx: dict, default: BV) -> BV:
        if self.bug is None:
            return default
        return self.bug.apply(hook, self.cfg, ctx, default)

    def _op_category(self, op_match: _OpMatch, predicate) -> BV:
        """OR of the match conditions of all pool opcodes satisfying ``predicate``."""
        conditions = [
            op_match[name]
            for name in self.cfg.supported_ops
            if predicate(get_instruction(name))
        ]
        return T.bv_or_all(conditions)

    def _alu(self, op_match: _OpMatch, a: BV, b: BV, imm: BV) -> BV:
        """The execute-stage ALU: a mux over the pool's instruction semantics."""
        isa = self.cfg.isa
        result = T.bv_const(0, isa.xlen)
        for name in self.cfg.supported_ops:
            defn = get_instruction(name)
            value = defn.symbolic(isa, a, b, imm)
            result = T.bv_ite(op_match[name], value, result)
        return result

    # ------------------------------------------------------------------ build

    def build(
        self,
        ts: TransitionSystem,
        instr: InstructionSignals,
        initial_regs: Optional[list[BV]] = None,
        initial_mem: Optional[list[BV]] = None,
    ) -> ProcessorHandles:
        """Add the processor's state and logic to ``ts``.

        ``initial_regs`` / ``initial_mem`` give the initial values of the
        architectural state (index 0 of ``initial_regs`` is ignored — x0 is
        hard-wired to zero).  When omitted, everything starts at zero.
        """
        cfg = self.cfg
        isa = cfg.isa
        xlen = isa.xlen
        regw = isa.reg_index_width
        p = self.prefix

        if instr.op.width != cfg.op_width or instr.imm.width != isa.imm_width:
            raise ProcessorError("instruction signal widths do not match the configuration")

        # ------------------------------------------------------------ state
        zero_word = T.bv_const(0, xlen)
        reg_symbols: list[BV] = [zero_word]
        for i in range(1, isa.num_regs):
            init = initial_regs[i] if initial_regs is not None else zero_word
            reg_symbols.append(ts.add_state(f"{p}_reg{i}", xlen, init=init))
        mem_symbols: list[BV] = []
        for w in range(isa.mem_words):
            init = initial_mem[w] if initial_mem is not None else zero_word
            mem_symbols.append(ts.add_state(f"{p}_mem{w}", xlen, init=init))

        ex_valid = ts.add_state(f"{p}_ex_valid", 1, init=0)
        ex_op = ts.add_state(f"{p}_ex_op", cfg.op_width, init=0)
        ex_rd = ts.add_state(f"{p}_ex_rd", regw, init=0)
        ex_a = ts.add_state(f"{p}_ex_a", xlen, init=0)
        ex_b = ts.add_state(f"{p}_ex_b", xlen, init=0)
        ex_imm = ts.add_state(f"{p}_ex_imm", isa.imm_width, init=0)

        wb_valid = ts.add_state(f"{p}_wb_valid", 1, init=0)
        wb_op = ts.add_state(f"{p}_wb_op", cfg.op_width, init=0)
        wb_writes = ts.add_state(f"{p}_wb_writes", 1, init=0)
        wb_rd = ts.add_state(f"{p}_wb_rd", regw, init=0)
        wb_value = ts.add_state(f"{p}_wb_value", xlen, init=0)

        # -------------------------------------------------------- EX stage
        ex_match = _OpMatch(cfg, ex_op)
        wb_match = _OpMatch(cfg, wb_op)
        ex_is_store = self._op_category(ex_match, lambda d: d.is_store)
        ex_is_load = self._op_category(ex_match, lambda d: d.is_load)
        ex_writes_rd = self._op_category(ex_match, lambda d: d.writes_rd or d.is_load)

        alu_default = self._alu(ex_match, ex_a, ex_b, ex_imm)
        alu_result = self._hook(
            "alu_result",
            {"op_is": ex_match, "a": ex_a, "b": ex_b, "imm": ex_imm, "result": alu_default},
            alu_default,
        )
        alu_result = self._hook(
            "ex_result_seq",
            {
                "op_is": ex_match,
                "prev_op_is": wb_match,
                "prev_valid": wb_valid,
                "a": ex_a,
                "b": ex_b,
                "result": alu_result,
            },
            alu_result,
        )

        # Loads and stores use the ALU result (rs1 + imm) as effective address.
        store_addr = self._hook(
            "store_addr",
            {"a": ex_a, "b": ex_b, "imm": ex_imm, "addr": alu_result},
            alu_result,
        )
        store_data = self._hook(
            "store_data", {"a": ex_a, "b": ex_b, "data": ex_b}, ex_b
        )
        mem_index_width = max(1, clog2(isa.mem_words))
        load_index = T.bv_extract(alu_result, mem_index_width - 1, 0)
        store_index = T.bv_extract(store_addr, mem_index_width - 1, 0)
        load_value = zero_word
        for w in range(isa.mem_words):
            load_value = T.bv_ite(
                T.bv_eq(load_index, T.bv_const(w, mem_index_width)),
                mem_symbols[w],
                load_value,
            )
        ex_result = T.bv_ite(ex_is_load, load_value, alu_result)
        ex_result_forward = self._hook(
            "forward_ex_value",
            {"ex_a": ex_a, "ex_b": ex_b, "value": ex_result},
            ex_result,
        )

        # Memory write (end of EX).
        do_store = T.bv_and(ex_valid, ex_is_store)
        for w in range(isa.mem_words):
            ts.set_next(
                mem_symbols[w],
                T.bv_ite(
                    T.bv_and(do_store, T.bv_eq(store_index, T.bv_const(w, mem_index_width))),
                    store_data,
                    mem_symbols[w],
                ),
            )

        # -------------------------------------------------------- WB stage
        wb_write_default = T.bv_and(wb_valid, wb_writes)
        wb_write_cond = self._hook(
            "wb_write_cond",
            {
                "cond": wb_write_default,
                "wb_rd": wb_rd,
                "wb_op_is": wb_match,
                "ex_op_is": ex_match,
                "ex_valid": ex_valid,
                "ex_rd": ex_rd,
            },
            wb_write_default,
        )
        wb_write_value = self._hook(
            "wb_value", {"value": wb_value, "wb_op_is": wb_match}, wb_value
        )
        for i in range(1, isa.num_regs):
            ts.set_next(
                reg_symbols[i],
                T.bv_ite(
                    T.bv_and(wb_write_cond, T.bv_eq(wb_rd, T.bv_const(i, regw))),
                    wb_write_value,
                    reg_symbols[i],
                ),
            )

        # --------------------------------------------------------- D stage
        in_match = _OpMatch(cfg, instr.op)
        in_is_store = self._op_category(in_match, lambda d: d.is_store)

        def read_register(index_term: BV) -> BV:
            value = zero_word
            for i in range(1, isa.num_regs):
                value = T.bv_ite(
                    T.bv_eq(index_term, T.bv_const(i, regw)), reg_symbols[i], value
                )
            return value

        def forwarded_operand(rs_index: BV, hook_ex: str, hook_wb: str, store_hook: Optional[str]) -> BV:
            register_value = read_register(rs_index)
            nonzero = T.bv_ne(rs_index, T.bv_const(0, regw))
            ex_cond_default = T.bv_and_all(
                [ex_valid, ex_writes_rd, T.bv_eq(ex_rd, rs_index), nonzero]
            )
            wb_cond_default = T.bv_and_all(
                [wb_valid, wb_writes, T.bv_eq(wb_rd, rs_index), nonzero]
            )
            if not cfg.forwarding:
                return register_value
            ctx_common = {"ex_valid": ex_valid, "ex_writes_rd": ex_writes_rd,
                          "ex_rd": ex_rd, "wb_valid": wb_valid, "wb_writes": wb_writes,
                          "wb_rd": wb_rd, "rs_idx": rs_index}
            ex_cond = self._hook(hook_ex, {**ctx_common, "cond": ex_cond_default}, ex_cond_default)
            if store_hook is not None:
                store_cond = self._hook(
                    store_hook, {**ctx_common, "cond": ex_cond}, ex_cond
                )
                ex_cond = T.bv_ite(in_is_store, store_cond, ex_cond)
            wb_cond = self._hook(hook_wb, {**ctx_common, "cond": wb_cond_default}, wb_cond_default)
            # Default priority: the newest value (execute stage) wins.
            swap_priority = self._hook("forward_priority", dict(ctx_common), T.bv_false())
            newest_first = T.bv_ite(
                ex_cond, ex_result_forward, T.bv_ite(wb_cond, wb_value, register_value)
            )
            oldest_first = T.bv_ite(
                wb_cond, wb_value, T.bv_ite(ex_cond, ex_result_forward, register_value)
            )
            return T.bv_ite(swap_priority, oldest_first, newest_first)

        a_value = forwarded_operand(instr.rs1, "forward_ex_rs1", "forward_wb_rs1", None)
        b_value = forwarded_operand(
            instr.rs2, "forward_ex_rs2", "forward_wb_rs2", "forward_ex_rs2_store"
        )

        # ------------------------------------------------- latch transitions
        ts.set_next(ex_valid, instr.valid)
        ts.set_next(ex_op, T.bv_ite(instr.valid, instr.op, T.bv_const(0, cfg.op_width)))
        ts.set_next(ex_rd, T.bv_ite(instr.valid, instr.rd, T.bv_const(0, regw)))
        ts.set_next(ex_a, T.bv_ite(instr.valid, a_value, zero_word))
        ts.set_next(ex_b, T.bv_ite(instr.valid, b_value, zero_word))
        ts.set_next(ex_imm, T.bv_ite(instr.valid, instr.imm, T.bv_const(0, isa.imm_width)))

        ts.set_next(wb_valid, ex_valid)
        ts.set_next(wb_op, ex_op)
        ts.set_next(wb_writes, T.bv_and(ex_valid, T.bv_and(ex_writes_rd, T.bv_not(ex_is_store))))
        ts.set_next(wb_rd, ex_rd)
        ts.set_next(wb_value, ex_result)

        pipeline_empty = T.bv_and(T.bv_not(ex_valid), T.bv_not(wb_valid))
        return ProcessorHandles(
            reg_symbols=reg_symbols,
            mem_symbols=mem_symbols,
            pipeline_empty=pipeline_empty,
            ex_valid=ex_valid,
            wb_valid=wb_valid,
        )
