"""Build the complete QED verification model (Figure 2 of the paper).

The model wires together:

* the symbolic instruction source (free BMC inputs for the original
  instruction fields plus the ``or || eq`` dispatch selector),
* the QED module proper — a small FIFO of recorded original instructions, a
  position counter stepping through the transformed sequence of the head
  entry, dispatch bookkeeping and the ``QED-ready`` flag,
* the DUV (:class:`~repro.proc.pipeline.PipelineProcessor`), fed by either
  the original instruction or the transformed instruction selected this
  cycle,
* the universal consistency property ``QED-ready ⇒ ⋀ regs[o] == regs[e]``
  (plus the memory-half comparison when loads/stores are in the pool).

The initial state is *QED-consistent but otherwise arbitrary*: paired
registers (and paired memory words) share a fresh symbolic initial value,
which is how SQED formulations avoid long initialisation prefixes in the
bug traces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import QedError
from repro.isa.instructions import get_instruction
from repro.proc.bugs import Bug
from repro.proc.config import ProcessorConfig
from repro.proc.pipeline import InstructionSignals, PipelineProcessor, ProcessorHandles
from repro.qed.scheme import EntryFields, TransformScheme
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.ts.system import TransitionSystem
from repro.utils.bitops import clog2

#: Dispatch selector values (the ``or || eq`` signal of Figure 2).
SEL_BUBBLE = 0
SEL_ORIGINAL = 1
SEL_TRANSFORMED = 2

PROPERTY_NAME = "qed_consistency"

# Each built model gets a unique symbol prefix so several models (EDDI-V and
# EDSEP-V, different pools, different bugs) can coexist in one process
# without clashing in the hash-consed variable table.
_MODEL_COUNTER = [0]

_PREFIX_PATTERN = re.compile(r"^m(\d+)_")


def reserve_model_prefixes(names: Iterable[str]) -> None:
    """Advance the model-prefix counter past any ``m<N>_*`` symbol in ``names``.

    A model *parsed* back from BTOR2 re-interns its original ``m<N>_``
    symbols in the process-wide variable table; without this, the next
    built model would reuse the same prefix and clash on any signal whose
    width differs (a different instruction pool changes opcode and
    immediate widths).  Importers call this after introducing foreign
    symbol names into the process.
    """
    for name in names:
        match = _PREFIX_PATTERN.match(name)
        if match:
            _MODEL_COUNTER[0] = max(_MODEL_COUNTER[0], int(match.group(1)))


@dataclass
class QedVerificationModel:
    """The assembled verification model plus handy signal handles."""

    ts: TransitionSystem
    config: ProcessorConfig
    scheme: TransformScheme
    property_name: str
    handles: ProcessorHandles
    allowed_ops: list[str]
    qed_ready: BV
    consistent: BV
    inputs: dict[str, BV] = field(default_factory=dict)


def build_verification_model(
    config: ProcessorConfig,
    scheme: TransformScheme,
    bug: Optional[Bug] = None,
    fifo_depth: int = 2,
    name: Optional[str] = None,
) -> QedVerificationModel:
    """Assemble the transition system for one (DUV, transformation) pair."""
    if fifo_depth < 1:
        raise QedError("fifo_depth must be at least 1")
    isa = config.isa
    regw = isa.reg_index_width
    partition = scheme.partition
    if partition.num_regs != isa.num_regs:
        raise QedError("register partition does not match the ISA register count")

    allowed = scheme.allowed_ops(config)
    if not allowed:
        raise QedError("the transformation scheme supports none of the pool opcodes")

    model_name = name or f"{scheme.name}_{'buggy_' + bug.name if bug else 'golden'}"
    ts = TransitionSystem(name=model_name)
    _MODEL_COUNTER[0] += 1
    mp = f"m{_MODEL_COUNTER[0]}"  # unique symbol prefix for this model

    # ----------------------------------------------------------- BMC inputs
    sel = ts.add_input(f"{mp}_qed_sel", 2)
    orig_op = ts.add_input(f"{mp}_orig_op", config.op_width)
    orig_rd = ts.add_input(f"{mp}_orig_rd", regw)
    orig_rs1 = ts.add_input(f"{mp}_orig_rs1", regw)
    orig_rs2 = ts.add_input(f"{mp}_orig_rs2", regw)
    orig_imm = ts.add_input(f"{mp}_orig_imm", isa.imm_width)
    inputs = {
        "qed_sel": sel,
        "orig_op": orig_op,
        "orig_rd": orig_rd,
        "orig_rs1": orig_rs1,
        "orig_rs2": orig_rs2,
        "orig_imm": orig_imm,
    }

    sel_original = T.bv_eq(sel, T.bv_const(SEL_ORIGINAL, 2))
    sel_transformed = T.bv_eq(sel, T.bv_const(SEL_TRANSFORMED, 2))

    # ------------------------------------------------- QED-consistent init
    initial_regs: list[BV] = [T.bv_const(0, isa.xlen)] * isa.num_regs
    for original, shadow in partition.compare_pairs(include_zero=False):
        shared = T.fresh_var(f"{mp}_init_reg{original}", isa.xlen)
        initial_regs[original] = shared
        initial_regs[shadow] = shared
    initial_mem: list[BV] = [T.bv_const(0, isa.xlen)] * isa.mem_words
    for original, shadow in scheme.memory.compare_pairs():
        shared = T.fresh_var(f"{mp}_init_mem{original}", isa.xlen)
        initial_mem[original] = shared
        initial_mem[shadow] = shared

    # -------------------------------------------------------- QED module state
    max_seq = scheme.max_sequence_length(config)
    seq_width = max(1, clog2(max_seq + 1))
    count_width = max(2, clog2(fifo_depth + 1))
    counter_width = 4

    fifo_valid = [ts.add_state(f"{mp}_qed_fifo{e}_valid", 1, init=0) for e in range(fifo_depth)]
    fifo_op = [ts.add_state(f"{mp}_qed_fifo{e}_op", config.op_width, init=0) for e in range(fifo_depth)]
    fifo_rd = [ts.add_state(f"{mp}_qed_fifo{e}_rd", regw, init=0) for e in range(fifo_depth)]
    fifo_rs1 = [ts.add_state(f"{mp}_qed_fifo{e}_rs1", regw, init=0) for e in range(fifo_depth)]
    fifo_rs2 = [ts.add_state(f"{mp}_qed_fifo{e}_rs2", regw, init=0) for e in range(fifo_depth)]
    fifo_imm = [ts.add_state(f"{mp}_qed_fifo{e}_imm", isa.imm_width, init=0) for e in range(fifo_depth)]
    count = ts.add_state(f"{mp}_qed_count", count_width, init=0)
    seq_pos = ts.add_state(f"{mp}_qed_seq_pos", seq_width, init=0)
    orig_count = ts.add_state(f"{mp}_qed_orig_count", counter_width, init=0)
    done_count = ts.add_state(f"{mp}_qed_done_count", counter_width, init=0)

    fifo_nonempty = T.bv_ult(T.bv_const(0, count_width), count)
    fifo_full = T.bv_eq(count, T.bv_const(fifo_depth, count_width))

    head = EntryFields(
        op=fifo_op[0], rd=fifo_rd[0], rs1=fifo_rs1[0], rs2=fifo_rs2[0], imm=fifo_imm[0]
    )

    # ------------------------------------------- transformed instruction mux
    def op_condition(op_name: str, op_term: BV) -> BV:
        return T.bv_eq(op_term, T.bv_const(config.op_index(op_name), config.op_width))

    transformed_op = T.bv_const(0, config.op_width)
    transformed_rd = T.bv_const(0, regw)
    transformed_rs1 = T.bv_const(0, regw)
    transformed_rs2 = T.bv_const(0, regw)
    transformed_imm = T.bv_const(0, isa.imm_width)
    head_seq_len = T.bv_const(1, seq_width)

    for op_name in allowed:
        cond_op = op_condition(op_name, head.op)
        length = scheme.sequence_length(op_name)
        head_seq_len = T.bv_ite(cond_op, T.bv_const(length, seq_width), head_seq_len)
        for position in range(length):
            cond = T.bv_and(cond_op, T.bv_eq(seq_pos, T.bv_const(position, seq_width)))
            fields = scheme.transformed_instruction(config, op_name, position, head)
            transformed_op = T.bv_ite(cond, fields.op, transformed_op)
            transformed_rd = T.bv_ite(cond, fields.rd, transformed_rd)
            transformed_rs1 = T.bv_ite(cond, fields.rs1, transformed_rs1)
            transformed_rs2 = T.bv_ite(cond, fields.rs2, transformed_rs2)
            transformed_imm = T.bv_ite(cond, fields.imm, transformed_imm)

    dispatch_transformed = T.bv_and(sel_transformed, fifo_nonempty)
    duv_valid = T.bv_or(sel_original, dispatch_transformed)
    duv = InstructionSignals(
        valid=duv_valid,
        op=T.bv_ite(sel_original, orig_op, transformed_op),
        rd=T.bv_ite(sel_original, orig_rd, transformed_rd),
        rs1=T.bv_ite(sel_original, orig_rs1, transformed_rs1),
        rs2=T.bv_ite(sel_original, orig_rs2, transformed_rs2),
        imm=T.bv_ite(sel_original, orig_imm, transformed_imm),
    )

    # ---------------------------------------------------------------- DUV
    processor = PipelineProcessor(config, bug=bug, name_prefix=f"{mp}_duv")
    handles = processor.build(ts, duv, initial_regs=initial_regs, initial_mem=initial_mem)

    # -------------------------------------------------- QED module updates
    head_done = T.bv_and(
        dispatch_transformed,
        T.bv_eq(T.bv_zext(seq_pos, seq_width), T.bv_sub(head_seq_len, T.bv_const(1, seq_width))),
    )
    enqueue = sel_original

    def fifo_next(entries: list[BV], new_value: BV, zero: BV) -> None:
        for e in range(fifo_depth):
            shifted = entries[e + 1] if e + 1 < fifo_depth else zero
            after_dequeue = T.bv_ite(head_done, shifted, entries[e])
            slot_matches = T.bv_eq(count, T.bv_const(e, count_width))
            after_enqueue = T.bv_ite(
                T.bv_and(enqueue, slot_matches), new_value, after_dequeue
            )
            ts.set_next(entries[e], after_enqueue)

    fifo_next(fifo_valid, T.bv_true(), T.bv_false())
    fifo_next(fifo_op, orig_op, T.bv_const(0, config.op_width))
    fifo_next(fifo_rd, orig_rd, T.bv_const(0, regw))
    fifo_next(fifo_rs1, orig_rs1, T.bv_const(0, regw))
    fifo_next(fifo_rs2, orig_rs2, T.bv_const(0, regw))
    fifo_next(fifo_imm, orig_imm, T.bv_const(0, isa.imm_width))

    one_count = T.bv_const(1, count_width)
    next_count = T.bv_ite(
        enqueue,
        T.bv_add(count, one_count),
        T.bv_ite(head_done, T.bv_sub(count, one_count), count),
    )
    ts.set_next(count, next_count)
    ts.set_next(
        seq_pos,
        T.bv_ite(
            dispatch_transformed,
            T.bv_ite(head_done, T.bv_const(0, seq_width), T.bv_add(seq_pos, T.bv_const(1, seq_width))),
            seq_pos,
        ),
    )
    one_counter = T.bv_const(1, counter_width)
    ts.set_next(orig_count, T.bv_ite(enqueue, T.bv_add(orig_count, one_counter), orig_count))
    ts.set_next(done_count, T.bv_ite(head_done, T.bv_add(done_count, one_counter), done_count))

    # ------------------------------------------------------------ constraints
    ts.add_constraint(T.bv_ne(sel, T.bv_const(3, 2)))
    ts.add_constraint(T.bv_implies(sel_original, T.bv_not(fifo_full)))
    ts.add_constraint(T.bv_implies(sel_transformed, fifo_nonempty))

    allowed_op_terms = [op_condition(op_name, orig_op) for op_name in allowed]
    num_original_regs = len(partition.original)
    orig_field_constraints = [
        T.bv_or_all(allowed_op_terms),
        T.bv_ult(T.bv_const(0, regw), orig_rd),
        T.bv_ult(orig_rd, T.bv_const(num_original_regs, regw)),
        T.bv_ult(orig_rs1, T.bv_const(num_original_regs, regw)),
        T.bv_ult(orig_rs2, T.bv_const(num_original_regs, regw)),
    ]
    # Loads and stores are restricted to x0-based addressing into the lower
    # (original) half of the data memory, which keeps the EDDI-V / EDSEP-V
    # memory offsetting sound (see DESIGN.md).
    memory_ops = [
        op_name for op_name in allowed if get_instruction(op_name).is_load or get_instruction(op_name).is_store
    ]
    if memory_ops:
        is_memory_op = T.bv_or_all(op_condition(op_name, orig_op) for op_name in memory_ops)
        orig_field_constraints.append(
            T.bv_implies(
                is_memory_op,
                T.bv_and(
                    T.bv_eq(orig_rs1, T.bv_const(0, regw)),
                    T.bv_ult(orig_imm, T.bv_const(scheme.memory.half, isa.imm_width)),
                ),
            )
        )
    ts.add_constraint(
        T.bv_implies(sel_original, T.bv_and_all(orig_field_constraints))
    )

    # ---------------------------------------------------------- the property
    qed_ready = T.bv_and_all(
        [
            T.bv_eq(orig_count, done_count),
            T.bv_ult(T.bv_const(0, counter_width), orig_count),
            T.bv_eq(count, T.bv_const(0, count_width)),
            handles.pipeline_empty,
        ]
    )
    comparisons = [
        T.bv_eq(handles.reg_symbols[o], handles.reg_symbols[s])
        for o, s in partition.compare_pairs(include_zero=False)
    ]
    if memory_ops:
        comparisons.extend(
            T.bv_eq(handles.mem_symbols[o], handles.mem_symbols[s])
            for o, s in scheme.memory.compare_pairs()
        )
    consistent = T.bv_and_all(comparisons)
    ts.add_property(PROPERTY_NAME, T.bv_implies(qed_ready, consistent))

    return QedVerificationModel(
        ts=ts,
        config=config,
        scheme=scheme,
        property_name=PROPERTY_NAME,
        handles=handles,
        allowed_ops=allowed,
        qed_ready=qed_ready,
        consistent=consistent,
        inputs=inputs,
    )
