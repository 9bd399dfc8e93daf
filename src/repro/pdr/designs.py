"""The baseline design suite for unbounded proving.

Small, fully tractable transition systems — each with a bug-free baseline
and an injectable bug — shared by the PDR test suite, the lint/absint
gallery and the repo benchmark's ``golden-pdr`` workload, so the
benchmark's verdict check can never drift from what the tests verify:

* :func:`saturating_counter` — the classic bounded-counter safety property;
* :func:`lockstep_accumulators` — two duplicated datapaths in lockstep
  with a QED-style self-consistency property (SQED in miniature);
* :func:`pipelined_accumulators` — the lockstep pair behind a two-stage
  pipeline, where the consistency property is *not* inductive on its own
  and the prover has to discover the pipeline-register-equality
  strengthening.

``prefix`` namespaces the state/input variable names: bit-vector variables
are interned globally by name, so two systems built from the same factory
must use distinct prefixes.
"""

from __future__ import annotations

from repro.smt import terms as T
from repro.smt.terms import BV
from repro.ts.system import TransitionSystem


def saturating_counter(
    prefix: str, limit: int = 5, buggy: bool = False
) -> TransitionSystem:
    """Saturating 4-bit counter; the buggy variant drops the saturation.

    Property ``bounded``: the count never exceeds ``limit``.
    """
    ts = TransitionSystem(name=f"{prefix}_counter")
    count = ts.add_state(f"{prefix}_count", 4, init=0)
    enable = ts.add_input(f"{prefix}_enable", 1)
    incremented = T.bv_add(count, T.bv_const(1, 4))
    if buggy:
        next_count = T.bv_ite(T.bv_eq(enable, T.bv_true()), incremented, count)
    else:
        at_limit = T.bv_ule(T.bv_const(limit, 4), count)
        next_count = T.bv_ite(
            T.bv_and(T.bv_eq(enable, T.bv_true()), T.bv_not(at_limit)),
            incremented,
            count,
        )
    ts.set_next(count, next_count)
    ts.add_property("bounded", T.bv_ule(count, T.bv_const(limit, 4)))
    return ts


def lockstep_accumulators(
    prefix: str, xlen: int = 4, buggy: bool = False
) -> TransitionSystem:
    """Two duplicated saturating accumulators in lockstep (QED in miniature).

    Property ``consistent``: the copies agree.  The buggy copy drops the
    overflow saturation, so the copies drift exactly when an addition
    overflows.
    """
    ts = TransitionSystem(name=f"{prefix}_lockstep")
    a = ts.add_state(f"{prefix}_acc_a", xlen, init=0)
    b = ts.add_state(f"{prefix}_acc_b", xlen, init=0)
    op = ts.add_input(f"{prefix}_op", 1)
    val = ts.add_input(f"{prefix}_val", xlen)
    limit = T.bv_const((1 << xlen) - 2, xlen)

    def step(acc: BV, saturate: bool) -> BV:
        added = T.bv_add(acc, val)
        overflow = T.bv_ult(added, acc)
        if saturate:
            added = T.bv_ite(overflow, limit, added)
        return T.bv_ite(T.bv_eq(op, T.bv_true()), T.bv_const(0, xlen), added)

    ts.set_next(a, step(a, saturate=True))
    ts.set_next(b, step(b, saturate=not buggy))
    ts.add_property("consistent", T.bv_eq(a, b))
    return ts


def pipelined_accumulators(
    prefix: str, xlen: int = 4, buggy: bool = False
) -> TransitionSystem:
    """Two-stage pipelined duplicated accumulators.

    Stage 1 latches the operand, stage 2 commits it.  Property
    ``consistent`` only mentions the architectural accumulators, so a
    proof must *discover* the pipeline-register-equality strengthening
    (the property is not 1-inductive).  The bug drops copy B's operand
    latch whenever a commit fires in the same cycle.
    """
    ts = TransitionSystem(name=f"{prefix}_piped")
    acc_a = ts.add_state(f"{prefix}_acc_a", xlen, init=0)
    acc_b = ts.add_state(f"{prefix}_acc_b", xlen, init=0)
    pipe_a = ts.add_state(f"{prefix}_pipe_a", xlen, init=0)
    pipe_b = ts.add_state(f"{prefix}_pipe_b", xlen, init=0)
    valid = ts.add_state(f"{prefix}_valid", 1, init=0)
    en = ts.add_input(f"{prefix}_en", 1)
    val = ts.add_input(f"{prefix}_val", xlen)
    enabled = T.bv_eq(en, T.bv_true())
    committing = T.bv_eq(valid, T.bv_true())
    ts.set_next(pipe_a, T.bv_ite(enabled, val, pipe_a))
    next_pipe_b = T.bv_ite(enabled, val, pipe_b)
    if buggy:
        next_pipe_b = T.bv_ite(committing, pipe_b, next_pipe_b)
    ts.set_next(pipe_b, next_pipe_b)
    ts.set_next(valid, T.bv_ite(enabled, T.bv_true(), T.bv_false()))
    ts.set_next(acc_a, T.bv_ite(committing, T.bv_add(acc_a, pipe_a), acc_a))
    ts.set_next(acc_b, T.bv_ite(committing, T.bv_add(acc_b, pipe_b), acc_b))
    ts.add_property("consistent", T.bv_eq(acc_a, acc_b))
    return ts
