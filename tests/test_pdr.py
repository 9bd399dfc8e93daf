"""Tests for the IC3/PDR engine (:mod:`repro.pdr`).

The load-bearing properties:

* every proof comes with an inductive invariant that passes an
  *independent* re-check (initiation, consecution, safety) through the
  ``opt_level=0`` naive reference encoding;
* every refutation agrees with BMC, and every proof agrees with
  k-induction wherever the latter concludes (differential testing across a
  small design suite);
* on the real (golden, bug-free) QED processor model a frame-bounded run
  never fabricates a counterexample.
"""

from __future__ import annotations

import pytest

from repro.bmc.engine import BmcEngine
from repro.bmc.kinduction import KInductionEngine
from repro.core.flow import SqedFlow
from repro.errors import PdrError, VerificationError
from repro.isa.config import IsaConfig
from repro.pdr import PdrEngine, check_invariant
from repro.pdr.designs import (
    lockstep_accumulators as _lockstep,
    pipelined_accumulators as _piped,
    saturating_counter,
)
from repro.pdr.engine import _GiveUp, _PdrRun
from repro.proc.config import ProcessorConfig
from repro.smt import terms as T
from repro.solve.pipeline import PipelineConfig


def _counter(prefix: str, limit: int, buggy: bool = False):
    return saturating_counter(prefix, limit=limit, buggy=buggy)


#: (factory, property) pairs covering the whole suite, good and buggy.
_SUITE = [
    (lambda p: _counter(p, 5), "bounded", True),
    (lambda p: _counter(p, 5, buggy=True), "bounded", False),
    (lambda p: _lockstep(p), "consistent", True),
    (lambda p: _lockstep(p, buggy=True), "consistent", False),
    (lambda p: _piped(p), "consistent", True),
    (lambda p: _piped(p, buggy=True), "consistent", False),
]


# ---------------------------------------------------------------------------
# Proofs and invariants
# ---------------------------------------------------------------------------


class TestPdrProofs:
    def test_counter_proof_with_checked_invariant(self):
        ts = _counter("pdr_good", 5)
        result = PdrEngine(ts).prove("bounded")
        assert result.proven is True
        assert result.invariant is not None
        assert all(clause.width == 1 for clause in result.invariant)
        check = check_invariant(ts, "bounded", result.invariant)
        assert check.initiation and check.consecution and check.safety
        assert check.valid

    def test_piped_proof_needs_and_finds_strengthening(self):
        ts = _piped("pdr_piped")
        # Not 1-inductive: plain induction at depth 1 cannot close it.
        kind = KInductionEngine(ts).prove("consistent", max_k=1)
        assert kind.proven is None
        result = PdrEngine(ts).prove("consistent")
        assert result.proven is True
        # The invariant must actually strengthen the property (clauses over
        # the pipeline registers the property does not mention).
        assert result.invariant
        check = check_invariant(ts, "consistent", result.invariant)
        assert check.valid

    def test_lockstep_proof(self):
        ts = _lockstep("pdr_lock")
        result = PdrEngine(ts).prove("consistent")
        assert result.proven is True
        assert check_invariant(ts, "consistent", result.invariant).valid

    def test_invariant_rechecked_through_reference_encoding(self):
        # The acceptance check: the emitted invariant passes initiation,
        # consecution and safety through the opt_level=0 naive encoder,
        # independently of the (default, optimised) encoding that proved it.
        ts = _piped("pdr_ref")
        result = PdrEngine(ts, opt_level=2).prove("consistent")
        assert result.proven is True
        check = check_invariant(ts, "consistent", result.invariant, opt_level=0)
        assert check.valid

    def test_tampered_invariant_fails_recheck(self):
        ts = _piped("pdr_tamper")
        result = PdrEngine(ts).prove("consistent")
        assert result.proven is True
        # An invariant that forgets the strengthening clauses (keeps only
        # the property itself) must fail consecution.
        weak = [ts.properties["consistent"]]
        check = check_invariant(ts, "consistent", weak)
        assert not check.consecution
        assert not check.valid
        # And a nonsense clause breaks initiation.
        acc = ts.state_symbol("pdr_tamper_acc_a")
        bogus = [T.bv_eq(acc, T.bv_const(7, 4))]
        assert not check_invariant(ts, "consistent", bogus).initiation

    def test_constant_true_property(self):
        ts = _counter("pdr_triv", 5)
        ts.add_property("trivial", T.bv_true())
        result = PdrEngine(ts).prove("trivial")
        assert result.proven is True
        assert check_invariant(ts, "trivial", result.invariant).valid


class TestPdrRefutations:
    def test_buggy_counter_chain_is_executable(self):
        result = PdrEngine(_counter("pdr_bad", 5, buggy=True)).prove("bounded")
        assert result.proven is False
        chain = result.cex_chain
        assert chain is not None
        values = [step["pdr_bad_count"] for step in chain]
        # Concrete run: starts in the initial state, counts monotonically
        # by the enable input, ends past the limit.
        assert values[0] == 0
        assert values[-1] > 5
        for before, after in zip(values, values[1:]):
            assert after in (before, before + 1)

    def test_property_violated_at_init(self):
        ts = _counter("pdr_init", 5)
        ts.add_property("nonzero", T.bv_eq(ts.state_symbol("pdr_init_count"),
                                           T.bv_const(1, 4)))
        result = PdrEngine(ts).prove("nonzero")
        assert result.proven is False
        assert result.cex_chain is not None and len(result.cex_chain) == 1
        assert result.counterexample_length == 1

    def test_buggy_piped_matches_bmc_depth(self):
        result = PdrEngine(_piped("pdr_pbad", buggy=True)).prove("consistent")
        assert result.proven is False
        bmc = BmcEngine(_piped("pdr_pbad2", buggy=True)).check(
            "consistent", bound=10
        )
        assert bmc.holds is False
        # PDR's concretised chain can never undercut the shortest trace.
        assert len(result.cex_chain) >= bmc.trace.length


class TestPdrDifferential:
    @pytest.mark.parametrize("index", range(len(_SUITE)))
    def test_agrees_with_bmc_and_kinduction(self, index):
        factory, prop, expected_good = _SUITE[index]
        pdr_result = PdrEngine(factory(f"diff{index}a")).prove(prop)
        assert pdr_result.proven is (True if expected_good else False)
        bmc = BmcEngine(factory(f"diff{index}b")).check(prop, bound=10)
        if bmc.holds is False:
            assert pdr_result.proven is False
        kind = KInductionEngine(factory(f"diff{index}c")).prove(prop, max_k=6)
        if kind.proven is not None:
            assert pdr_result.proven is kind.proven


class TestPdrLimits:
    def test_frame_limit_gives_unknown(self):
        # The piped design needs at least two frames; a one-frame budget
        # must come back inconclusive, never wrong.
        result = PdrEngine(_piped("pdr_lim"), max_frames=1).prove("consistent")
        assert result.proven is None

    def test_conflict_budget_gives_unknown(self):
        result = PdrEngine(_piped("pdr_budget", xlen=8)).prove(
            "consistent", conflict_budget=1
        )
        assert result.proven is None

    def test_total_conflict_budget_gives_unknown(self):
        # The cumulative budget bounds the whole run, including the
        # propagation-only query storms a per-query budget cannot touch
        # (every query charges at least one unit).
        result = PdrEngine(_piped("pdr_total", xlen=8)).prove(
            "consistent", total_conflict_budget=3
        )
        assert result.proven is None

    def test_total_conflict_budget_large_enough_still_proves(self):
        result = PdrEngine(_piped("pdr_total_ok")).prove(
            "consistent", total_conflict_budget=2_000_000
        )
        assert result.proven is True

    def test_negative_total_conflict_budget_rejected(self):
        with pytest.raises(PdrError):
            PdrEngine(_piped("pdr_total_neg")).prove(
                "consistent", total_conflict_budget=-1
            )

    def test_unknown_property_rejected(self):
        with pytest.raises(PdrError):
            PdrEngine(_counter("pdr_unknown", 5)).prove("nope")

    def test_bad_max_frames_rejected(self):
        with pytest.raises(PdrError):
            PdrEngine(_counter("pdr_badmax", 5), max_frames=0)


class TestConflictQualityStack:
    """CTG generalisation, F_inf pushing and subsumption semantics."""

    def test_drop_attribution_sums_to_total(self):
        engine = PdrEngine(_piped("pdr_attrib"))
        result = engine.prove("consistent")
        assert result.proven is True
        stats = result.stats
        assert stats.literals_dropped == (
            stats.literals_dropped_core
            + stats.literals_dropped_mic
            + stats.literals_dropped_ctg
        )
        # Generalisation must actually do something on this design.
        assert stats.literals_dropped > 0
        # So must CTG blocking (4 CTGs at 4 bits), except on the naive
        # opt_level=0 encoder, whose search meets no CTG here.
        if engine.pipeline.opt_level >= 1:
            assert stats.ctgs_blocked > 0

    def test_inf_promoted_invariant_still_certifies(self):
        # Designs whose clauses are frame-independently inductive exercise
        # the F_inf promotion path; the invariant (which must include the
        # F_inf clauses) still has to pass the independent re-check.
        ts = _lockstep("pdr_inf")
        result = PdrEngine(ts).prove("consistent")
        assert result.proven is True
        assert check_invariant(ts, "consistent", result.invariant).valid


class TestQueryLocalClauses:
    """Per-cube clauses are single CNF clauses: a query leaves no gates."""

    @staticmethod
    def _run(prefix: str, **budget):
        ts = _lockstep(prefix, xlen=8)
        run = _PdrRun(
            ts,
            "consistent",
            pipeline=PipelineConfig.resolve(None),
            max_frames=5,
            conflict_budget=None,
            **budget,
        )
        run._ensure_frame(1)
        bits = [
            (name, bit)
            for name, width in run._state_widths.items()
            for bit in range(width)
        ]
        all_false = tuple(sorted((name, bit, False) for name, bit in bits))
        all_true = tuple(sorted((name, bit, True) for name, bit in bits))
        return run, all_false, all_true

    def test_relative_induction_adds_only_its_scope_activation(self):
        run, all_false, all_true = self._run("pdr_leak")
        assert len(all_true) == 16
        # The warm-up query blasts the transition relation and every bit.
        run._relative_induction(all_false, 1, need_model=False)
        before = run._cons.num_vars
        run._relative_induction(all_true, 1, need_model=False)
        assert run._cons.num_vars == before + 1
        assert run._cons.scope_depth == 0
        before = run._cons.num_vars
        run._add_blocked(all_true, 1)
        assert run._cons.num_vars == before

    def test_given_up_query_leaves_no_scope_open(self):
        run, all_false, all_true = self._run("pdr_leak_budget", total_conflict_budget=0)
        with pytest.raises(_GiveUp):
            run._relative_induction(all_false, 1)
        assert run._cons.scope_depth == 0
        with pytest.raises(_GiveUp):
            run._lift_predecessor(all_false, [], all_true)
        assert run._cons.scope_depth == 0


class TestPdrOnProcessorModel:
    """PDR on the real QED verification model of the scaled-down processor."""

    @pytest.fixture(scope="class")
    def golden_flow(self):
        isa = IsaConfig.small(xlen=4, num_regs=4)
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        return SqedFlow(config)

    def test_bounded_run_never_fabricates_a_bug(self, golden_flow):
        # The golden design has no bug: however few frames PDR is allowed,
        # it must never report a counterexample.
        outcome = golden_flow.prove(None, engine="pdr", max_frames=3)
        assert outcome.proven is not False
        assert outcome.method == "SQED" and outcome.engine == "pdr"
        assert outcome.depth <= 3
        assert outcome.pdr_result is not None
        assert outcome.pdr_result.stats.consecution_queries > 0
        # The outcome must expose the exact model the engine ran on, so a
        # later proof's invariant can be independently re-checked.
        assert outcome.model is not None
        assert outcome.model.property_name in outcome.model.ts.properties

    @pytest.mark.slow
    def test_full_convergence_proof_with_checked_invariant(self):
        # The graduation run: *unbounded* PDR on a golden (bug-free) QED
        # processor model must converge to an inductive invariant on the
        # arena SAT kernel, and that invariant must pass the independent
        # opt_level=0 re-check.  The scaled-down golden configuration
        # (single-op ISA, depth-1 QED fifo) is the largest one whose proof
        # fits the tier-2 nightly budget: with the conflict-quality stack
        # it converges with a ~350-clause invariant, at frame 8 in about a
        # minute (plain MIC used to need ~900 clauses).  The full ADD+SUB op set
        # on the same depth-1 fifo — which plain MIC walled at frame 4 —
        # now converges too, but only inside the nightly bench-pdr-full
        # budget: it is covered by the committed BENCH_pdr.json convergence
        # row rather than a second slow test here.
        isa = IsaConfig.small(xlen=4, num_regs=4)
        config = ProcessorConfig(isa=isa, supported_ops=("ADD",))
        flow = SqedFlow(config, fifo_depth=1)
        outcome = flow.prove(None, engine="pdr", max_frames=12)
        assert outcome.proven is True
        pdr = outcome.pdr_result
        assert pdr is not None and pdr.invariant is not None
        # The outcome carries the model PDR ran on; a fresh build_model()
        # would mint new symbol names and vacuously fail the check.
        model = outcome.model
        check = check_invariant(
            model.ts, model.property_name, pdr.invariant, opt_level=0
        )
        assert check.initiation and check.consecution and check.safety
        assert check.valid

    def test_kinduction_engine_selectable(self, golden_flow):
        outcome = golden_flow.prove(None, engine="kinduction", max_k=1)
        assert outcome.proven is not False
        assert outcome.engine == "kinduction"
        assert outcome.kinduction_result is not None

    def test_unknown_engine_rejected(self, golden_flow):
        with pytest.raises(VerificationError):
            golden_flow.prove(None, engine="zz3")
