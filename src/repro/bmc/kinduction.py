"""Simple k-induction prover (an extension beyond the paper's BMC usage).

SQED-style properties are usually checked with plain BMC, but a k-induction
engine is handy for proving the absence of bugs on small designs (e.g. the
bug-free baseline processor in the test suite).  The implementation is the
textbook one: the base case is BMC up to ``k``; the inductive step checks
that ``k`` consecutive property-satisfying steps (from an arbitrary state
satisfying the constraints) force the property in step ``k + 1``.

Both halves run on persistent :class:`~repro.solve.context.SolverContext`
state.  The base case is one :class:`~repro.bmc.engine.BmcSession` extended
frame by frame as ``k`` grows, so no base frame is ever re-checked.  The
inductive step keeps a single context across all depths: the symbolic
frames are extended instead of rebuilt, ``P`` at frames ``0..k-1`` is
asserted permanently as the depth grows, and only the violation ``¬P`` at
frame ``k`` — which must be retracted at the next depth — is passed as an
assumption, so the step solver's learned clauses survive from depth to
depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bmc.engine import BmcResult, BmcSession, prepare_property_system
from repro.errors import BmcError
from repro.sat.solver import SolverStats
from repro.smt import terms as T
from repro.solve.context import SolverContext
from repro.solve.pipeline import PipelineConfig
from repro.ts.system import TransitionSystem
from repro.ts.unroll import Unroller


@dataclass
class KInductionResult:
    """Outcome of a k-induction proof attempt."""

    proven: Optional[bool]
    k: int
    property_name: str
    base_result: Optional[BmcResult] = None
    step_solver_stats: SolverStats = field(default_factory=SolverStats)


class KInductionEngine:
    """Prove safety properties by k-induction."""

    def __init__(
        self,
        ts: TransitionSystem,
        opt_level: "PipelineConfig | int | None" = None,
    ):
        ts.validate()
        self.ts = ts
        self.pipeline = PipelineConfig.resolve(opt_level)

    def prove(
        self,
        property_name: str,
        max_k: int = 4,
        conflict_budget: Optional[int] = None,
    ) -> KInductionResult:
        """Try to prove ``property_name`` with induction depth up to ``max_k``."""
        if property_name not in self.ts.properties:
            raise BmcError(f"unknown property {property_name!r}")
        if max_k < 1:
            raise BmcError(f"max_k must be >= 1, got {max_k}")

        # The inductive step only needs the property's cone of influence;
        # the base session applies the same reduction internally.
        step_ts, _reduction = prepare_property_system(
            self.ts, property_name, self.pipeline
        )

        # One incremental session for every base case, one persistent context
        # for every inductive step.
        base_session = BmcSession(self.ts, property_name, opt_level=self.pipeline)
        step_ctx = SolverContext(opt_level=self.pipeline)
        # The step frames 0..k start from a free state.
        frames = Unroller(step_ts, initial=False)
        for constraint in frames.constraints_at(0):
            step_ctx.add(constraint)

        # Abstract-interpretation strengthening: the fixpoint facts form an
        # inductive invariant that holds initially, so conjoining them to
        # every symbolic step frame only discards unreachable states.  That
        # can turn a ``None`` (not k-inductive) into a proof, never flip a
        # verdict — the base case alone decides ``False``.
        strengthening: list = []
        if self.pipeline.use_absint:
            from repro.absint import analyze, strengthening_terms

            strengthening = strengthening_terms(step_ts, analyze(step_ts))
            for fact in strengthening:
                step_ctx.add(frames.at_frame(fact, 0))

        base: Optional[BmcResult] = None

        for k in range(1, max_k + 1):
            # Base case: no counterexample of length <= k from the initial
            # state.  Only the frames beyond the previous depth are checked.
            base = base_session.extend_to(k, conflict_budget=conflict_budget)
            if base.holds is False:
                return KInductionResult(
                    proven=False,
                    k=k,
                    property_name=property_name,
                    base_result=base,
                    step_solver_stats=step_ctx.stats.copy(),
                )
            if base.holds is None:
                return KInductionResult(
                    proven=None,
                    k=k,
                    property_name=property_name,
                    base_result=base,
                    step_solver_stats=step_ctx.stats.copy(),
                )
            # Inductive step at depth k: assert the constraints of frame k
            # (the unroller extends by one frame), permanently assert P at
            # frame k-1 (sound for all later depths), and assume the
            # violation at frame k for this query only.
            for constraint in frames.constraints_at(k):
                step_ctx.add(constraint)
            for fact in strengthening:
                step_ctx.add(frames.at_frame(fact, k))
            step_ctx.add(frames.property_at(property_name, k - 1))
            result = step_ctx.check(
                assumptions=[T.bv_not(frames.property_at(property_name, k))],
                conflict_budget=conflict_budget,
                need_model=False,
            )
            if result.satisfiable is False:
                return KInductionResult(
                    proven=True,
                    k=k,
                    property_name=property_name,
                    base_result=base,
                    step_solver_stats=step_ctx.stats.copy(),
                )
        # max_k exhausted: the last base result still tells the caller the
        # property held up to that depth (dropping it made the inconclusive
        # answer indistinguishable from "never even checked the base case").
        return KInductionResult(
            proven=None,
            k=max_k,
            property_name=property_name,
            base_result=base,
            step_solver_stats=step_ctx.stats.copy(),
        )
