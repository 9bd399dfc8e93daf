"""The bounded model checker.

For a bound ``K`` the engine checks, for ``k = 0..K`` in increasing order,
whether the constraints of frames ``0..k`` are satisfiable together with the
negation of the property at frame ``k``.  The first satisfiable query yields
the shortest counterexample within the bound, which is what both Table 1
(detection time) and Figure 4 (counterexample length) report.

The work happens in :class:`BmcSession`, which keeps one persistent
:class:`~repro.solve.context.SolverContext` for its lifetime: frame
constraints are asserted permanently, the property violation of the frame
under test is passed as an assumption, and the session can be *extended* to
larger bounds without redoing earlier frames.  ``BmcEngine`` is the classic
one-call facade; ``KInductionEngine`` drives one session across its whole
base-case schedule.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BmcError
from repro.sat.solver import SolverStats
from repro.smt import terms as T
from repro.smt.evaluator import evaluate
from repro.solve.context import SolverContext
from repro.solve.pipeline import EncodingStats, PipelineConfig
from repro.ts.coi import CoiReduction, cached_property_cone
from repro.ts.system import TransitionSystem
from repro.ts.unroll import Unroller
from repro.bmc.trace import Trace, TraceStep


@dataclass
class BmcStats:
    """Work counters for one BMC run."""

    solver_calls: int = 0
    frames_checked: int = 0
    solver_stats: SolverStats = field(default_factory=SolverStats)
    #: Compilation-pipeline counters (AIG size, CNF before/after
    #: preprocessing, cone-of-influence reduction) of the session's context.
    encoding: EncodingStats = field(default_factory=EncodingStats)

    def copy(self) -> "BmcStats":
        """A detached snapshot (nested stats copied)."""
        return dataclasses.replace(
            self,
            solver_stats=self.solver_stats.copy(),
            encoding=self.encoding.copy(),
        )


@dataclass
class BmcResult:
    """Outcome of a bounded model-checking run.

    ``holds`` is ``True`` when no counterexample exists up to the bound,
    ``False`` when a counterexample was found (``trace`` is then populated),
    and ``None`` when the engine gave up (budget exhausted).
    """

    holds: Optional[bool]
    bound: int
    property_name: str
    trace: Optional[Trace] = None
    stats: BmcStats = field(default_factory=BmcStats)

    @property
    def counterexample_length(self) -> Optional[int]:
        return None if self.trace is None else self.trace.length


def load_frame_constraints(
    unroller: Unroller, context: SolverContext, loaded: int, frame: int
) -> int:
    """Assert the global constraints of frames ``loaded..frame`` into ``context``.

    Returns the new count of loaded frames.
    """
    while loaded <= frame:
        for constraint in unroller.constraints_at(loaded):
            if constraint.is_const:
                if constraint.const_value() == 0:
                    raise BmcError("a global constraint is constantly false")
                continue
            context.add(constraint)
        loaded += 1
    return loaded


def prepare_property_system(
    ts: TransitionSystem,
    property_name: str,
    pipeline: PipelineConfig,
) -> tuple[TransitionSystem, Optional[CoiReduction]]:
    """The system to unroll for ``property_name`` under ``pipeline``.

    At ``opt_level >= 1`` the transition system is restricted to the
    property's cone of influence; the returned reduction (``None`` when
    nothing was dropped or COI is off) carries what a trace builder needs to
    reconstruct the dropped signals.
    """
    if not pipeline.coi:
        return ts, None
    reduction = cached_property_cone(ts, property_name)
    if not reduction.reduced:
        return ts, None
    return reduction.ts, reduction


def prepare_absint_fold(ts: TransitionSystem, pipeline: PipelineConfig):
    """The abstract-interpretation fold of ``ts``, or ``None``.

    Folds proven-constant latches/bits out of the (already COI-reduced)
    system before unrolling.  Returns ``None`` when the layer is disabled,
    nothing folds, or a constraint would fold to constant false — that
    last case means the constraints are unsatisfiable on the abstract
    reachable set, and the unfolded path must keep reporting it through
    its own semantics (``load_frame_constraints``) rather than ours.
    """
    if not pipeline.use_absint:
        return None
    from repro.absint import analyze, fold_system

    fold = fold_system(ts, analyze(ts))
    if fold is None:
        return None
    for constraint in fold.ts.constraints:
        if constraint.is_const and constraint.const_value() == 0:
            return None
    return fold


def build_trace(
    ts: TransitionSystem,
    unroller: Unroller,
    property_name: str,
    model: dict[str, int],
    last_frame: int,
    reduction: Optional[CoiReduction] = None,
    fold=None,
) -> Trace:
    """Concretise a full bit-blasted model into a counterexample trace.

    ``ts`` is the *original* system; when ``reduction`` is given, the
    unroller only covers the cone, and the dropped signals are reconstructed
    by forward simulation (dropped inputs read 0 — they are unconstrained,
    so any value yields a consistent run).  When ``fold`` (an
    :class:`~repro.absint.AbsintFold`) is given, the unroller covers the
    folded system and each original latch is read back through its
    assembly term, so traces are reported in original coordinates.
    Variables the model leaves unassigned read 0.
    """
    # One assignment for the whole trace: the model plus 0 for every
    # unassigned variable of the terms read, which one walk shared by
    # all of them fills in; so one evaluation cache serves every value.
    assignment = dict(model)
    walked: set[int] = set()
    cache: dict[int, int] = {}

    def value_of(term: T.BV) -> int:
        stack = [term]
        while stack:
            node = stack.pop()
            if node.tid in walked:
                continue
            walked.add(node.tid)
            if node.is_var:
                assignment.setdefault(node.name or "", 0)
            stack.extend(node.args)
        return evaluate(term, assignment, cache)

    dropped_states: set[str] = set()
    dropped_inputs: set[str] = set()
    if reduction is not None and reduction.reduced:
        dropped_states = set(reduction.dropped_states)
        dropped_inputs = set(reduction.dropped_inputs)

    def kept_state_term(name: str, frame: int) -> T.BV:
        if fold is not None:
            return unroller.at_frame(fold.state_terms[name], frame)
        return unroller.state_term(name, frame)

    trace = Trace(property_name=property_name)
    previous: Optional[dict[str, int]] = None
    for frame in range(0, last_frame + 1):
        step = TraceStep(frame=frame)
        for state in ts.states:
            if state.name not in dropped_states:
                step.states[state.name] = value_of(
                    kept_state_term(state.name, frame)
                )
        for symbol in ts.inputs:
            assert symbol.name is not None
            if symbol.name in dropped_inputs:
                step.inputs[symbol.name] = 0
            else:
                step.inputs[symbol.name] = value_of(
                    unroller.input_term(symbol.name, frame)
                )
        if dropped_states:
            for state in ts.states:
                if state.name in dropped_states:
                    step.states[state.name] = reduction.replay_state(
                        state, frame, previous, model
                    )
        previous = {**step.states, **step.inputs}
        trace.steps.append(step)
    return trace


class BmcSession:
    """Incremental BMC over one persistent solver context.

    A session may be extended repeatedly: ``extend_to(8)`` followed by
    ``extend_to(12)`` checks frames 9..12 only, reusing every clause and
    every learned clause from the earlier frames.  ``stats`` accumulates
    over the session's lifetime.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        property_name: str,
        opt_level: "PipelineConfig | int | None" = None,
    ):
        ts.validate()
        if property_name not in ts.properties:
            raise BmcError(f"unknown property {property_name!r}")
        self.ts = ts
        self.property_name = property_name
        self.pipeline = PipelineConfig.resolve(opt_level)
        # Cone-of-influence reduction: unroll (and therefore encode) only
        # the state and logic the checked property can observe.
        reduced_ts, self.reduction = prepare_property_system(
            ts, property_name, self.pipeline
        )
        # Abstract-interpretation fold: drop proven-constant latches and
        # narrow partially-known ones before unrolling.  Facts are
        # invariants, so verdicts and counterexample frames are unchanged
        # (the absint on/off differential tests gate on this).
        self.fold = prepare_absint_fold(reduced_ts, self.pipeline)
        if self.fold is not None:
            reduced_ts = self.fold.ts
        self.unroller = Unroller(reduced_ts)
        self.context = SolverContext(opt_level=self.pipeline)
        # Solver work is accumulated per extend_to call, so a query made
        # directly on ``self.context`` is never attributed to this session.
        self._session_solver_stats = SolverStats()
        self.stats = BmcStats()
        self._constraints_loaded = 0  # frames whose constraints are asserted
        self._next_frame = 0  # first frame not yet decided safe

    # ---------------------------------------------------------------- loading

    def _load_constraints(self, frame: int) -> None:
        self._constraints_loaded = load_frame_constraints(
            self.unroller, self.context, self._constraints_loaded, frame
        )

    # --------------------------------------------------------------- encoding

    def encode_to(self, bound: int) -> "EncodingStats":
        """Encode every frame up to ``bound`` without solving anything.

        Loads the frame constraints and blasts each frame's property
        violation through the full compilation pipeline (including
        preprocessing and assumption-variable restoration), exactly as
        :meth:`extend_to` would, but never queries the SAT backend.  Used
        to measure formula sizes on bounds whose queries would be
        expensive to actually decide; the returned stats match what a real
        frame sweep would have fed the backend.  Mixing with
        :meth:`extend_to` on the same session is fine — the context is
        shared and nothing is encoded twice.
        """
        if bound < 0:
            raise BmcError(f"bound must be non-negative, got {bound}")
        for frame in range(0, bound + 1):
            self._load_constraints(frame)
            violation = T.bv_not(
                self.unroller.property_at(self.property_name, frame)
            )
            if violation.is_const and violation.const_value() == 0:
                # Mirror extend_to: a constant-true property needs no query,
                # and deferring the sync keeps the preprocessing batch
                # boundaries — and therefore the clause counts — identical
                # to the solving path.
                continue
            self.context.encode(assumptions=[violation])
        return self._encoding_snapshot()

    def _encoding_snapshot(self) -> "EncodingStats":
        """Context encoding stats with this session's COI numbers patched in."""
        stats = self.context.encoding_stats()
        if self.reduction is not None:
            stats.coi_states_dropped = len(self.reduction.dropped_states)
            stats.coi_state_bits_dropped = self.reduction.dropped_state_bits
        return stats

    # --------------------------------------------------------------- checking

    def extend_to(
        self, bound: int, conflict_budget: Optional[int] = None
    ) -> BmcResult:
        """Check all not-yet-checked frames up to ``bound`` (inclusive).

        ``conflict_budget`` caps the *total* conflicts of this call across
        all frames (matching the historical one-solver-per-check semantics),
        not each frame individually.
        """
        if bound < 0:
            raise BmcError(f"bound must be non-negative, got {bound}")
        stats = self.stats
        remaining_budget = conflict_budget
        stats_origin = self.context.stats.copy()

        def finish(holds: Optional[bool], bound_out: int, trace=None) -> BmcResult:
            self._session_solver_stats.merge(self.context.stats.since(stats_origin))
            stats.solver_stats = self._session_solver_stats
            stats.encoding = self._encoding_snapshot()
            # Hand each result a detached snapshot: the session keeps
            # accumulating into its own stats on later extend_to calls.
            return BmcResult(
                holds=holds,
                bound=bound_out,
                property_name=self.property_name,
                trace=trace,
                stats=stats.copy(),
            )

        for frame in range(self._next_frame, bound + 1):
            self._load_constraints(frame)
            property_term = self.unroller.property_at(self.property_name, frame)
            violation = T.bv_not(property_term)
            if violation.is_const and violation.const_value() == 0:
                # The property reduced to true at this frame; no query needed.
                stats.frames_checked += 1
                self._next_frame = frame + 1
                continue
            if remaining_budget is not None and remaining_budget <= 0:
                # Budget exhausted before this frame was attempted: report
                # inconclusive without counting the frame, so a re-extend
                # with a fresh budget does not double-count it.
                return finish(None, frame)
            stats.solver_calls += 1
            result = self.context.check(
                assumptions=[violation],
                conflict_budget=remaining_budget,
                full_model=True,
            )
            if remaining_budget is not None:
                remaining_budget -= result.stats.conflicts
            if result.satisfiable is None:
                # Undecided: the frame stays pending (and uncounted), so a
                # re-extend with a fresh budget retries it without skewing
                # frames_checked.
                return finish(None, frame)
            stats.frames_checked += 1
            if result.satisfiable:
                trace = self._build_trace(result.model, frame)
                return finish(False, frame, trace=trace)
            self._next_frame = frame + 1
        return finish(True, bound)

    # ------------------------------------------------------------------ trace

    def _build_trace(self, model: dict[str, int], last_frame: int) -> Trace:
        return build_trace(
            self.ts,
            self.unroller,
            self.property_name,
            model,
            last_frame,
            reduction=self.reduction,
            fold=self.fold,
        )


class BmcEngine:
    """Bounded model checking over :class:`~repro.ts.system.TransitionSystem`."""

    def __init__(
        self,
        ts: TransitionSystem,
        opt_level: "PipelineConfig | int | None" = None,
    ):
        ts.validate()
        self.ts = ts
        self.opt_level = opt_level

    def session(self, property_name: str) -> BmcSession:
        """A fresh incremental session for ``property_name``."""
        return BmcSession(self.ts, property_name, opt_level=self.opt_level)

    def check(
        self,
        property_name: str,
        bound: int,
        conflict_budget: Optional[int] = None,
    ) -> BmcResult:
        """Check a named property up to ``bound`` frames (inclusive)."""
        return self.session(property_name).extend_to(
            bound, conflict_budget=conflict_budget
        )
