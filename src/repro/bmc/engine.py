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
one-call facade; ``PdrEngine`` extends one session to the depth of each
refutation it finds, to certify it.

A satisfiable frame becomes a trace by simulating the original system
(:func:`build_trace`), and the session re-checks that trace before it
reports it: a trace that breaks a constraint or satisfies the property
raises :class:`~repro.errors.BmcError`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BmcError
from repro.smt import terms as T
from repro.smt.evaluator import evaluate
from repro.solve.context import SolverContext
from repro.solve.pipeline import EncodingStats, PipelineConfig
from repro.ts.coi import CoiReduction, cached_property_cone
from repro.ts.simulate import initial_state, next_state, rigid_symbols
from repro.ts.system import TransitionSystem
from repro.ts.unroll import Unroller
from repro.bmc.trace import Trace, TraceStep


@dataclass
class BmcStats:
    """Work counters of one BMC session, summed over its ``extend_to`` calls.

    ``frames_checked`` counts the frames decided (a frame left pending by
    an exhausted budget is not counted); ``conflicts`` counts the SAT
    conflicts those calls spent on the session's context.
    """

    frames_checked: int = 0
    conflicts: int = 0


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
    property's cone of influence; the returned reduction is ``None`` when
    nothing was dropped or COI is off.
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
) -> Trace:
    """Concretise a bit-blasted model into a counterexample trace of ``ts``.

    ``ts`` is the *original* system; ``unroller`` may cover a reduced or
    folded copy of it.  The model supplies only what a run leaves free:
    the rigid symbols, the initial value of each state without an init
    term and each frame's inputs, read from the unroller's variables.  The
    states are then simulated on ``ts`` itself.  A value the unroller does
    not cover (a COI-dropped input or state) or the model leaves
    unassigned reads 0.
    """
    env = {name: model.get(name, 0) for name in rigid_symbols(ts)}

    def read(symbols, frame: int) -> dict[str, int]:
        mapping = unroller.frame_mapping(frame)
        return {
            s.name: model.get(mapping[s].name, 0) if s in mapping else 0
            for s in symbols
        }

    states = initial_state(
        ts, env, read([s.symbol for s in ts.states if s.init is None], 0)
    )
    trace = Trace(property_name=property_name)
    for frame in range(last_frame + 1):
        inputs = read(ts.inputs, frame)
        trace.steps.append(TraceStep(frame=frame, states=states, inputs=inputs))
        if frame < last_frame:
            states = next_state(ts, {**env, **states, **inputs})
    return trace


class BmcSession:
    """Incremental BMC over one persistent solver context.

    A session may be extended repeatedly: ``extend_to(8)`` followed by
    ``extend_to(12)`` checks frames 9..12 only, reusing every clause and
    every learned clause from the earlier frames.  ``stats`` accumulates
    over the session's lifetime; each result carries a detached copy.
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
        return self.context.encoding_stats()

    # --------------------------------------------------------------- checking

    def extend_to(
        self, bound: int, conflict_budget: Optional[int] = None
    ) -> BmcResult:
        """Check all not-yet-checked frames up to ``bound`` (inclusive).

        ``conflict_budget`` caps the *total* conflicts of this call across
        all frames (matching the historical one-solver-per-check semantics),
        not each frame individually.  The call's conflicts are read off the
        context's kernel counters, so a query made directly on
        ``self.context`` is never charged to this session.
        """
        if bound < 0:
            raise BmcError(f"bound must be non-negative, got {bound}")
        if conflict_budget is not None and conflict_budget < 0:
            raise BmcError(
                f"conflict_budget must be non-negative, got {conflict_budget}"
            )
        stats = self.stats
        kernel = self.context.stats  # the live counters of the context's kernel
        origin = kernel.conflicts

        def finish(holds: Optional[bool], bound_out: int, trace=None) -> BmcResult:
            stats.conflicts += kernel.conflicts - origin
            # Hand each result a detached copy: the session keeps
            # accumulating into its own stats on later extend_to calls.
            return BmcResult(
                holds=holds,
                bound=bound_out,
                property_name=self.property_name,
                trace=trace,
                stats=dataclasses.replace(stats),
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
            remaining_budget = None
            if conflict_budget is not None:
                remaining_budget = conflict_budget - (kernel.conflicts - origin)
                if remaining_budget <= 0:
                    # Budget exhausted before this frame was attempted:
                    # report inconclusive without counting the frame, so a
                    # re-extend with a fresh budget does not double-count it.
                    return finish(None, frame)
            result = self.context.check(
                assumptions=[violation],
                conflict_budget=remaining_budget,
                full_model=True,
            )
            if result.satisfiable is None:
                # Undecided: the frame stays pending (and uncounted), so a
                # re-extend with a fresh budget retries it without skewing
                # frames_checked.
                return finish(None, frame)
            stats.frames_checked += 1
            if result.satisfiable:
                trace = build_trace(
                    self.ts, self.unroller, self.property_name, result.model, frame
                )
                self._certify(trace, result.model)
                return finish(False, frame, trace=trace)
            self._next_frame = frame + 1
        return finish(True, bound)

    # ------------------------------------------------------------------ trace

    def _certify(self, trace: Trace, model: dict[str, int]) -> None:
        """Re-check a counterexample on the original system.

        Every constraint must hold at every frame of ``trace`` and the
        property must fail at its last frame.  Rigid symbols take their
        model values (unassigned ones read 0), so nothing of the unrolling,
        the cone or the fold vouches for the verdict.
        """
        env = {name: model.get(name, 0) for name in rigid_symbols(self.ts)}
        for step in trace.steps:
            frame_env = {**env, **step.states, **step.inputs}
            cache: dict[int, int] = {}
            for constraint in self.ts.constraints:
                if evaluate(constraint, frame_env, cache) != 1:
                    raise BmcError(
                        f"counterexample for {self.property_name!r} violates a "
                        f"constraint at frame {step.frame}"
                    )
        last = trace.steps[-1]
        prop = self.ts.properties[self.property_name]
        if evaluate(prop, {**env, **last.states, **last.inputs}) != 0:
            raise BmcError(
                f"counterexample for {self.property_name!r} does not violate "
                f"the property at its last frame {last.frame}"
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
