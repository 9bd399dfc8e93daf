"""IC3/PDR: unbounded safety proofs by incremental induction.

The engine maintains a sequence of *frames* ``F_0 .. F_N`` — over-
approximations of the states reachable in at most ``i`` steps, with
``F_0 = Init`` — each represented as a set of blocked cubes (their negated
clauses).  Bad states found at the frontier spawn *proof obligations* that
are pushed backwards through the frames; an obligation that reaches frame 0
(or whose cube reaches into ``Init``) is a real counterexample, while an
obligation refuted by a *relative induction* query is blocked and
generalised into a stronger clause.  When a propagation pass leaves some
frame identical to its successor, that frame is an inductive invariant and
the property is proven for **all** depths.

Every query reads the current and next state as frames 0 and 1 of one
free-initial :class:`~repro.ts.unroll.Unroller` over the property's cone.
A refutation only counts the transitions from the refuting obligation to
the bad cube; :meth:`PdrEngine.prove` hands that depth to a
:class:`~repro.bmc.engine.BmcSession`, so the counterexample it reports is
BMC's shortest trace, simulated and re-checked on the original system.

Everything runs on the incremental substrate:

* four persistent :class:`~repro.solve.context.SolverContext` instances
  (consecution, bad-state, initiation, bad-state lifting) keep their
  learned clauses across the thousands of queries a run makes;
* frames are *activation variables*: a clause blocked at frame ``i`` is
  asserted as the single CNF clause ``¬act_i ∨ clause`` and every query
  simply assumes the activation variables of the frames it reads — no
  solver rebuild, ever; a query's own ``¬cube`` is likewise one clause,
  retired by a push/pop scope when the query ends;
* inductive generalisation is driven by **failed-assumption cores**: the
  cube literals of a refuted obligation are passed as per-literal
  assumptions, and the solver's final-conflict analysis reports which of
  them the refutation actually needed — the rest are dropped for free.

Frames use the standard *delta encoding*: each cube is stored only at the
highest frame whose relative-induction query blocks it, and ``F_i`` is the
union of the cubes stored at frames ``>= i`` (frames weaken monotonically).

On top of the base loop sits a *conflict-quality stack* aimed at proving
the deep full-model QED properties:

* **CTG-aware generalisation** — when a MIC drop trial fails, the
  counterexample-to-generalisation its model exposes is itself blocked at
  the preceding frame (one level deep, up to ``_MAX_CTGS`` per trial)
  before the trial is retried;
* an **infinite frame** ``F_inf`` — a successful propagation push whose
  failed-assumption core names no finite frame's activation variable has
  proven its clause inductive outright; it is promoted to a permanently
  assumed frame and never pushed again;
* **clause subsumption** — a newly learned cube retires every stored cube
  it subsumes, keeping the frame stores (and the propagation passes over
  them) small;
* **seeded lemmas** — candidate cubes supplied by the caller (by default
  the per-latch facts of the :mod:`repro.absint` fixpoint) are admitted
  into ``F_inf`` before the main loop, but only after an Init-disjointness
  check and a joint consecution fixpoint over the candidate set, so an
  unsound seed can never influence a verdict.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.bmc.engine import BmcSession, prepare_property_system
from repro.bmc.trace import Trace
from repro.errors import PdrError
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.solve.context import SolverContext
from repro.solve.pipeline import PipelineConfig
from repro.ts.system import TransitionSystem
from repro.ts.unroll import Unroller

#: A cube literal: state variable name, bit index, required value.
CubeLit = tuple[str, int, bool]

#: A cube — a partial assignment of state bits, as a sorted literal tuple.
Cube = tuple[CubeLit, ...]

#: CTG recursion depth: a CTG is blocked, but the generalisation of that
#: block handles no CTGs of its own.
_CTG_DEPTH = 1
#: CTG blocking attempts per failed generalisation trial before giving up
#: on the literal.
_MAX_CTGS = 3


def cube_clause_term(ts: TransitionSystem, cube: Cube) -> BV:
    """The blocked cube's clause ``¬cube`` over ``ts``'s state symbols."""
    parts = []
    for name, bit, value in cube:
        term = T.bv_extract(ts.state_symbol(name), bit, bit)
        parts.append(T.bv_not(term) if value else term)
    return T.bv_or_all(parts)


@dataclass
class PdrStats:
    """Work counters of one IC3/PDR run."""

    bad_queries: int = 0
    consecution_queries: int = 0
    init_queries: int = 0
    lift_queries: int = 0
    obligations: int = 0
    cubes_blocked: int = 0
    #: Counterexamples-to-generalisation blocked at a preceding frame.
    ctgs_blocked: int = 0
    #: Seeded candidate lemmas that survived the Init-disjointness and
    #: joint-consecution filter and entered ``F_inf`` before the main loop.
    seed_lemmas_admitted: int = 0
    #: Seeded candidates dropped by the filter (or malformed for this
    #: system, e.g. naming a state outside the property's cone).
    seed_lemmas_rejected: int = 0


@dataclass
class PdrResult:
    """Outcome of an IC3/PDR proof attempt.

    ``proven`` is ``True`` when an inductive invariant was found (the
    property holds at *every* depth), ``False`` when a concrete
    counterexample trace exists, and ``None`` when the engine gave up
    (frame limit or conflict budget).

    On success ``invariant`` holds the clauses of the inductive frame as
    width-1 terms over the *state symbols* of the transition system; their
    conjunction ``Inv`` satisfies — under the system's global constraints —
    initiation (``Init => Inv``), consecution (``Inv ∧ T => Inv'``) and
    safety (``Inv => P``).  Re-check it independently with
    :func:`repro.pdr.invariant.check_invariant`.

    On failure ``trace`` is the shortest counterexample of the original
    system, as :class:`~repro.bmc.engine.BmcSession` finds and certifies
    it.  ``stats`` counts PDR's own queries, obligations and lemmas, not
    that BMC run's; the SAT work of each query is on the kernel counters of
    the context that made it.
    """

    proven: Optional[bool]
    property_name: str
    frames_explored: int = 0
    invariant: Optional[list[BV]] = None
    trace: Optional[Trace] = None
    stats: PdrStats = field(default_factory=PdrStats)

    @property
    def counterexample_length(self) -> Optional[int]:
        return None if self.trace is None else self.trace.length


class _GiveUp(Exception):
    """Internal: a query exhausted its conflict budget."""


class _Obligation:
    """A cube of states that must be excluded from a frame, or traced to Init.

    ``cube`` may be *lifted* (partial): every state in it steps — under the
    inputs its lifting query fixed — into the successor obligation's cube.
    ``steps`` counts those transitions from this cube to the bad cube, so
    a cube that meets ``Init`` proves a counterexample of ``steps``
    transitions.
    """

    __slots__ = ("cube", "frame", "steps")

    def __init__(self, cube: Cube, frame: int, steps: int):
        self.cube = cube
        self.frame = frame
        self.steps = steps


class PdrEngine:
    """Prove (or refute) safety properties with IC3/PDR.

    ``max_frames`` bounds the number of frames explored before giving up
    (``proven=None``).  Every blocked cube is generalised twice: a free
    drop through the blocking query's core, then a MIC literal-dropping
    pass.  When a MIC drop trial fails, the counterexample-to-
    generalisation is itself blocked at the preceding frame (up to
    ``_MAX_CTGS`` attempts per trial, one level deep) before the literal is
    abandoned.  ``conflict_budget`` caps each individual SAT query;
    ``total_conflict_budget`` caps the *cumulative* effort of the whole run
    (each query charges its conflicts plus one, so propagation-only query
    storms count too) — it bounds a run whose individual queries are all
    cheap but whose obligation count is not (the QED processor models
    produce exactly that shape).  Exhausting either budget aborts the run
    with ``proven=None``.

    ``seed_lemmas`` supplies candidate cubes whose negated clauses are
    *offered* to the infinite frame before the main loop.  ``None`` (the
    default) derives them from the :mod:`repro.absint` fixpoint when the
    pipeline's ``absint`` knob is on; pass an empty iterable to disable
    seeding outright.  Candidates are only *candidates*: each one must be
    disjoint from ``Init`` and the set must pass a joint consecution
    fixpoint (see ``_PdrRun._admit_seed_lemmas``) before admission, so a
    wrong seed costs a few queries but can never unsoundly strengthen the
    proof.

    A refutation is re-derived by BMC to the depth PDR found: the result's
    ``trace`` is that session's certified shortest counterexample, and a
    refutation BMC cannot reproduce raises :class:`~repro.errors.PdrError`.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        opt_level: "PipelineConfig | int | None" = None,
        max_frames: int = 100,
        seed_lemmas: Optional[Iterable[Cube]] = None,
    ):
        ts.validate()
        if max_frames < 1:
            raise PdrError(f"max_frames must be >= 1, got {max_frames}")
        self.ts = ts
        self.pipeline = PipelineConfig.resolve(opt_level)
        self.max_frames = max_frames
        self.seed_lemmas = None if seed_lemmas is None else list(seed_lemmas)

    def prove(
        self,
        property_name: str,
        conflict_budget: Optional[int] = None,
        total_conflict_budget: Optional[int] = None,
    ) -> PdrResult:
        """Run IC3/PDR on ``property_name``."""
        if property_name not in self.ts.properties:
            raise PdrError(f"unknown property {property_name!r}")
        for name, budget in (
            ("conflict_budget", conflict_budget),
            ("total_conflict_budget", total_conflict_budget),
        ):
            if budget is not None and budget < 0:
                raise PdrError(f"{name} must be >= 0, got {budget}")
        run = _PdrRun(
            self.ts,
            property_name,
            pipeline=self.pipeline,
            max_frames=self.max_frames,
            conflict_budget=conflict_budget,
            total_conflict_budget=total_conflict_budget,
            seed_lemmas=self.seed_lemmas,
        )
        result = run.prove()
        if result.proven is False:
            witness = BmcSession(
                self.ts, property_name, opt_level=self.pipeline
            ).extend_to(run.cex_steps)
            if witness.holds is not False:
                raise PdrError(
                    f"PDR refuted {property_name!r} in {run.cex_steps} steps, "
                    "but BMC finds no counterexample within that bound"
                )
            result.trace = witness.trace
        return result


class _PdrRun:
    """All per-run state of one :meth:`PdrEngine.prove` call."""

    def __init__(
        self,
        ts: TransitionSystem,
        property_name: str,
        pipeline: PipelineConfig,
        max_frames: int,
        conflict_budget: Optional[int],
        total_conflict_budget: Optional[int] = None,
        seed_lemmas: Optional[Iterable[Cube]] = None,
    ):
        self.property_name = property_name
        self.max_frames = max_frames
        self.conflict_budget = conflict_budget
        self.total_conflict_budget = total_conflict_budget
        self._conflicts_spent = 0
        self.stats = PdrStats()
        #: Transitions from an initial state to the bad cube, once refuted.
        self.cex_steps: Optional[int] = None

        # The property only needs its cone of influence (the reduction BMC
        # applies too); invariant clauses stay valid for the original system
        # because kept states keep their next functions.
        reduced, _reduction = prepare_property_system(ts, property_name, pipeline)
        self.ts = reduced

        # Candidate F_inf lemmas: explicit, or the abstract-interpretation
        # fixpoint's per-latch facts (computed on the reduced system, whose
        # states are exactly the ones the run can talk about).
        if seed_lemmas is None and pipeline.use_absint:
            from repro.absint import analyze, pdr_seed_cubes

            seed_lemmas = pdr_seed_cubes(reduced, analyze(reduced))
        self._seed_lemmas: list[Cube] = (
            [] if seed_lemmas is None else [tuple(cube) for cube in seed_lemmas]
        )

        # Frames 0 and 1 of one free-initial unrolling are the current and
        # next state of every query.  Terms are hash-consed globally, so
        # each context blasts the same term graph into its own clause space.
        frames = Unroller(reduced, initial=False)
        states = reduced.states
        self._state_widths = {s.name: s.width for s in states}
        self._curr_vars = {s.name: frames.state_term(s.name, 0) for s in states}
        self._next_exprs = {s.name: frames.state_term(s.name, 1) for s in states}
        self._init_term = frames.initial_condition()
        constraints_curr = frames.constraints_at(0)
        constraints_next = frames.constraints_at(1)
        self._prop_curr = frames.property_at(property_name, 0)
        self._not_prop_curr = T.bv_not(self._prop_curr)

        # Consecution context: one transition relation, frames as
        # activation-guarded clauses, queried backwards from every frame.
        self._cons = SolverContext(opt_level=pipeline)
        for term in constraints_curr:
            self._cons.add(term)
        for term in constraints_next:
            self._cons.add(term)
        # Bad-state context: no transition, permanently asserts ¬P.
        self._bad = SolverContext(opt_level=pipeline)
        for term in constraints_curr:
            self._bad.add(term)
        self._bad.add(self._not_prop_curr)
        # Initiation context: Init plus the step constraints.
        self._init = SolverContext(opt_level=pipeline)
        for term in constraints_curr:
            self._init.add(term)
        self._init.add(self._init_term)
        # Lifting context for bad states: asserts P, so a bad state's cube
        # literals are jointly UNSAT and the core names the bits that
        # already force the violation.
        self._safe = SolverContext(opt_level=pipeline)
        for term in constraints_curr:
            self._safe.add(term)
        self._safe.add(self._prop_curr)

        # Frame activation variables and delta-encoded cube store.
        # acts[0] guards Init inside the consecution context; acts[i >= 1]
        # guard the clauses stored at frame i (in cons and bad contexts).
        self._acts: list[BV] = []
        self._act_tids: set[int] = set()
        self._frames: list[list[Cube]] = []
        # The infinite frame F_inf: clauses inductive relative to F_inf
        # alone hold at every depth.  One permanent activation variable
        # guards them and is assumed by every frame's assumption set, so
        # every query — consecution, bad-state, propagation — benefits and
        # the clauses are never re-pushed.
        self._act_inf = T.fresh_var(f"pdr_actinf_{property_name}", 1)
        self._frames_inf: list[Cube] = []
        self._ensure_frame(0)
        self._cons.add(T.bv_or(T.bv_not(self._acts[0]), self._init_term))

        # Cached bit-literal terms.
        self._curr_bits: dict[tuple[str, int], BV] = {}
        self._next_bits: dict[tuple[str, int], BV] = {}
        self._input_bits: dict[tuple[str, int], BV] = {}
        self._input_vars = {s.name: frames.input_term(s.name, 0) for s in reduced.inputs}

    # ------------------------------------------------------------ frame store

    def _ensure_frame(self, k: int) -> None:
        while len(self._acts) <= k:
            index = len(self._acts)
            act = T.fresh_var(f"pdr_act{index}_{self.property_name}", 1)
            self._acts.append(act)
            self._act_tids.add(act.tid)
            self._frames.append([])

    def _frame_assumptions(self, k: int) -> list[BV]:
        """Activation variables selecting ``F_k`` (frames ``k..top`` + F_inf)."""
        return [self._act_inf, *self._acts[k:]]

    # ------------------------------------------------------------- cube terms

    def _curr_bit(self, name: str, bit: int) -> BV:
        key = (name, bit)
        term = self._curr_bits.get(key)
        if term is None:
            term = T.bv_extract(self._curr_vars[name], bit, bit)
            self._curr_bits[key] = term
        return term

    def _next_bit(self, name: str, bit: int) -> BV:
        key = (name, bit)
        term = self._next_bits.get(key)
        if term is None:
            term = T.bv_extract(self._next_exprs[name], bit, bit)
            self._next_bits[key] = term
        return term

    def _lit_curr(self, lit: CubeLit) -> BV:
        name, bit, value = lit
        term = self._curr_bit(name, bit)
        return term if value else T.bv_not(term)

    def _lit_next(self, lit: CubeLit) -> BV:
        name, bit, value = lit
        term = self._next_bit(name, bit)
        return term if value else T.bv_not(term)

    def _input_lit(self, name: str, bit: int, value: bool) -> BV:
        key = (name, bit)
        term = self._input_bits.get(key)
        if term is None:
            term = T.bv_extract(self._input_vars[name], bit, bit)
            self._input_bits[key] = term
        return term if value else T.bv_not(term)

    def _clause_curr(self, cube: Cube) -> list[BV]:
        """``¬cube`` over the current-state variables, as clause literals."""
        return [T.bv_not(self._lit_curr(lit)) for lit in cube]

    def _clause_symbols(self, cube: Cube) -> BV:
        """``¬cube`` over the transition system's state symbols."""
        return cube_clause_term(self.ts, cube)

    def _extract_cube(self, model: dict[str, int]) -> Cube:
        """Full-state cube from a solver model."""
        lits: list[CubeLit] = []
        for name, width in self._state_widths.items():
            value = model.get(self._curr_vars[name].name or "", 0)
            for bit in range(width):
                lits.append((name, bit, bool((value >> bit) & 1)))
        return tuple(sorted(lits))

    # ---------------------------------------------------------------- queries

    def _check(self, ctx: SolverContext, assumptions, need_model: bool):
        budget = self.conflict_budget
        if self.total_conflict_budget is not None:
            remaining = self.total_conflict_budget - self._conflicts_spent
            if remaining <= 0:
                raise _GiveUp()
            budget = remaining if budget is None else min(budget, remaining)
        before = ctx.stats.conflicts
        result = ctx.check(
            assumptions=assumptions,
            conflict_budget=budget,
            full_model=need_model,
            need_model=need_model,
        )
        # Each query charges its conflicts plus one: obligation storms on
        # buggy models are dominated by propagation-only queries (measured
        # ~0.2 conflicts/query), so a pure conflict count would never bound
        # them.  The +1 makes the total budget also a query budget.
        self._conflicts_spent += 1 + ctx.stats.conflicts - before
        if result.satisfiable is None:
            raise _GiveUp()
        return result

    def _intersects_init(self, cube: Cube) -> bool:
        """Does any ``Init``-state (satisfying the constraints) match ``cube``?"""
        self.stats.init_queries += 1
        result = self._check(
            self._init,
            [self._lit_curr(lit) for lit in cube],
            need_model=False,
        )
        return bool(result.satisfiable)

    def _extract_input_lits(self, model: dict[str, int]) -> list[BV]:
        """The model's input assignment as per-bit assumption terms."""
        lits: list[BV] = []
        for name, var in self._input_vars.items():
            value = model.get(var.name, 0)
            for bit in range(var.width):
                lits.append(self._input_lit(name, bit, bool((value >> bit) & 1)))
        return lits

    def _lift_cube(self, cube: Cube, core: Optional[list[BV]]) -> Cube:
        """Keep only the cube literals named by a failed-assumption core."""
        if core is None:
            return cube
        core_ids = {term.tid for term in core}
        lifted = tuple(
            lit for lit in cube if self._lit_curr(lit).tid in core_ids
        )
        return lifted if lifted else cube

    def _lift_bad(self, cube: Cube) -> Cube:
        """Shrink a bad state to the bits that already force ``¬P``.

        The lifting context asserts ``P``, so the state's literals are
        jointly UNSAT there and the core names the responsible bits: every
        state matching them (and the constraints) violates the property.
        """
        self.stats.lift_queries += 1
        result = self._check(
            self._safe, [self._lit_curr(lit) for lit in cube], need_model=False
        )
        if result.satisfiable is not False:
            return cube
        return self._lift_cube(cube, result.core)

    def _check_under_clause(
        self, clause: list[BV], assumptions: list[BV], need_model: bool
    ):
        """A consecution query with ``clause`` asserted for this query only.

        The clause is one CNF clause in a scope that is popped afterwards,
        also when the query gives up, so the query leaves one retired
        activation variable behind and no gates.
        """
        self._cons.push()
        try:
            self._cons.add_clause(clause)
            return self._check(self._cons, assumptions, need_model=need_model)
        finally:
            self._cons.pop()

    def _lift_predecessor(self, cube: Cube, input_lits: list[BV], succ: Cube) -> Cube:
        """Shrink a concrete predecessor to the bits forcing the transition.

        The transition functions are deterministic, so the predecessor's
        state and input literals together with ``¬succ'`` are UNSAT in the
        consecution context; the core's state literals describe a whole
        family of states that — under the same inputs — all step into the
        successor cube.  (The frame clauses asserted in the context are
        activation-guarded and their activation variables are left free, so
        they cannot contribute to the refutation.)
        """
        self.stats.lift_queries += 1
        assumptions = [self._lit_curr(lit) for lit in cube]
        assumptions.extend(input_lits)
        result = self._check_under_clause(
            [T.bv_not(self._lit_next(lit)) for lit in succ],
            assumptions,
            need_model=False,
        )
        if result.satisfiable is not False:
            return cube
        return self._lift_cube(cube, result.core)

    def _relative_induction(self, cube: Cube, frame: int, need_model: bool = True):
        """SAT query ``F_{frame-1} ∧ ¬cube ∧ T ∧ cube'``.

        UNSAT means no ``F_{frame-1}``-state outside the cube can step into
        it, so its negated clause may strengthen frames ``1..frame``.  The
        per-literal ``cube'`` assumptions make the failed-assumption core
        name exactly the literals the refutation needed; ``¬cube`` is a
        query-local clause (:meth:`_check_under_clause`).  Callers that only
        consume the verdict/core (generalisation trials) pass
        ``need_model=False`` and skip model reconstruction.
        """
        self.stats.consecution_queries += 1
        assumptions = self._frame_assumptions(frame - 1)
        assumptions.extend(self._lit_next(lit) for lit in cube)
        return self._check_under_clause(
            self._clause_curr(cube), assumptions, need_model=need_model
        )

    # ----------------------------------------------------------- strengthening

    def _retire_subsumed(self, cube: Cube, frame: int) -> None:
        """Retire stored cubes that a newly added ``cube`` subsumes.

        A smaller cube blocks a superset of states, so its clause makes
        every superset cube's clause redundant.  Only the frame *store*
        shrinks — the retired clauses stay asserted in the solver contexts
        (activation-guarded, sound but idle) — which keeps ``_is_blocked``,
        propagation and invariant extraction from re-visiting them.  A cube
        stored at frame ``i`` guards exactly ``F_1..F_i``, so only levels
        ``<= frame`` are covered by the newcomer.
        """
        lits = set(cube)
        top = min(frame, len(self._frames) - 1)
        for level in range(1, top + 1):
            stored = self._frames[level]
            survivors = [d for d in stored if not set(d).issuperset(lits)]
            if len(survivors) != len(stored):
                self._frames[level] = survivors

    def _add_blocked(self, cube: Cube, frame: int) -> None:
        """Store ``¬cube`` at ``frame`` (delta encoding) in both contexts."""
        self._ensure_frame(frame)
        self._retire_subsumed(cube, frame)
        self._frames[frame].append(cube)
        clause = [T.bv_not(self._acts[frame]), *self._clause_curr(cube)]
        self._cons.add_clause(clause)
        self._bad.add_clause(clause)
        self.stats.cubes_blocked += 1

    def _add_inf(self, cube: Cube) -> None:
        """Promote ``¬cube`` to the infinite frame ``F_inf``.

        The clause is inductive without any finite frame's help, so it
        holds at every depth: it subsumes copies at every finite level, is
        never pushed again, and strengthens every future query through the
        permanently assumed ``act_inf``.
        """
        self._retire_subsumed(cube, len(self._frames) - 1)
        self._frames_inf.append(cube)
        clause = [T.bv_not(self._act_inf), *self._clause_curr(cube)]
        self._cons.add_clause(clause)
        self._bad.add_clause(clause)

    def _admit_seed_lemmas(self) -> None:
        """Filter the seeded candidate cubes and promote survivors to F_inf.

        Admission requires exactly what soundness of ``F_inf`` requires:

        * *initiation* — no constraint-satisfying initial state matches the
          cube (checked per cube on the initiation context);
        * *consecution* — ``Seeds ∧ F_inf ∧ T ∧ cube'`` is UNSAT, where
          ``Seeds`` is the conjunction of the surviving candidates' clauses.

        Consecution is checked as a greatest fixpoint: every round asserts
        the current candidates under a fresh activation variable, queries
        each one, and drops the failures; dropping a cube weakens ``Seeds``,
        so the remaining cubes are re-checked until a round drops nothing.
        Whatever survives is jointly inductive and Init-disjoint — i.e. an
        over-approximation of the reachable states — so promotion to the
        permanently assumed infinite frame cannot change any verdict, only
        prune unreachable states from every later query.

        Malformed candidates (empty cube, unknown state name — e.g. a latch
        outside this property's cone — or an out-of-range bit index) are
        rejected up front rather than raised: seeds are advisory by design.
        """
        candidates: list[Cube] = []
        seen: set[Cube] = set()
        for raw in self._seed_lemmas:
            cube = tuple(sorted(set(raw)))
            if cube in seen:
                continue
            seen.add(cube)
            well_formed = bool(cube) and all(
                isinstance(value, bool)
                and name in self._state_widths
                and 0 <= bit < self._state_widths[name]
                for name, bit, value in cube
            )
            if not well_formed or self._intersects_init(cube):
                self.stats.seed_lemmas_rejected += 1
                continue
            candidates.append(cube)
        while candidates:
            act = T.fresh_var(f"pdr_actseed_{self.property_name}", 1)
            guard = T.bv_not(act)
            for cube in candidates:
                self._cons.add_clause([guard, *self._clause_curr(cube)])
            survivors: list[Cube] = []
            dropped = 0
            for cube in candidates:
                self.stats.consecution_queries += 1
                result = self._check(
                    self._cons,
                    [self._act_inf, act, *(self._lit_next(lit) for lit in cube)],
                    need_model=False,
                )
                if result.satisfiable is False:
                    survivors.append(cube)
                else:
                    dropped += 1
            if dropped == 0:
                for cube in survivors:
                    self._add_inf(cube)
                    self.stats.seed_lemmas_admitted += 1
                return
            self.stats.seed_lemmas_rejected += dropped
            # The failed round's guarded clauses stay asserted but inert:
            # their activation variable is never assumed again.
            candidates = survivors

    def _is_blocked(self, cube: Cube, frame: int) -> bool:
        """Syntactic subsumption: a stored cube at ``>= frame`` covers this one."""
        lits = set(cube)
        for blocked in self._frames_inf:
            if lits.issuperset(blocked):
                return True
        for level in range(frame, len(self._frames)):
            for blocked in self._frames[level]:
                if lits.issuperset(blocked):
                    return True
        return False

    def _core_shrink(
        self, lits: list[CubeLit], core: Optional[list[BV]]
    ) -> list[CubeLit]:
        """Drop every literal whose primed assumption the core did not need.

        Sound without re-querying: the kept assumptions are a superset of
        the core, and the shrunken ``¬cube`` assumption only strengthens
        the query.  Dropping literals can make the cube reach into
        ``Init``; re-add dropped literals until it is disjoint again (the
        original cube is Init-disjoint, so the repair terminates).
        """
        if core is None:
            return lits
        core_ids = {term.tid for term in core}
        kept = [lit for lit in lits if self._lit_next(lit).tid in core_ids]
        dropped = [lit for lit in lits if self._lit_next(lit).tid not in core_ids]
        if not dropped:
            # Nothing shrank: the input cube is already known Init-disjoint,
            # so skip the (solver-query) repair check entirely.
            return kept
        while not kept or self._intersects_init(tuple(sorted(kept))):
            if not dropped:
                kept = list(lits)
                break
            kept.append(dropped.pop())
        return kept

    def _generalize(
        self, cube: Cube, frame: int, core: Optional[list[BV]], depth: int = 0
    ) -> Cube:
        """Shrink a refuted cube while keeping it refuted and Init-disjoint.

        The free shrink comes from the blocking query's own core
        (:meth:`_core_shrink`).  A MIC-style pass then tries to drop each
        surviving literal with a verdict-only relative-induction query; when
        a drop trial fails while ``depth`` is below ``_CTG_DEPTH``, the
        trial's counterexample-to-generalisation is blocked at the preceding
        frame before the trial is retried (:meth:`_ctg_down`).  ``depth`` is
        the current CTG recursion depth.
        """
        kept = self._core_shrink(list(cube), core)
        if len(kept) > 1:
            kept = self._mic(kept, frame, depth)
        return tuple(sorted(kept))

    def _mic(self, kept: list[CubeLit], frame: int, depth: int) -> list[CubeLit]:
        """Try to drop each literal in turn, keeping the cube inductive.

        Every successful trial's *own* core shrinks the cube further, so
        one query often removes several literals at once.
        """
        for lit in list(kept):
            if len(kept) <= 1:
                break
            if lit not in kept:
                continue  # already dropped by an earlier trial's core
            candidate = [q for q in kept if q != lit]
            if self._intersects_init(tuple(sorted(candidate))):
                continue
            shrunk = self._ctg_down(candidate, frame, depth)
            if shrunk is not None:
                kept = shrunk
        return kept

    def _ctg_down(
        self, candidate: list[CubeLit], frame: int, depth: int
    ) -> Optional[list[CubeLit]]:
        """One MIC drop trial with CTG handling.

        Returns the (further core-shrunk) literal list when the candidate
        cube is relatively inductive — possibly after blocking up to
        ``_MAX_CTGS`` counterexamples-to-generalisation at the preceding
        frame — or ``None`` when the drop must be abandoned.  A CTG is the
        ``F_{frame-1}`` predecessor state the failed trial's model
        exposes: blocking *it* (recursively generalised at ``depth + 1``)
        strengthens ``F_{frame-1}`` enough that the retried trial often
        succeeds, yielding much shorter clauses on the deep QED models.
        """
        ctgs = 0
        while True:
            want_model = depth < _CTG_DEPTH and frame > 1 and ctgs < _MAX_CTGS
            trial = tuple(sorted(candidate))
            result = self._relative_induction(trial, frame, need_model=want_model)
            if result.satisfiable is False:
                return self._core_shrink(candidate, result.core)
            if not want_model:
                return None
            ctg_cube = self._extract_cube(result.model)
            if self._intersects_init(ctg_cube):
                return None
            ctg_result = self._relative_induction(ctg_cube, frame - 1, need_model=False)
            if ctg_result.satisfiable is not False:
                return None
            blocked = self._generalize(ctg_cube, frame - 1, ctg_result.core, depth + 1)
            # Push the CTG clause as far forward as it stays inductive so
            # it keeps helping at the trial's own frame.
            level = frame - 1
            while level < len(self._acts) - 1:
                push = self._relative_induction(blocked, level + 1, need_model=False)
                if push.satisfiable is not False:
                    break
                level += 1
            self._add_blocked(blocked, level)
            self.stats.ctgs_blocked += 1
            ctgs += 1

    # ------------------------------------------------------------- main loop

    def _block_obligation(self, bad: _Obligation, frontier: int) -> bool:
        """Discharge ``bad`` (a frontier bad cube); False means counterexample."""
        queue: list[tuple[int, int, _Obligation]] = []
        seq = 0
        heapq.heappush(queue, (bad.frame, seq, bad))
        while queue:
            frame, _, ob = heapq.heappop(queue)
            self.stats.obligations += 1
            if frame == 0 or self._intersects_init(ob.cube):
                # A frame-0 cube came from a query that assumed F_0 = Init,
                # and a lifted cube may reach into Init from any frame:
                # either way an initial state reaches the bad cube in
                # ``ob.steps`` transitions.
                self.cex_steps = ob.steps
                return False
            if self._is_blocked(ob.cube, frame):
                continue
            result = self._relative_induction(ob.cube, frame)
            if result.satisfiable is False:
                cube = self._generalize(ob.cube, frame, result.core)
                self._add_blocked(cube, frame)
                if frame < frontier:
                    # Chase the same cube at the next frame: its states may
                    # still be reachable in more steps within the frontier.
                    seq += 1
                    heapq.heappush(queue, (frame + 1, seq, _Obligation(
                        ob.cube, frame + 1, ob.steps
                    )))
            else:
                pred_cube = self._lift_predecessor(
                    self._extract_cube(result.model),
                    self._extract_input_lits(result.model),
                    ob.cube,
                )
                seq += 1
                heapq.heappush(
                    queue,
                    (frame - 1, seq, _Obligation(pred_cube, frame - 1, ob.steps + 1)),
                )
                seq += 1
                heapq.heappush(queue, (frame, seq, ob))
        return True

    def _propagate(self, frontier: int) -> Optional[int]:
        """Push clauses forward; returns the index of an inductive frame.

        Push queries are verdict-only (no model is ever read), and every
        successful push inspects its failed-assumption core: when no
        *finite* frame's activation variable appears in it, the refutation
        used only ``F_inf`` and the clause's own induction hypothesis — the
        clause is inductive at every depth and is promoted to ``F_inf``
        instead of crawling one frame per pass.
        """
        self._ensure_frame(frontier + 1)
        for level in range(1, frontier + 1):
            for cube in list(self._frames[level]):
                if cube not in self._frames[level]:
                    continue  # retired by a subsuming push this pass
                result = self._relative_induction(cube, level + 1, need_model=False)
                if result.satisfiable is False:
                    self._frames[level].remove(cube)
                    if result.core is not None and not any(
                        term.tid in self._act_tids for term in result.core
                    ):
                        self._add_inf(cube)
                    else:
                        self._add_blocked(cube, level + 1)
                        self.stats.cubes_blocked -= 1  # moved, not newly blocked
            if not self._frames[level]:
                return level
        return None

    def _result(self, **kwargs) -> PdrResult:
        return PdrResult(
            property_name=self.property_name,
            stats=self.stats,
            **kwargs,
        )

    def prove(self) -> PdrResult:
        frontier = 0
        try:
            # Depth 0: an initial state violating P needs no frames.
            self.stats.init_queries += 1
            base = self._check(
                self._init, [self._not_prop_curr], need_model=False
            )
            if base.satisfiable:
                self.cex_steps = 0
                return self._result(proven=False, frames_explored=0)

            if self._seed_lemmas:
                self._admit_seed_lemmas()

            frontier = 1
            self._ensure_frame(1)
            while frontier <= self.max_frames:
                while True:
                    self.stats.bad_queries += 1
                    bad = self._check(
                        self._bad,
                        self._frame_assumptions(frontier),
                        need_model=True,
                    )
                    if not bad.satisfiable:
                        break
                    cube = self._lift_bad(self._extract_cube(bad.model))
                    obligation = _Obligation(cube, frontier, 0)
                    if not self._block_obligation(obligation, frontier):
                        return self._result(proven=False, frames_explored=frontier)
                inductive = self._propagate(frontier)
                if inductive is not None:
                    cubes = [
                        cube
                        for level in range(inductive + 1, len(self._frames))
                        for cube in self._frames[level]
                    ]
                    cubes.extend(self._frames_inf)
                    return self._result(
                        proven=True,
                        frames_explored=frontier,
                        invariant=[self._clause_symbols(cube) for cube in cubes],
                    )
                frontier += 1
        except _GiveUp:
            pass
        return self._result(proven=None, frames_explored=min(frontier, self.max_frames))
