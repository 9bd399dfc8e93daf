"""Flat clause-arena CDCL kernel: the fast drop-in for :class:`SatSolver`.

The reference solver (:mod:`repro.sat.solver`) stores every clause as a
``_Clause`` object holding a Python list of DIMACS literals.  On the PDR
obligation storms that dominate full-scale runs, the propagation loop then
pays an attribute lookup, a method call and a list indirection *per visited
literal* — the profile is pure interpreter overhead, not search.

:class:`ArenaSolver` keeps the MiniSat recipe (two-watched-literal
propagation with blockers, first-UIP learning, VSIDS, phase saving, Luby
restarts, ``analyzeFinal`` assumption cores) with one fixed set of
conflict-quality heuristics on top:

* **LBD-tiered retention** (glucose-style): *core* learned clauses (LBD <=
  2) survive every reduction, *locals* (LBD > 6) go before *mids*, and the
  least active go first within a tier.
* **Recursive minimisation**: MiniSat's ``litRedundant`` over the whole
  implication graph, not just one reason level.
* **Target phases**: phase saving plus a snapshot of the deepest trail of
  the call, restored on every restart.

It rebuilds the data layout around a single flat ``array('i')``:

* **Clause arena.**  Every clause lives inline in one int array as
  ``[size, act_slot, lit0, .., lit_{n-1}]``; a *clause ref* is the index of
  ``lit0``.  ``act_slot`` is ``-1`` for problem clauses and an index into
  the learned-activity side table otherwise — headers are reachable as
  ``arena[ref - 2]``/``arena[ref - 1]`` with plain integer arithmetic.
* **Encoded literals.**  Literals are stored pre-encoded (``2v`` for ``v``,
  ``2v + 1`` for ``¬v``), so negation is ``enc ^ 1``, the variable is
  ``enc >> 1``, and a literal's truth value is a single list index into a
  per-literal assignment table — no sign branch, no ``abs()``.
* **Index-array watchers.**  ``watches[enc]`` is a flat Python list of
  ``blocker, ref`` pairs; a satisfied blocker skips the clause without
  touching the arena at all.
* **Allocation-free hot loops.**  ``_propagate`` and ``_analyze`` hoist
  every container into a local and inline value lookup and enqueue; the
  only allocations on the conflict path are the learned clause itself.
* **Arena garbage collection.**  The learned database is bounded by a
  geometrically growing limit; on reduction the surviving clauses are
  *compacted* into a fresh arena (refs remapped, watchers rebuilt from the
  watched positions), so long runs neither fragment nor leak.

The public surface — ``add_clause``/``add_cnf``/``reserve``,
``solve(assumptions, conflict_budget, need_model)``, failed-assumption
cores, per-call budgets, root-UNSAT latching vs reusable assumption-UNSAT,
``stats`` — matches :class:`SatSolver` exactly; the plain-MiniSat reference
solver stays alive as the differential baseline (see ``REPRO_SAT_BACKEND``
in :mod:`repro.solve.backend`).
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, Optional, Sequence

from repro.errors import SatError
from repro.sat.cnf import CNF
from repro.sat.sanitize import (
    check_arena_compaction,
    check_arena_invariants,
    check_arena_learned,
    check_arena_model,
    check_arena_reasons,
    check_arena_trail,
    check_arena_watches,
    resolve_sanitize,
)
from repro.sat.solver import (
    _CLA_DECAY,
    _INITIAL_LEARNED_LIMIT,
    _RESTART_UNIT,
    _VAR_DECAY,
    SatResult,
    SolverStats,
    _luby,
)

#: LBD retention tiers.  Core clauses (LBD <= _LBD_CORE) are never deleted;
#: mid clauses (LBD <= _LBD_MID) are only deleted after every local clause.
_LBD_CORE = 2
_LBD_MID = 6


class ArenaSolver:
    """CDCL over a flat clause arena (drop-in for :class:`SatSolver`).

    Typical usage is identical to the reference solver::

        solver = ArenaSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.satisfiable
    """

    def __init__(self, cnf: CNF | None = None, sanitize: Optional[bool] = None):
        self._sanitize = resolve_sanitize(sanitize)
        # Target phases: snapshot of the deepest trail seen, restored on
        # restart so the search re-approaches its best partial assignment.
        self._target_phase: Optional[list[bool]] = None
        self._best_trail = 0
        self._num_vars = 0
        # Clause storage: [size, act_slot, lits...] records; refs point at
        # the first literal of a record.  ``act_slot`` indexes the parallel
        # learned-clause side tables (activity and LBD).
        self._arena = array("i")
        self._clause_refs: list[int] = []
        self._learned_refs: list[int] = []
        self._cla_act: list[float] = []
        self._cla_lbd: list[int] = []
        # watches[enc] is a flat [blocker, ref, blocker, ref, ...] list of
        # the clauses watching encoded literal ``enc``.
        self._watches: list[list[int]] = [[], []]
        # Per-encoded-literal truth value: 1 true, -1 false, 0 unassigned.
        self._values: list[int] = [0, 0]
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]  # per var: clause ref or -1
        self._restart_interval = _RESTART_UNIT
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._order_heap: list[tuple[float, int]] = []
        self._trail: list[int] = []  # encoded literals
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True
        self._learned_limit = _INITIAL_LEARNED_LIMIT
        self._seen = bytearray(1)
        self.stats = SolverStats()
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ setup

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self._num_vars += 1
            self._values.append(0)
            self._values.append(0)
            self._level.append(0)
            self._reason.append(-1)
            self._phase.append(False)
            self._activity.append(0.0)
            self._watches.append([])
            self._watches.append([])
            self._seen.append(0)
            heapq.heappush(self._order_heap, (0.0, self._num_vars))

    def reserve(self, num_vars: int) -> None:
        """Make sure variables ``1..num_vars`` exist even if unconstrained."""
        self._ensure_var(num_vars)

    @property
    def num_clauses(self) -> int:
        """Problem clauses currently attached (units propagate, so excluded)."""
        return len(self._clause_refs)

    @property
    def num_learned(self) -> int:
        """Learned clauses currently in the database (post reduction/GC)."""
        return len(self._learned_refs)

    def add_cnf(self, cnf: CNF) -> None:
        """Add all clauses of ``cnf`` (and reserve its variable range)."""
        self._ensure_var(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause; duplicate literals are removed and tautologies dropped."""
        if not self._ok:
            return
        seen: dict[int, int] = {}
        lits: list[int] = []
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise SatError("literal 0 is not allowed in a clause")
            self._ensure_var(abs(lit))
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            seen[lit] = 1
            lits.append(lit)
        if not lits:
            self._ok = False
            return
        if self._trail_lim:
            raise SatError("clauses may only be added at decision level 0")
        # Drop literals already false at level 0; satisfied clauses are skipped.
        values = self._values
        level = self._level
        pruned: list[int] = []
        for lit in lits:
            enc = lit + lit if lit > 0 else 1 - lit - lit
            val = values[enc]
            if val == 1 and level[enc >> 1] == 0:
                return
            if val == -1 and level[enc >> 1] == 0:
                continue
            pruned.append(enc)
        if not pruned:
            self._ok = False
            return
        if len(pruned) == 1:
            if not self._enqueue(pruned[0], -1):
                self._ok = False
            elif self._propagate() >= 0:
                self._ok = False
            return
        self._alloc(pruned, learned=False)

    def _alloc(self, enc_lits: Sequence[int], learned: bool, lbd: int = 0) -> int:
        """Append a clause record to the arena and attach its watches."""
        arena = self._arena
        if learned:
            slot = len(self._cla_act)
            self._cla_act.append(0.0)
            self._cla_lbd.append(lbd)
        else:
            slot = -1
        arena.append(len(enc_lits))
        arena.append(slot)
        ref = len(arena)
        arena.extend(enc_lits)
        (self._learned_refs if learned else self._clause_refs).append(ref)
        w0 = self._watches[enc_lits[0]]
        w0.append(enc_lits[1])
        w0.append(ref)
        w1 = self._watches[enc_lits[1]]
        w1.append(enc_lits[0])
        w1.append(ref)
        return ref

    # ------------------------------------------------------------- assignment

    def _enqueue(self, enc: int, reason_ref: int) -> bool:
        values = self._values
        val = values[enc]
        if val:
            return val > 0
        values[enc] = 1
        values[enc ^ 1] = -1
        var = enc >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_ref
        self._phase[var] = not (enc & 1)
        self._trail.append(enc)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause ref or ``-1``.

        The inner loop is the hot path of the whole stack: every container
        is hoisted into a local, literal values are single list indexes,
        and the implied-literal enqueue is inlined.
        """
        values = self._values
        arena = self._arena
        watches = self._watches
        trail = self._trail
        reason = self._reason
        level = self._level
        dl = len(self._trail_lim)
        qhead = self._qhead
        props = 0
        confl = -1
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1
            fl = p ^ 1  # the literal falsified by this assignment
            ws = watches[fl]
            i = 0
            j = 0
            n = len(ws)
            while i < n:
                blocker = ws[i]
                if values[blocker] == 1:
                    ws[j] = blocker
                    ws[j + 1] = ws[i + 1]
                    j += 2
                    i += 2
                    continue
                ref = ws[i + 1]
                i += 2
                # Ensure the falsified literal sits at position 1.
                first = arena[ref]
                if first == fl:
                    first = arena[ref + 1]
                    arena[ref] = first
                    arena[ref + 1] = fl
                if first != blocker and values[first] == 1:
                    ws[j] = first
                    ws[j + 1] = ref
                    j += 2
                    continue
                # Look for a replacement watch among the tail literals.
                end = ref + arena[ref - 2]
                k = ref + 2
                while k < end:
                    if values[arena[k]] != -1:
                        break
                    k += 1
                if k < end:
                    lk = arena[k]
                    arena[ref + 1] = lk
                    arena[k] = fl
                    wl = watches[lk]
                    wl.append(first)
                    wl.append(ref)
                    continue
                # Clause is unit or conflicting on ``first``.
                ws[j] = first
                ws[j + 1] = ref
                j += 2
                if values[first] == -1:
                    confl = ref
                    while i < n:  # keep the unvisited watchers
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        j += 2
                        i += 2
                    break
                values[first] = 1
                values[first ^ 1] = -1
                var = first >> 1
                level[var] = dl
                reason[var] = ref
                trail.append(first)
            del ws[j:]
            if confl >= 0:
                break
        self._qhead = len(trail) if confl >= 0 else qhead
        self.stats.propagations += props
        return confl

    # --------------------------------------------------------------- analysis

    def _lit_redundant(
        self,
        q: int,
        in_learned: set[int],
        levels: set[int],
        removable: set[int],
        failed: set[int],
    ) -> bool:
        """MiniSat's ``litRedundant`` over arena refs (encoded literal ``q``).

        A learned-clause literal is redundant when every literal of its
        reason clause is assigned at level 0, already in the learned clause,
        or itself (recursively) redundant.  Iterative DFS over the
        implication graph, memoised per learned clause through
        ``removable``/``failed``, pruned by the set of decision ``levels``
        present in the clause (a level absent from the clause cannot be
        cancelled).
        """
        arena = self._arena
        level = self._level
        reason = self._reason
        var0 = q >> 1
        if var0 in removable:
            return True
        if var0 in failed:
            return False
        ref0 = reason[var0]
        if ref0 < 0:
            return False
        # Explicit DFS stack of (var, reason ref, next literal offset).
        stack: list[tuple[int, int, int]] = [(var0, ref0, 0)]
        while stack:
            var, ref, idx = stack.pop()
            size = arena[ref - 2]
            descended = False
            while idx < size:
                rv = arena[ref + idx] >> 1
                idx += 1
                if (
                    rv == var
                    or level[rv] == 0
                    or rv in in_learned
                    or rv in removable
                ):
                    continue
                rref = reason[rv]
                if rref < 0 or level[rv] not in levels or rv in failed:
                    failed.add(var)
                    for v, _, _ in stack:
                        failed.add(v)
                    return False
                stack.append((var, ref, idx))
                stack.append((rv, rref, 0))
                descended = True
                break
            if not descended:
                removable.add(var)
        return True

    def _analyze(self, confl: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis over arena refs.

        Returns the learned clause as encoded literals (asserting literal
        first), the backjump level, and the clause's LBD (distinct decision
        levels).
        """
        arena = self._arena
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = self._seen
        activity = self._activity
        cla_act = self._cla_act
        heap = self._order_heap
        heappush = heapq.heappush
        var_inc = self._var_inc
        num_vars = self._num_vars
        dl = len(self._trail_lim)
        learned: list[int] = [0]
        touched: list[int] = []
        counter = 0
        p = -1
        index = len(trail) - 1
        ref = confl

        while True:
            slot = arena[ref - 1]
            if slot >= 0:
                act = cla_act[slot] + self._cla_inc
                cla_act[slot] = act
                if act > 1e20:
                    for s in range(len(cla_act)):
                        cla_act[s] *= 1e-20
                    self._cla_inc *= 1e-20
            start = ref if p < 0 else ref + 1
            for k in range(start, ref + arena[ref - 2]):
                q = arena[k]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    a = activity[v] + var_inc
                    activity[v] = a
                    if a > 1e100:
                        for u in range(1, num_vars + 1):
                            activity[u] *= 1e-100
                        var_inc *= 1e-100
                        a = activity[v]
                    heappush(heap, (-a, v))
                    if level[v] >= dl:
                        counter += 1
                    else:
                        learned.append(q)
            # pick the next trail literal to resolve on
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            ref = reason[v]
        learned[0] = p ^ 1
        self._var_inc = var_inc

        # Recursive conflict-clause minimisation: self-subsuming resolution
        # over the whole implication graph, so literals also drop through
        # chains of implications.
        if len(learned) > 1:
            in_learned = {q >> 1 for q in learned}
            levels = {level[q >> 1] for q in learned[1:]}
            removable: set[int] = set()
            not_removable: set[int] = set()
            minimized = [learned[0]]
            for q in learned[1:]:
                if not self._lit_redundant(
                    q, in_learned, levels, removable, not_removable
                ):
                    minimized.append(q)
            self.stats.minimized_literals += len(learned) - len(minimized)
            learned = minimized

        lbd = len({level[q >> 1] for q in learned if level[q >> 1] > 0})
        lbd = max(lbd, 1)
        if len(learned) == 1:
            backjump = 0
        else:
            max_i = 1
            max_level = level[learned[1] >> 1]
            for i in range(2, len(learned)):
                lv = level[learned[i] >> 1]
                if lv > max_level:
                    max_level = lv
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backjump = max_level
        for v in touched:
            seen[v] = 0
        return learned, backjump, lbd

    def _analyze_final(self, failed: int) -> list[int]:
        """Failed-assumption core for DIMACS assumption ``failed``.

        Same walk as the reference solver's ``analyzeFinal``: expand reason
        clauses backwards from the falsifying assignment; every reason-less
        trail entry above level 0 is an assumption decision (the solve loop
        only opens ordinary decision levels after all assumptions are
        placed), and decodes back to the literal the caller passed.
        """
        core = [failed]
        var0 = failed if failed > 0 else -failed
        if self._level[var0] == 0 or not self._trail_lim:
            return core
        arena = self._arena
        reason = self._reason
        level = self._level
        trail = self._trail
        seen = self._seen
        touched = [var0]
        seen[var0] = 1
        for index in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
            enc = trail[index]
            var = enc >> 1
            if not seen[var]:
                continue
            seen[var] = 0
            ref = reason[var]
            if ref < 0:
                core.append(-var if enc & 1 else var)
            else:
                for k in range(ref, ref + arena[ref - 2]):
                    qv = arena[k] >> 1
                    if qv != var and level[qv] > 0 and not seen[qv]:
                        seen[qv] = 1
                        touched.append(qv)
        for v in touched:
            seen[v] = 0
        return core

    def _backtrack(self, target: int) -> None:
        if len(self._trail_lim) <= target:
            return
        trail = self._trail
        values = self._values
        phase = self._phase
        reason = self._reason
        activity = self._activity
        heap = self._order_heap
        limit = self._trail_lim[target]
        count = len(trail) - limit
        if count > 64 and count * 8 >= len(heap):
            # Bulk unassignment (the per-query backtrack from a full SAT
            # assignment): one O(heap) heapify beats thousands of
            # O(log heap) pushes — but only when the unassigned block is a
            # real fraction of the heap.  On huge instances with shallow
            # backjumps, heapifying the whole heap per conflict would
            # dominate the run.
            append = heap.append
            for index in range(len(trail) - 1, limit - 1, -1):
                enc = trail[index]
                var = enc >> 1
                phase[var] = not (enc & 1)
                values[enc] = 0
                values[enc ^ 1] = 0
                reason[var] = -1
                append((-activity[var], var))
            heapq.heapify(heap)
        else:
            heappush = heapq.heappush
            for index in range(len(trail) - 1, limit - 1, -1):
                enc = trail[index]
                var = enc >> 1
                phase[var] = not (enc & 1)
                values[enc] = 0
                values[enc ^ 1] = 0
                reason[var] = -1
                heappush(heap, (-activity[var], var))
        del trail[limit:]
        del self._trail_lim[target:]
        self._qhead = limit

    # --------------------------------------------------------------- decision

    def _decide(self) -> int:
        """Pick the unassigned variable with the highest activity (or 0)."""
        values = self._values
        heap = self._order_heap
        while heap:
            _, var = heapq.heappop(heap)
            if values[var + var] == 0:
                return var
        for var in range(1, self._num_vars + 1):
            if values[var + var] == 0:
                return var
        return 0

    # ------------------------------------------------------------ learned DB

    def _reduce_db(self) -> None:
        """Drop about half of the learned clauses, tier by tier, and compact.

        Only runs once the learned database outgrows the current limit; the
        limit then grows geometrically so long incremental runs keep more
        of what they learn instead of thrashing a fixed-size cache.  Core
        clauses (LBD <= 2) survive every reduction, locals (LBD > 6) go
        before mids, and the least active go first within a tier.
        """
        if len(self._learned_refs) < self._learned_limit:
            return
        self._learned_limit += self._learned_limit >> 1
        arena = self._arena
        cla_act = self._cla_act
        cla_lbd = self._cla_lbd
        target = len(self._learned_refs) // 2
        ordered = [
            ref
            for ref in self._learned_refs
            if cla_lbd[arena[ref - 1]] > _LBD_CORE
        ]
        ordered.sort(
            key=lambda ref: (
                cla_lbd[arena[ref - 1]] <= _LBD_MID,
                cla_act[arena[ref - 1]],
            )
        )
        # Never drop clauses that are the reason of a current assignment.
        locked = {ref for ref in self._reason if ref >= 0}
        drop = {ref for ref in ordered[:target] if ref not in locked}
        if drop:
            self._collect(drop)

    def _collect(self, drop: set[int]) -> None:
        """Compact the arena, dropping ``drop``; remap refs and watchers."""
        old = self._arena
        old_act = self._cla_act
        old_lbd = self._cla_lbd
        new = array("i")
        new_act: list[float] = []
        new_lbd: list[int] = []
        remap: dict[int, int] = {}
        new_clauses: list[int] = []
        new_learned: list[int] = []
        for refs, learned, out in (
            (self._clause_refs, False, new_clauses),
            (self._learned_refs, True, new_learned),
        ):
            for ref in refs:
                if learned and ref in drop:
                    continue
                size = old[ref - 2]
                new.append(size)
                if learned:
                    new.append(len(new_act))
                    new_act.append(old_act[old[ref - 1]])
                    new_lbd.append(old_lbd[old[ref - 1]])
                else:
                    new.append(-1)
                nref = len(new)
                new.extend(old[ref : ref + size])
                remap[ref] = nref
                out.append(nref)
        self._arena = new
        self._cla_act = new_act
        self._cla_lbd = new_lbd
        self._clause_refs = new_clauses
        self._learned_refs = new_learned
        reason = self._reason
        for var in range(len(reason)):
            if reason[var] >= 0:
                reason[var] = remap[reason[var]]
        # Rebuild watchers from the watched positions (0 and 1), which the
        # propagation loop keeps authoritative; the opposite watch is the
        # natural blocker.
        for watcher in self._watches:
            del watcher[:]
        watches = self._watches
        for nref in new_clauses:
            l0 = new[nref]
            l1 = new[nref + 1]
            w = watches[l0]
            w.append(l1)
            w.append(nref)
            w = watches[l1]
            w.append(l0)
            w.append(nref)
        for nref in new_learned:
            l0 = new[nref]
            l1 = new[nref + 1]
            w = watches[l0]
            w.append(l1)
            w.append(nref)
            w = watches[l1]
            w.append(l0)
            w.append(nref)

    # ------------------------------------------------------------------ solve

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: Optional[int] = None,
        need_model: bool = True,
    ) -> SatResult:
        """Decide satisfiability under optional assumptions.

        Same contract as :meth:`SatSolver.solve`: per-call conflict budgets
        (``satisfiable=None`` when exhausted), failed-assumption cores on
        UNSAT, root-UNSAT latching, reusable assumption-UNSAT, and
        ``need_model=False`` for verdict-only callers.  The returned
        ``stats`` is a detached snapshot.
        """
        assumptions = [int(a) for a in assumptions]
        for a in assumptions:
            if a == 0:
                raise SatError("literal 0 is not allowed as an assumption")
            self._ensure_var(abs(a))
        stats = self.stats
        if not self._ok:
            return SatResult(False, stats=stats.copy(), core=[])
        self._backtrack(0)
        self._best_trail = 0  # target phases track the deepest trail per call
        if self._propagate() >= 0:
            self._ok = False
            return SatResult(False, stats=stats.copy(), core=[])
        if self._sanitize:
            check_arena_invariants(self)

        enc_assumptions = [a + a if a > 0 else 1 - a - a for a in assumptions]
        # The search loop below inlines unit propagation rather than calling
        # :meth:`_propagate`: the storm workloads make one (near-empty)
        # propagation pass per decision, and at ~10M passes per PDR run the
        # method-call overhead and per-call local re-hoisting dominate the
        # actual work.  Every container is hoisted ONCE for the whole call;
        # ``qhead`` lives in a local mirrored back into ``self._qhead``
        # before any helper that reads or writes it runs.
        values = self._values
        arena = self._arena
        watches = self._watches
        trail = self._trail
        trail_lim = self._trail_lim
        reason = self._reason
        level = self._level
        num_assumptions = len(enc_assumptions)
        restart_count = 0
        conflicts_until_restart = self._restart_interval * _luby(1)
        conflicts_seen = 0
        conflicts_spent = 0  # conflicts of this call only (budget accounting)
        qhead = self._qhead
        props = 0

        while True:
            # ---------------------------------------- inline unit propagation
            confl = -1
            dl = len(trail_lim)
            while qhead < len(trail):
                p = trail[qhead]
                qhead += 1
                props += 1
                fl = p ^ 1  # the literal falsified by this assignment
                ws = watches[fl]
                i = 0
                j = 0
                n = len(ws)
                while i < n:
                    blocker = ws[i]
                    if values[blocker] == 1:
                        ws[j] = blocker
                        ws[j + 1] = ws[i + 1]
                        j += 2
                        i += 2
                        continue
                    ref = ws[i + 1]
                    i += 2
                    # Ensure the falsified literal sits at position 1.
                    first = arena[ref]
                    if first == fl:
                        first = arena[ref + 1]
                        arena[ref] = first
                        arena[ref + 1] = fl
                    if first != blocker and values[first] == 1:
                        ws[j] = first
                        ws[j + 1] = ref
                        j += 2
                        continue
                    # Look for a replacement watch among the tail literals.
                    end = ref + arena[ref - 2]
                    k = ref + 2
                    while k < end:
                        if values[arena[k]] != -1:
                            break
                        k += 1
                    if k < end:
                        lk = arena[k]
                        arena[ref + 1] = lk
                        arena[k] = fl
                        wl = watches[lk]
                        wl.append(first)
                        wl.append(ref)
                        continue
                    # Clause is unit or conflicting on ``first``.
                    ws[j] = first
                    ws[j + 1] = ref
                    j += 2
                    if values[first] == -1:
                        confl = ref
                        while i < n:  # keep the unvisited watchers
                            ws[j] = ws[i]
                            ws[j + 1] = ws[i + 1]
                            j += 2
                            i += 2
                        break
                    values[first] = 1
                    values[first ^ 1] = -1
                    var = first >> 1
                    level[var] = dl
                    reason[var] = ref
                    trail.append(first)
                del ws[j:]
                if confl >= 0:
                    qhead = len(trail)
                    break
            # ------------------------------------------------- conflict case
            if confl >= 0:
                self._qhead = qhead
                stats.conflicts += 1
                conflicts_seen += 1
                conflicts_spent += 1
                if not trail_lim:
                    # Conflict with no open decision level: root UNSAT.
                    self._ok = False
                    stats.propagations += props
                    return SatResult(False, stats=stats.copy(), core=[])
                if len(trail) > self._best_trail:
                    # Deepest trail of this call so far: snapshot the trail
                    # polarities as the target restored on restart.  (The
                    # inline propagation loop skips per-enqueue phase
                    # writes, so the snapshot is composed from the trail.)
                    self._best_trail = len(trail)
                    target_phase = self._phase.copy()
                    for enc in trail:
                        target_phase[enc >> 1] = not (enc & 1)
                    self._target_phase = target_phase
                learned, backjump, lbd = self._analyze(confl)
                if self._sanitize:
                    check_arena_learned(self, learned)
                self._backtrack(backjump)
                qhead = self._qhead
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    ref = self._alloc(learned, learned=True, lbd=lbd)
                    stats.learned_clauses += 1
                    stats.lbd_sum += lbd
                    self._enqueue(learned[0], ref)
                self._var_inc /= _VAR_DECAY
                self._cla_inc /= _CLA_DECAY
                if conflict_budget is not None and conflicts_spent >= conflict_budget:
                    self._backtrack(0)
                    stats.propagations += props
                    return SatResult(None, stats=stats.copy())
                if conflicts_seen >= conflicts_until_restart:
                    restart_count += 1
                    stats.restarts += 1
                    conflicts_seen = 0
                    conflicts_until_restart = self._restart_interval * _luby(
                        restart_count + 1
                    )
                    self._backtrack(0)
                    if self._target_phase is not None:
                        # Target-phase reset: re-approach the deepest partial
                        # assignment seen instead of a drifted phase mix.
                        phase = self._phase
                        tp = self._target_phase
                        n = min(len(phase), len(tp))
                        phase[:n] = tp[:n]
                    if self._sanitize:
                        check_arena_trail(self)
                        learned_before = len(self._learned_refs)
                        self._reduce_db()
                        if len(self._learned_refs) < learned_before:
                            check_arena_compaction(self)
                    else:
                        self._reduce_db()
                    # Reduction may have compacted into a fresh arena (the
                    # watch/value/reason containers are reused in place).
                    arena = self._arena
                    qhead = self._qhead
                continue

            # No conflict: place the next assumption (levels 0..A-1 are
            # assumption levels, in order, so the next one is simply
            # assumptions[decision_level]) or make a heuristic decision.
            self._qhead = qhead
            dl = len(trail_lim)
            next_enc = -1
            while dl < num_assumptions:
                enc = enc_assumptions[dl]
                val = values[enc]
                if val == 1:
                    # Already satisfied: open an empty level to keep the
                    # level <-> assumption-index correspondence.
                    trail_lim.append(len(trail))
                    dl += 1
                    continue
                if val == -1:
                    # UNSAT under assumptions only: compute the failed core
                    # and leave the instance healthy for later queries.
                    core = self._analyze_final(assumptions[dl])
                    self._backtrack(0)
                    if self._sanitize:
                        check_arena_invariants(self)
                    stats.propagations += props
                    return SatResult(False, stats=stats.copy(), core=core)
                next_enc = enc
                break
            if next_enc < 0:
                var = self._decide()
                if var == 0:
                    if self._sanitize:
                        check_arena_model(self)
                        check_arena_watches(self)
                        check_arena_reasons(self)
                    model: dict[int, bool] = {}
                    if need_model:
                        model = {
                            v: values[v + v] == 1
                            for v in range(1, self._num_vars + 1)
                        }
                    stats.propagations += props
                    result = SatResult(True, model=model, stats=stats.copy())
                    self._backtrack(0)
                    return result
                stats.decisions += 1
                next_enc = var + var if self._phase[var] else var + var + 1
            trail_lim.append(len(trail))
            if len(trail_lim) > stats.max_decision_level:
                stats.max_decision_level = len(trail_lim)
            self._enqueue(next_enc, -1)
