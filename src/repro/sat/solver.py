"""Conflict-driven clause-learning (CDCL) SAT solver: the reference kernel.

The implementation is plain MiniSat (Een & Sorensson, SAT 2003):

* two-watched-literal unit propagation,
* first-UIP conflict analysis with one-level clause minimisation,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* learned-clause database reduction based on activity.

It also supports solving under assumptions, which the incremental users
(CEGIS, BMC and IC3/PDR) rely on.  An UNSAT answer under assumptions
carries a *failed-assumption core* (MiniSat's ``analyzeFinal``): the subset
of assumptions that already forces the conflict.  Assumption-UNSAT leaves
the solver reusable; only a root-level (assumption-free) contradiction
latches the instance unsatisfiable for good.

:class:`SatSolver` is the readable differential baseline for the production
kernel, :class:`~repro.sat.arena.ArenaSolver`, which adds LBD-tiered
retention, recursive minimisation and target phases on a flat clause
arena.  This module also holds what both kernels share:
:class:`SolverStats` (the one record of a kernel's work),
:class:`SatResult`, the Luby sequence and the search constants.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import SatError
from repro.sat.cnf import CNF
from repro.sat.sanitize import (
    check_reference_invariants,
    check_reference_learned,
    check_reference_model,
    check_reference_reasons,
    check_reference_trail,
    check_reference_watches,
    resolve_sanitize,
)

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: VSIDS decay: variable activities shrink by this factor per conflict.
_VAR_DECAY = 0.95
#: Clause-activity decay per conflict.
_CLA_DECAY = 0.999
#: Conflicts per Luby step: restart ``i`` comes after ``_RESTART_UNIT *
#: luby(i)`` conflicts.
_RESTART_UNIT = 100
#: Initial learned-clause cap; grows geometrically on every reduction.
_INITIAL_LEARNED_LIMIT = 2000


@dataclass
class SolverStats:
    """Cumulative counters of the work done by one CDCL kernel instance.

    This is the one record of solver work: results carry no copy of it.  A
    caller that wants the work of one call reads the counters before and
    after it.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0


@dataclass
class SatResult:
    """Outcome of a SAT query.

    ``satisfiable`` is ``True``/``False`` for a decided query and ``None``
    if the solver hit its conflict budget.  When satisfiable, ``model`` maps
    every variable index to a boolean (it is empty after
    ``need_model=False``).  A variable that occurs in no clause has an
    arbitrary value: the arena never decides one and reports ``False``
    unless an assumption set it.  The work the query took is on the
    solver's cumulative :class:`SolverStats`, not on the result.

    For UNSAT answers ``core`` holds the *failed-assumption core*: a subset
    of the passed assumption literals whose conjunction already makes the
    formula unsatisfiable.  An empty core means the clause set is
    unsatisfiable on its own (root UNSAT — the verdict holds under any
    assumptions); a non-empty core always contains at least the assumption
    found falsified.  ``core`` is ``None`` on SAT/unknown answers.
    """

    satisfiable: Optional[bool]
    model: dict[int, bool] = field(default_factory=dict)
    core: Optional[list[int]] = None

    def __bool__(self) -> bool:
        return bool(self.satisfiable)

    def value(self, var: int) -> bool:
        """Value of ``var`` in the model (only valid when satisfiable)."""
        if not self.satisfiable:
            raise SatError("no model available: formula not satisfiable")
        if var not in self.model:
            if not self.model:
                raise SatError(
                    f"no model available for variable {var}: the answer "
                    "carries no model (a need_model=False solve, or a "
                    "formula without variables); re-solve with "
                    "need_model=True to read values"
                )
            raise SatError(f"variable {var} is not in the model")
        return self.model[var]


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class _Clause:
    """Internal clause representation with an activity score."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: list[int], learned: bool = False):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class SatSolver:
    """A CDCL SAT solver over DIMACS-style literals.

    Typical usage::

        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.satisfiable
    """

    def __init__(self, cnf: CNF | None = None, sanitize: Optional[bool] = None):
        self._sanitize = resolve_sanitize(sanitize)
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        # watches[lit_code] -> clauses watching literal ``lit_code``
        self._watches: list[list[_Clause]] = [[], []]
        self._assign: list[int] = [_UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[Optional[_Clause]] = [None]
        self._restart_interval = _RESTART_UNIT
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._order_heap: list[tuple[float, int]] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True
        self._learned_limit = _INITIAL_LEARNED_LIMIT
        self.stats = SolverStats()
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ setup

    @staticmethod
    def _code(lit: int) -> int:
        """Map a DIMACS literal to an index usable for watch lists."""
        var = abs(lit)
        return 2 * var if lit > 0 else 2 * var + 1

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self._num_vars += 1
            self._assign.append(_UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._phase.append(False)
            self._activity.append(0.0)
            self._watches.append([])
            self._watches.append([])
            heapq.heappush(self._order_heap, (0.0, self._num_vars))

    def reserve(self, num_vars: int) -> None:
        """Make sure variables ``1..num_vars`` exist even if unconstrained."""
        self._ensure_var(num_vars)

    @property
    def num_clauses(self) -> int:
        """Problem clauses currently attached (units propagate, so excluded)."""
        return len(self._clauses)

    @property
    def num_learned(self) -> int:
        """Learned clauses currently in the database (post reduction)."""
        return len(self._learned)

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
        if len(self._trail_lim) != 0:
            raise SatError("clauses may only be added at decision level 0")
        # Drop literals already false at level 0; satisfied clauses are skipped.
        pruned: list[int] = []
        for lit in lits:
            val = self._lit_value(lit)
            if val == _TRUE and self._level[abs(lit)] == 0:
                return
            if val == _FALSE and self._level[abs(lit)] == 0:
                continue
            pruned.append(lit)
        if not pruned:
            self._ok = False
            return
        if len(pruned) == 1:
            if not self._enqueue(pruned[0], None):
                self._ok = False
            elif self._propagate() is not None:
                self._ok = False
            return
        clause = _Clause(pruned, learned=False)
        self._clauses.append(clause)
        self._attach(clause)

    def _attach(self, clause: _Clause) -> None:
        self._watches[self._code(clause.lits[0])].append(clause)
        self._watches[self._code(clause.lits[1])].append(clause)

    # ------------------------------------------------------------- assignment

    def _lit_value(self, lit: int) -> int:
        val = self._assign[abs(lit)]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val if lit > 0 else -val

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        val = self._lit_value(lit)
        if val == _FALSE:
            return False
        if val == _TRUE:
            return True
        var = abs(lit)
        self._assign[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or ``None``."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_code = self._code(-lit)
            watchers = self._watches[false_code]
            new_watchers: list[_Clause] = []
            i = 0
            n = len(watchers)
            conflict: Optional[_Clause] = None
            while i < n:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                # Ensure the falsified literal is at position 1.
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) == _TRUE:
                    new_watchers.append(clause)
                    continue
                # Look for a new literal to watch.
                found = False
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[self._code(lits[1])].append(clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watchers.append(clause)
                if not self._enqueue(first, clause):
                    conflict = clause
                    # copy the remaining watchers back untouched
                    new_watchers.extend(watchers[i:])
                    break
            self._watches[false_code] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # --------------------------------------------------------------- analysis

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP conflict analysis.

        Returns the learned clause (with the asserting literal first) and the
        backjump level.
        """
        learned: list[int] = [0]
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        clause: Optional[_Clause] = conflict
        current_level = len(self._trail_lim)

        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            start = 0 if lit == 0 else 1
            for q in clause.lits[start:]:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # pick next literal to resolve on
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            clause = self._reason[var]
            if counter == 0:
                break
        learned[0] = -lit

        # One-level clause minimisation: a literal q can be dropped when every
        # other literal of its reason clause is either assigned at level 0 or
        # already present in the learned clause (self-subsuming resolution).
        if len(learned) > 1:
            in_learned = {abs(q) for q in learned[1:]}
            minimized = [learned[0]]
            for q in learned[1:]:
                reason = self._reason[abs(q)]
                if reason is None or not all(
                    abs(r) == abs(q)
                    or self._level[abs(r)] == 0
                    or abs(r) in in_learned
                    for r in reason.lits
                ):
                    minimized.append(q)
            learned = minimized

        if len(learned) == 1:
            backjump = 0
        else:
            # find the second-highest decision level in the clause
            max_i = 1
            for i in range(2, len(learned)):
                if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backjump = self._level[abs(learned[1])]
        return learned, backjump

    def _analyze_final(self, failed: int) -> list[int]:
        """Failed-assumption core for assumption ``failed`` found falsified.

        MiniSat's ``analyzeFinal``: walk the trail backwards from the
        assignment of ``-failed``, expanding reason clauses; every
        reason-less assignment reached above level 0 is an assumption
        decision, and together with ``failed`` those assumptions already
        force the conflict.  Only called from the assumption re-assert loop,
        where every open decision level is an assumption level (a backjump
        that unassigned any assumption also unassigned every ordinary
        decision made after it), so the reason-less set never contains an
        ordinary decision.
        """
        core = [failed]
        var0 = abs(failed)
        if self._level[var0] == 0 or not self._trail_lim:
            # ``-failed`` is implied by the clause set alone: the conflict
            # needs no other assumption.
            return core
        seen = [False] * (self._num_vars + 1)
        seen[var0] = True
        for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[index]
            var = abs(lit)
            if not seen[var]:
                continue
            seen[var] = False
            reason = self._reason[var]
            if reason is None:
                # An assumption decision; the trail literal is the
                # assumption exactly as the caller passed it.
                core.append(lit)
            else:
                for q in reason.lits:
                    if abs(q) != var and self._level[abs(q)] > 0:
                        seen[abs(q)] = True
        return core

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._phase[var] = self._assign[var] == _TRUE
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._order_heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # --------------------------------------------------------------- decision

    def _decide(self) -> int:
        """Pick the unassigned variable with the highest activity (or 0)."""
        while self._order_heap:
            _, var = heapq.heappop(self._order_heap)
            if self._assign[var] == _UNASSIGNED:
                return var
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == _UNASSIGNED:
                return var
        return 0

    def _reduce_db(self) -> None:
        """Remove the least active half of the learned clauses.

        The trigger threshold starts at 2000 clauses and grows geometrically
        on every reduction, so long incremental runs (PDR's thousands of
        consecution queries on one instance) keep more of what they learn
        instead of thrashing a fixed-size cache.
        """
        if len(self._learned) < self._learned_limit:
            return
        self._learned_limit += self._learned_limit >> 1
        self._learned.sort(key=lambda c: c.activity)
        drop = set(id(c) for c in self._learned[: len(self._learned) // 2])
        # Never drop clauses that are the reason of a current assignment.
        locked = set(id(c) for c in self._reason if c is not None)
        drop -= locked
        for code in range(2, 2 * self._num_vars + 2):
            self._watches[code] = [
                c for c in self._watches[code] if id(c) not in drop
            ]
        self._learned = [c for c in self._learned if id(c) not in drop]

    # ------------------------------------------------------------------ solve

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: Optional[int] = None,
        need_model: bool = True,
    ) -> SatResult:
        """Decide satisfiability under optional assumptions.

        ``conflict_budget`` bounds the number of conflicts *of this call*
        (earlier calls on the same instance do not erode it); when exhausted
        the result has ``satisfiable=None``.  ``need_model=False`` skips
        building the model dict on SAT answers (for verdict-only callers).

        UNSAT answers carry a failed-assumption ``core`` (see
        :class:`SatResult`).  A root-level contradiction latches the solver
        unsatisfiable; an UNSAT caused only by the assumptions does not, so
        persistent contexts keep reusing the instance.
        """
        assumptions = [int(a) for a in assumptions]
        for a in assumptions:
            if a == 0:
                raise SatError("literal 0 is not allowed as an assumption")
            self._ensure_var(abs(a))
        if not self._ok:
            return SatResult(False, core=[])
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SatResult(False, core=[])
        if self._sanitize:
            check_reference_invariants(self)

        restart_count = 0
        conflicts_until_restart = self._restart_interval * _luby(restart_count + 1)
        conflicts_seen = 0
        conflicts_spent = 0  # conflicts of this call only (budget accounting)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_seen += 1
                conflicts_spent += 1
                if len(self._trail_lim) == 0:
                    # A conflict with no open decision level contradicts the
                    # clause set alone: latch the instance root-UNSAT.
                    self._ok = False
                    return SatResult(False, core=[])
                learned, backjump = self._analyze(conflict)
                if self._sanitize:
                    check_reference_learned(self, learned)
                self._backtrack(backjump)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    clause = _Clause(list(learned), learned=True)
                    self._learned.append(clause)
                    self.stats.learned_clauses += 1
                    self._attach(clause)
                    self._enqueue(learned[0], clause)
                self._var_inc /= _VAR_DECAY
                self._cla_inc /= _CLA_DECAY
                if conflict_budget is not None and conflicts_spent >= conflict_budget:
                    self._backtrack(0)
                    return SatResult(None)
                if conflicts_seen >= conflicts_until_restart:
                    # restart, keeping assumptions on re-descent
                    restart_count += 1
                    conflicts_seen = 0
                    conflicts_until_restart = self._restart_interval * _luby(
                        restart_count + 1
                    )
                    self._backtrack(0)
                    if self._sanitize:
                        check_reference_trail(self)
                        learned_before = len(self._learned)
                        self._reduce_db()
                        if len(self._learned) < learned_before:
                            check_reference_watches(self)
                    else:
                        self._reduce_db()
                continue

            # No conflict: re-assert any assumption not yet satisfied.
            next_lit = 0
            for a in assumptions:
                val = self._lit_value(a)
                if val == _FALSE:
                    # UNSAT under assumptions only: compute the failed core
                    # and leave the instance healthy for later queries.
                    core = self._analyze_final(a)
                    self._backtrack(0)
                    if self._sanitize:
                        check_reference_invariants(self)
                    return SatResult(False, core=core)
                if val == _UNASSIGNED:
                    next_lit = a
                    break
            if next_lit == 0:
                var = self._decide()
                if var == 0:
                    if self._sanitize:
                        check_reference_model(self)
                        check_reference_watches(self)
                        check_reference_reasons(self)
                    model: dict[int, bool] = {}
                    if need_model:
                        model = {
                            v: self._assign[v] == _TRUE
                            for v in range(1, self._num_vars + 1)
                        }
                    result = SatResult(True, model=model)
                    self._backtrack(0)
                    return result
                self.stats.decisions += 1
                next_lit = var if self._phase[var] else -var
            self._trail_lim.append(len(self._trail))
            self._enqueue(next_lit, None)
