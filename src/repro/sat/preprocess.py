"""Incrementality-safe CNF preprocessing between the blaster and the backend.

The :class:`Preprocessor` sits in :meth:`repro.solve.context.SolverContext._sync`
and filters every batch of freshly bit-blasted clauses before the SAT
backend sees them.  Two classic techniques are applied, each restricted to
forms that stay sound when more clauses arrive later (the whole point of
the persistent incremental context):

* **unit propagation** — root-level units are remembered forever; satisfied
  clauses are dropped and false literals stripped.  Discovered units are
  *also* emitted to the backend, so later assumptions conflicting with a
  propagated value still return UNSAT.
* **bounded variable elimination** — in the style of NiVER/SatELite, a
  variable is resolved away when *all* of its occurrences are still in the
  pending batch (so nothing already sent to the backend mentions it), it is
  not frozen, and the resolvent set is no larger than the clauses it
  replaces.  The resolvents are counted before any is built, so an attempt
  over that budget builds none.  The original clauses are stored; if a
  later batch or a later assumption references an eliminated variable, the
  stored clauses are re-emitted (*un-elimination*), which keeps the trick
  sound under arbitrary future extension because
  ``originals ⊨ resolvents``.

A flush is one pass: restore the eliminated variables the batch
references, propagate root units, try each variable of the batch once for
elimination, and propagate again only when a resolvent is a unit or empty.
Propagation visits a clause again only when one of its variables got a
value.  There is no subsumption: clauses already handed to an incremental
backend cannot be retracted, so it could only drop new clauses, and
checking each against every emitted clause costs more time than the
dropped clauses save the backend.

**Frozen variables** (activation literals of push/pop scopes, the bits of
named bit-vector variables, assumption literals) are never eliminated, so
model extraction and scope retirement keep working unchanged.  The solver
context freezes a query's assumption variables before the flush that
precedes the query, so that flush never eliminates what the query assumes.
Models from the backend are completed through eliminated variables with
:meth:`Preprocessor.extend_model` (the standard reverse-order clause-fixing
pass), so callers that read auxiliary literals still see consistent values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: A variable with more positive (or more negative) occurrences is kept.
_ELIM_OCCURRENCE_LIMIT = 10
#: A resolvent longer than this vetoes the elimination.
_ELIM_RESOLVENT_LEN_LIMIT = 16


@dataclass
class PreprocessStats:
    """Work counters accumulated over the preprocessor's lifetime."""

    clauses_in: int = 0
    clauses_emitted: int = 0
    vars_eliminated: int = 0
    vars_restored: int = 0


class Preprocessor:
    """Streaming clause filter with persistent state across batches."""

    def __init__(self):
        #: var -> root-level value
        self._value: dict[int, bool] = {}
        #: both literals of every variable in ``_value``
        self._fixed: set[int] = set()
        self._frozen: set[int] = set()
        #: variables of emitted clauses, which elimination must leave alone
        self._emitted_vars: set[int] = set()
        #: var -> its original clauses, in elimination order (dict order)
        self._eliminated: dict[int, list[tuple[int, ...]]] = {}
        self.unsat = False
        self.stats = PreprocessStats()

    # -------------------------------------------------------------- freezing

    def freeze(self, var: int) -> None:
        self._frozen.add(abs(var))

    def freeze_all(self, vars: Iterable[int]) -> None:
        for var in vars:
            self._frozen.add(abs(var))

    def is_eliminated(self, var: int) -> bool:
        return abs(var) in self._eliminated

    # ------------------------------------------------------------- main entry

    def flush(self, batch: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
        """Preprocess ``batch`` and return the clauses to hand to the backend."""
        pending: list[tuple[int, ...]] = [tuple(clause) for clause in batch]
        self.stats.clauses_in += len(pending)
        pending.extend(self._restore_referenced(pending))
        pending, units = self._propagate(pending)
        if self.unsat:
            return []
        pending = self._eliminate(pending)
        # Propagation left no valued variable in a pending clause, so only a
        # unit or empty resolvent gives it new work.
        if min(map(len, pending), default=2) < 2:
            pending, more_units = self._propagate(pending)
            units.extend(more_units)
            if self.unsat:
                return []
        self._emitted_vars.update(abs(lit) for clause in pending for lit in clause)
        out: list[tuple[int, ...]] = [(lit,) for lit in units]
        out.extend(pending)
        self.stats.clauses_emitted += len(out)
        return out

    def require_vars(self, vars: Iterable[int]) -> list[tuple[int, ...]]:
        """Freeze ``vars`` and re-emit stored clauses of any eliminated ones.

        Called with assumption variables before a query: an assumption on an
        eliminated variable would otherwise be unconstrained.  The solver
        context freezes them before the flush that precedes the query, so
        only variables an earlier flush eliminated come back here.
        """
        restored: list[tuple[int, ...]] = []
        for var in vars:
            var = abs(var)
            self._frozen.add(var)
            if var in self._eliminated:
                restored.extend(self._restore_var(var))
        if not restored:
            return []
        return self.flush(restored)

    # -------------------------------------------------------------- the model

    def extend_model(self, model: dict[int, bool]) -> dict[int, bool]:
        """Complete a backend model through the eliminated variables.

        Standard SatELite reconstruction: walk the eliminated variables in
        reverse elimination order and flip each one to ``True`` exactly when
        some stored clause would otherwise be falsified.  Clauses stored at
        elimination time never mention variables eliminated earlier, so the
        reverse walk always has every other literal's value at hand.
        """
        if not self._eliminated:
            return model
        extended = dict(model)
        value = extended.get
        for var, clauses in reversed(self._eliminated.items()):
            # False first: the stored clauses hold ``var`` itself.
            extended[var] = False
            for clause in clauses:
                for lit in clause:
                    if value(abs(lit), False) == (lit > 0):
                        break
                else:
                    # Elimination guarantees a fixing value exists, and with
                    # every other literal false it can only be ``var`` itself.
                    extended[var] = True
                    break
        return extended

    # ---------------------------------------------------------- un-elimination

    def _restore_var(self, var: int) -> list[tuple[int, ...]]:
        clauses = self._eliminated.pop(var)
        self.stats.vars_restored += 1
        return clauses

    def _restore_referenced(
        self, pending: list[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """Stored clauses of eliminated vars referenced by ``pending`` (transitive)."""
        restored: list[tuple[int, ...]] = []
        work = list(pending)
        while work:
            clause = work.pop()
            for lit in clause:
                var = abs(lit)
                if var in self._eliminated:
                    back = self._restore_var(var)
                    restored.extend(back)
                    work.extend(back)
        return restored

    # ------------------------------------------------------- unit propagation

    def _propagate(
        self, pending: list[tuple[int, ...]]
    ) -> tuple[list[tuple[int, ...]], list[int]]:
        """Simplify against root-level values; returns (clauses, new unit lits).

        The result is that of full passes over the clauses repeated until one
        finds no new unit, but after the first pass only clauses holding a
        newly valued variable are visited.  A unit queues the clauses after it
        into the current pass and those before it into the next, through a
        variable -> positions index built when the first unit turns up.
        """
        fixed = self._fixed
        clauses: list[Optional[tuple[int, ...]]] = list(pending)
        new_units: list[int] = []
        where: Optional[dict[int, list[int]]] = None
        revisit: set[int] = set()
        for index, clause in enumerate(pending):
            if len(clause) > 1 and fixed.isdisjoint(clause):
                continue
            unit = self._simplify(clauses, index)
            if unit is None:
                return [], new_units
            if unit:
                new_units.append(unit)
                if where is None:
                    where = self._positions(clauses)
                # Clauses after this one are still ahead in this first pass.
                revisit.update(p for p in where.get(abs(unit), ()) if p < index)
        while revisit:
            queue = sorted(revisit)
            queued = set(revisit)
            revisit = set()
            while queue:
                index = heapq.heappop(queue)
                if clauses[index] is None:
                    continue
                unit = self._simplify(clauses, index)
                if unit is None:
                    return [], new_units
                if not unit:
                    continue
                new_units.append(unit)
                for other in where.get(abs(unit), ()):
                    if other < index:
                        revisit.add(other)
                    elif other not in queued:
                        queued.add(other)
                        heapq.heappush(queue, other)
        return [clause for clause in clauses if clause is not None], new_units

    def _simplify(
        self, clauses: list[Optional[tuple[int, ...]]], index: int
    ) -> Optional[int]:
        """Visit ``clauses[index]``: returns the literal it made a unit, 0 if
        none, and None if the clause is empty (which sets :attr:`unsat`).

        The clause is replaced by its stripped form, or by ``None`` once it
        is satisfied, a unit or empty.
        """
        clause = clauses[index]
        stripped: list[int] = []
        for lit in clause:
            value = self._value.get(abs(lit))
            if value is None:
                stripped.append(lit)
            elif value == (lit > 0):
                clauses[index] = None
                return 0
        if len(stripped) > 1:
            clauses[index] = tuple(stripped)
            return 0
        clauses[index] = None
        if not stripped:
            self.unsat = True
            return None
        lit = stripped[0]
        self._value[abs(lit)] = lit > 0
        self._fixed.update((lit, -lit))
        return lit

    @staticmethod
    def _positions(clauses: list[Optional[tuple[int, ...]]]) -> dict[int, list[int]]:
        """var -> ascending positions of the live clauses mentioning it."""
        where: dict[int, list[int]] = {}
        for index, clause in enumerate(clauses):
            if clause is not None:
                for lit in clause:
                    where.setdefault(abs(lit), []).append(index)
        return where

    # ------------------------------------------------- bounded var elimination

    def _eliminate(self, pending: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """One bounded-variable-elimination pass over the pending batch.

        Each variable is tried once, fewest occurrences first; resolvents
        join the batch and can take part in later eliminations of the pass.
        Propagation has run, so no pending clause holds a valued variable.

        An attempt counts its non-tautological resolvents before it builds
        any, and gives up once they outnumber the clauses they would replace
        (the sizing step of MiniSat's ``eliminateVar``).  A pair is a
        tautology exactly when the negative clause meets the negations of
        the positive clause's other literals, because batch clauses are
        normal: no repeated literal, no literal beside its complement.
        """
        frozen = self._frozen
        emitted = self._emitted_vars
        # The set's iteration order breaks the sort's ties, so it is built
        # over every variable of the batch, eliminable or not.
        candidates = [
            var
            for var in {abs(lit) for clause in pending for lit in clause}
            if var not in frozen and var not in emitted
        ]
        # Only eliminable literals are indexed.  The iteration order of each
        # clause-id set sets the order of resolvents and stored clauses.
        occur: dict[int, set[int]] = {}
        for var in candidates:
            occur[var] = set()
            occur[-var] = set()
        clauses: list[Optional[tuple[int, ...]]] = list(pending)
        for pid, clause in enumerate(pending):
            for lit in clause:
                ids = occur.get(lit)
                if ids is not None:
                    ids.add(pid)
        candidates.sort(key=lambda v: len(occur[v]) + len(occur[-v]))

        limit = _ELIM_OCCURRENCE_LIMIT
        for var in candidates:
            pos_ids, neg_ids = occur[var], occur[-var]
            if not pos_ids and not neg_ids:
                continue
            if len(pos_ids) > limit or len(neg_ids) > limit:
                continue
            if not pos_ids.isdisjoint(neg_ids):
                continue  # a clause with var and -var would carry var into a resolvent
            pos, neg = list(pos_ids), list(neg_ids)
            pos_clauses = [clauses[pid] for pid in pos]
            neg_clauses = [clauses[pid] for pid in neg]
            budget = len(pos) + len(neg)
            count = 0
            rows: list[tuple[tuple[int, ...], set[int], list[tuple[int, ...]]]] = []
            for clause in pos_clauses:
                rest = tuple([lit for lit in clause if lit != var])
                # Holds neither var nor -var, so a whole negative clause
                # meets it exactly when the clause's remainder does.
                negated = {-lit for lit in rest}
                partners = list(filter(negated.isdisjoint, neg_clauses))
                count += len(partners)
                if count > budget:
                    break
                negated.add(var)  # keeps -var out of the resolvents below
                rows.append((rest, negated, partners))
            if count > budget:
                continue
            resolvents = [
                rest + tuple([lit for lit in other if -lit not in negated])
                for rest, negated, partners in rows
                for other in partners
            ]
            if max(map(len, resolvents), default=0) > _ELIM_RESOLVENT_LEN_LIMIT:
                continue
            # Accept: drop the var's clauses, keep their resolvents pending.
            for pid in pos + neg:
                for lit in clauses[pid]:
                    ids = occur.get(lit)
                    if ids is not None:
                        ids.discard(pid)
                clauses[pid] = None
            for resolvent in resolvents:
                for lit in resolvent:
                    ids = occur.get(lit)
                    if ids is not None:
                        ids.add(len(clauses))
                clauses.append(resolvent)
            self._eliminated[var] = pos_clauses + neg_clauses
            self.stats.vars_eliminated += 1
        return [clause for clause in clauses if clause is not None]
