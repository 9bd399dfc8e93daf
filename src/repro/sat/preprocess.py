"""Incrementality-safe CNF preprocessing between the blaster and the backend.

The :class:`Preprocessor` sits in :meth:`repro.solve.context.SolverContext._sync`
and filters every batch of freshly bit-blasted clauses before the SAT
backend sees them.  Three classic techniques are applied, each restricted to
forms that stay sound when more clauses arrive later (the whole point of
the persistent incremental context):

* **unit propagation** — root-level units are remembered forever; satisfied
  clauses are dropped and false literals stripped.  Discovered units are
  *also* emitted to the backend, so later assumptions conflicting with a
  propagated value still return UNSAT.
* **subsumption** — a new clause already implied by an emitted (or earlier
  pending) clause is dropped.  Only the forward direction is useful here:
  clauses already handed to an incremental backend cannot be retracted.
* **bounded variable elimination** — in the style of NiVER/SatELite, a
  variable is resolved away when *all* of its occurrences are still in the
  pending batch (so nothing already sent to the backend mentions it), it is
  not frozen, and the resolvent set is no larger than the clauses it
  replaces.  The original clauses are stored; if a later batch or a later
  assumption references an eliminated variable, the stored clauses are
  re-emitted (*un-elimination*), which keeps the trick sound under
  arbitrary future extension because ``originals ⊨ resolvents``.

A flush runs up to :data:`_MAX_ROUNDS` rounds of the three and then a last
propagation.  Work is paid only for what changed since the last look, as in
SatELite's touched-clause bookkeeping; every shortcut leaves the output
exactly as the full rounds would make it:

* propagation visits a clause again only when one of its variables got a
  value, and a round after the first propagates only when an elimination
  left a unit or empty resolvent (nothing else can give it work);
* a clause whose subsumption scan ran to the end without a subsumer is not
  scanned in the next round: its candidates can only have gone away;
* a variable whose elimination failed is not tried again while its clauses
  stay the same.

**Frozen variables** (activation literals of push/pop scopes, the bits of
named bit-vector variables, assumption literals) are never eliminated, so
model extraction and scope retirement keep working unchanged.  Models from
the backend are completed through eliminated variables with
:meth:`Preprocessor.extend_model` (the standard reverse-order clause-fixing
pass), so callers that read auxiliary literals still see consistent values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: Clauses longer than this are never checked for subsumption.
_SUBSUMPTION_LEN_LIMIT = 16
#: Occurrence-list entries one subsumption check looks at before giving up.
_SUBSUMPTION_SCAN_LIMIT = 2000
#: A variable with more positive (or more negative) occurrences is kept.
_ELIM_OCCURRENCE_LIMIT = 10
#: A resolvent longer than this vetoes the elimination.
_ELIM_RESOLVENT_LEN_LIMIT = 16
#: Propagate/subsume/eliminate rounds per flush.
_MAX_ROUNDS = 3


def _signature(clause: Sequence[int]) -> int:
    sig = 0
    for lit in clause:
        sig |= 1 << (lit & 63)
    return sig


def _has_unit_or_empty(clauses: list[tuple[int, ...]]) -> bool:
    return min(map(len, clauses), default=2) < 2


@dataclass
class PreprocessStats:
    """Work counters accumulated over the preprocessor's lifetime."""

    clauses_in: int = 0
    clauses_emitted: int = 0
    units_found: int = 0
    satisfied_dropped: int = 0
    literals_stripped: int = 0
    subsumed: int = 0
    vars_eliminated: int = 0
    vars_restored: int = 0
    resolvents_added: int = 0


class Preprocessor:
    """Streaming clause filter with persistent state across batches."""

    def __init__(self):
        #: var -> root-level value
        self._value: dict[int, bool] = {}
        #: both literals of every variable in ``_value``
        self._fixed: set[int] = set()
        self._frozen: set[int] = set()
        # Emitted-clause database (for subsumption and the "nothing emitted
        # mentions this var" elimination precondition).
        self._db: dict[int, tuple[int, ...]] = {}
        self._db_occur: dict[int, list[int]] = {}
        self._db_sig: dict[int, int] = {}
        self._emitted_var_occ: dict[int, int] = {}
        self._next_cid = 0
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
        emitted_units: list[int] = []
        # Per pending clause: its last subsumption scan ran to the end.
        settled: list[bool] = []
        # var -> its clauses when its last elimination attempt failed.
        failed: dict[int, tuple[list, list]] = {}
        for round_index in range(_MAX_ROUNDS):
            # Once the first round has propagated, no pending clause holds a
            # variable with a value, so only a unit or empty resolvent gives
            # propagation work.
            if round_index == 0 or _has_unit_or_empty(pending):
                pending, new_units = self._propagate(pending)
                emitted_units.extend(new_units)
                if self.unsat:
                    return []
                settled = [False] * len(pending)
            pending, settled = self._subsume(pending, settled)
            pending, settled, eliminated_any = self._eliminate(pending, settled, failed)
            if not eliminated_any:
                break
        # Eliminations in the final round may have produced unit resolvents.
        if _has_unit_or_empty(pending):
            pending, new_units = self._propagate(pending)
            emitted_units.extend(new_units)
            if self.unsat:
                return []
        out: list[tuple[int, ...]] = [(lit,) for lit in emitted_units]
        for clause in pending:
            self._db_add(clause)
            out.append(clause)
        self.stats.clauses_emitted += len(out)
        return out

    def require_vars(self, vars: Iterable[int]) -> list[tuple[int, ...]]:
        """Freeze ``vars`` and re-emit stored clauses of any eliminated ones.

        Called with assumption variables before a query: an assumption on an
        eliminated variable would otherwise be unconstrained.
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

        def lit_true(lit: int) -> bool:
            return extended.get(abs(lit), False) == (lit > 0)

        for var in reversed(self._eliminated):
            extended[var] = False
            for clause in self._eliminated[var]:
                if not any(lit_true(lit) for lit in clause):
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
                self.stats.satisfied_dropped += 1
                clauses[index] = None
                return 0
        self.stats.literals_stripped += len(clause) - len(stripped)
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
        self.stats.units_found += 1
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

    # ------------------------------------------------------------- subsumption

    def _subsume(
        self, pending: list[tuple[int, ...]], settled: list[bool]
    ) -> tuple[list[tuple[int, ...]], list[bool]]:
        """Drop pending clauses implied by an emitted or earlier pending clause.

        A clause with ``settled`` set had its scan in the previous round run
        to the end without a subsumer.  Its candidates now are a subset of
        those: emitted clauses do not change within a flush, and clauses
        only leave the pending list or join it at the end.  So it is kept
        unscanned.  Returns the kept clauses and their ``settled`` flags.
        """
        kept: list[tuple[int, ...]] = []
        kept_sigs: list[int] = []
        kept_settled: list[bool] = []
        # literal -> indices into ``kept``
        kept_occur: dict[int, list[int]] = {}
        for clause, done in zip(pending, settled):
            sig = _signature(clause)
            if not done and len(clause) <= _SUBSUMPTION_LEN_LIMIT:
                verdict = self._is_subsumed(clause, sig, kept, kept_sigs, kept_occur)
                if verdict:
                    self.stats.subsumed += 1
                    continue
                done = verdict is not None
            index = len(kept)
            kept.append(clause)
            kept_sigs.append(sig)
            kept_settled.append(done)
            for lit in clause:
                kept_occur.setdefault(lit, []).append(index)
        return kept, kept_settled

    def _is_subsumed(
        self,
        clause: tuple[int, ...],
        sig: int,
        kept: list[tuple[int, ...]],
        kept_sigs: list[int],
        kept_occur: dict[int, list[int]],
    ) -> Optional[bool]:
        """True if subsumed, False if the whole scan found no subsumer, and
        None if the scan limit cut the scan short first."""
        limit = _SUBSUMPTION_SCAN_LIMIT
        cset = frozenset(clause)
        scanned = 0
        inv_sig = ~sig
        for lit in clause:
            for cid in self._db_occur.get(lit, ()):
                scanned += 1
                if scanned > limit:
                    return None
                if self._db_sig[cid] & inv_sig:
                    continue
                other = self._db[cid]
                if len(other) <= len(cset) and cset.issuperset(other):
                    return True
            for index in kept_occur.get(lit, ()):
                scanned += 1
                if scanned > limit:
                    return None
                if kept_sigs[index] & inv_sig:
                    continue
                other = kept[index]
                if len(other) <= len(cset) and cset.issuperset(other):
                    return True
        return False

    # ------------------------------------------------- bounded var elimination

    def _eliminate(
        self,
        pending: list[tuple[int, ...]],
        settled: list[bool],
        failed: dict[int, tuple[list, list]],
    ) -> tuple[list[tuple[int, ...]], list[bool], bool]:
        """One bounded-variable-elimination pass over the pending batch.

        A variable in ``failed`` whose clauses are still the ones recorded
        there is skipped: it would fail the same way.  Returns the clauses,
        their ``settled`` flags (a resolvent starts unsettled) and whether a
        variable was eliminated.
        """
        occur: dict[int, set[int]] = {}
        clauses: dict[int, tuple[int, ...]] = dict(enumerate(pending))
        for pid, clause in clauses.items():
            for lit in clause:
                occur.setdefault(lit, set()).add(pid)

        limit = _ELIM_OCCURRENCE_LIMIT
        eliminated_any = False
        candidates = sorted(
            {
                abs(lit)
                for clause in clauses.values()
                for lit in clause
            },
            key=lambda v: len(occur.get(v, ())) + len(occur.get(-v, ())),
        )
        for var in candidates:
            if (
                var in self._frozen
                or var in self._value
                or self._emitted_var_occ.get(var, 0) > 0
            ):
                continue
            pos = [pid for pid in occur.get(var, ()) if pid in clauses]
            neg = [pid for pid in occur.get(-var, ()) if pid in clauses]
            if not pos and not neg:
                continue
            if len(pos) > limit or len(neg) > limit:
                continue
            if not set(pos).isdisjoint(neg):
                continue  # a clause with var and -var would carry var into a resolvent
            pos_clauses = [clauses[pid] for pid in pos]
            neg_clauses = [clauses[pid] for pid in neg]
            last = failed.get(var)
            if last is not None and last == (sorted(pos_clauses), sorted(neg_clauses)):
                continue
            resolvents = self._resolvents(var, pos_clauses, neg_clauses)
            if resolvents is None:
                failed[var] = (sorted(pos_clauses), sorted(neg_clauses))
                continue
            # Accept: drop the var's clauses, keep their resolvents pending.
            for pid in pos + neg:
                clause = clauses.pop(pid)
                for lit in clause:
                    occur[lit].discard(pid)
            for resolvent in resolvents:
                pid = len(pending) + self.stats.resolvents_added + 1
                while pid in clauses:
                    pid += 1
                clauses[pid] = resolvent
                for lit in resolvent:
                    occur.setdefault(lit, set()).add(pid)
                self.stats.resolvents_added += 1
            self._eliminated[var] = pos_clauses + neg_clauses
            self.stats.vars_eliminated += 1
            eliminated_any = True
        flags = [pid < len(pending) and settled[pid] for pid in clauses]
        return list(clauses.values()), flags, eliminated_any

    def _resolvents(
        self,
        var: int,
        pos_clauses: list[tuple[int, ...]],
        neg_clauses: list[tuple[int, ...]],
    ) -> Optional[list[tuple[int, ...]]]:
        """The non-tautological resolvents on ``var``, or None when one is
        too long or there are more of them than clauses they replace."""
        budget = len(pos_clauses) + len(neg_clauses)
        resolvents: list[tuple[int, ...]] = []
        for pos_clause in pos_clauses:
            for neg_clause in neg_clauses:
                resolvent = self._resolve(pos_clause, neg_clause, var)
                if resolvent is None:
                    continue  # tautology
                if len(resolvent) > _ELIM_RESOLVENT_LEN_LIMIT:
                    return None
                resolvents.append(resolvent)
                if len(resolvents) > budget:
                    return None
        return resolvents

    @staticmethod
    def _resolve(
        pos_clause: tuple[int, ...], neg_clause: tuple[int, ...], var: int
    ) -> tuple[int, ...] | None:
        seen: set[int] = set()
        out: list[int] = []
        for clause, skip in ((pos_clause, var), (neg_clause, -var)):
            for lit in clause:
                if lit == skip:
                    continue
                if -lit in seen:
                    return None
                if lit not in seen:
                    seen.add(lit)
                    out.append(lit)
        return tuple(out)

    # ------------------------------------------------------------ emitted db

    def _db_add(self, clause: tuple[int, ...]) -> None:
        cid = self._next_cid
        self._next_cid += 1
        self._db[cid] = clause
        self._db_sig[cid] = _signature(clause)
        for lit in clause:
            self._db_occur.setdefault(lit, []).append(cid)
            var = abs(lit)
            self._emitted_var_occ[var] = self._emitted_var_occ.get(var, 0) + 1
