"""Kernel sanitizers: switchable invariant checks for both CDCL kernels.

Enabled with ``REPRO_SANITIZE=1`` (threaded exactly like
``REPRO_SAT_BACKEND``: the environment variable sets the process default,
and both kernels also take an explicit ``sanitize=`` constructor argument
that overrides it).  When enabled, the solvers re-validate their core data
structure invariants at every quiescent point of the search:

* **two-watched-literal consistency** — every attached clause is watched by
  exactly its first two literals, every watcher entry points at a live
  clause on one of its watch literals, and (arena kernel) every blocker is
  a literal of its clause;
* **trail / decision-level monotonicity** — assignment levels never
  decrease along the trail, decision-level boundaries are increasing and in
  range, the propagation head stays within the trail, and the number of
  assigned variables equals the trail length;
* **reason-clause sanity** — the reason clause of every implied assignment
  has the implied literal first (and true) with every other literal false
  at a level no higher than the implied one;
* **arena compaction integrity** — after a learned-database reduction the
  arena parses back into exactly the recorded clause refs, activity slots
  are a bijection, and reason refs survived the remap;
* **model soundness** — every SAT answer is checked against *every* clause
  (problem and learned) before it is returned.  The reference kernel must
  assign every variable; the arena must assign every decision variable
  and every variable of an attached clause, and may leave a variable that
  occurs in no clause unassigned (it never decides one);
* **learned-clause implication** — after every conflict analysis the
  (minimised) learned clause must still be falsified by the
  conflicting assignment with its asserting literal at the conflict level,
  so a minimisation pass that drops a load-bearing literal is caught at the
  conflict that produced it.

A violated invariant raises :class:`~repro.errors.SanitizerError` — it
always means kernel corruption, never a property of the input.  Apart from
the per-conflict learned-clause check (which is O(clause), not O(database)),
the checks only run at decision points of the solve loop (entry, restarts,
reductions and answers), so the asymptotic cost is a handful of database
scans per query, not one per conflict.
"""

from __future__ import annotations

import os

from repro.errors import SanitizerError

#: Environment variable enabling the kernel sanitizers process-wide.
ENV_SANITIZE = "REPRO_SANITIZE"

_TRUE_VALUES = ("1", "true", "on", "yes")
_FALSE_VALUES = ("", "0", "false", "off", "no")


def default_sanitize() -> bool:
    """The process default: ``$REPRO_SANITIZE`` when set, else off."""
    raw = os.environ.get(ENV_SANITIZE)
    if raw is None:
        return False
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise SanitizerError(
        f"{ENV_SANITIZE} must be one of {_TRUE_VALUES + _FALSE_VALUES[1:]}, "
        f"got {raw!r}"
    )


def resolve_sanitize(sanitize: "bool | None") -> bool:
    """Normalise a ``sanitize`` argument (``None`` = process default)."""
    if sanitize is None:
        return default_sanitize()
    return bool(sanitize)


def _fail(solver, check: str, detail: str) -> None:
    raise SanitizerError(
        f"{type(solver).__name__} sanitizer [{check}]: {detail}"
    )


# ---------------------------------------------------------------------------
# Reference kernel (repro.sat.solver.SatSolver — per-object clauses)
# ---------------------------------------------------------------------------


def check_reference_trail(solver) -> None:
    """Trail/decision-level monotonicity for the reference kernel."""
    trail = solver._trail
    trail_lim = solver._trail_lim
    assign = solver._assign
    level = solver._level
    if not 0 <= solver._qhead <= len(trail):
        _fail(solver, "trail", f"qhead {solver._qhead} outside trail of {len(trail)}")
    prev = -1
    for lim in trail_lim:
        if not 0 <= lim <= len(trail):
            _fail(solver, "trail", f"decision boundary {lim} outside the trail")
        if lim < prev:
            _fail(solver, "trail", f"decision boundaries not monotone: {trail_lim}")
        prev = lim
    seen_vars: set[int] = set()
    dl = 0
    for index, lit in enumerate(trail):
        var = abs(lit)
        if var in seen_vars:
            _fail(solver, "trail", f"variable {var} assigned twice on the trail")
        seen_vars.add(var)
        value = assign[var]
        if (value == 1) != (lit > 0) or value == 0:
            _fail(solver, "trail", f"trail literal {lit} disagrees with assignment")
        while dl < len(trail_lim) and trail_lim[dl] <= index:
            dl += 1
        if level[var] != dl:
            _fail(
                solver,
                "trail",
                f"variable {var} at level {level[var]}, trail says {dl}",
            )
    assigned = sum(1 for v in range(1, solver._num_vars + 1) if assign[v] != 0)
    if assigned != len(trail):
        _fail(
            solver,
            "trail",
            f"{assigned} assigned variables but trail holds {len(trail)}",
        )


def check_reference_watches(solver) -> None:
    """Two-watched-literal consistency for the reference kernel."""
    code = solver._code
    attached: dict[int, object] = {}
    for clause in solver._clauses:
        attached[id(clause)] = clause
    for clause in solver._learned:
        attached[id(clause)] = clause
    counts: dict[int, int] = {}
    for watch_code in range(2, 2 * solver._num_vars + 2):
        for clause in solver._watches[watch_code]:
            if id(clause) not in attached:
                _fail(solver, "watches", "watcher references a detached clause")
            lits = clause.lits
            if watch_code not in (code(lits[0]), code(lits[1])):
                _fail(
                    solver,
                    "watches",
                    f"clause {lits} watched on a non-watch literal",
                )
            counts[id(clause)] = counts.get(id(clause), 0) + 1
    for cid, clause in attached.items():
        if len(clause.lits) < 2:
            _fail(solver, "watches", f"attached clause too short: {clause.lits}")
        if counts.get(cid, 0) != 2:
            _fail(
                solver,
                "watches",
                f"clause {clause.lits} has {counts.get(cid, 0)} watcher "
                "entries, expected 2",
            )


def check_reference_reasons(solver) -> None:
    """Reason-clause sanity for the reference kernel."""
    assign = solver._assign
    level = solver._level
    for var in range(1, solver._num_vars + 1):
        reason = solver._reason[var]
        if reason is None:
            continue
        if assign[var] == 0:
            _fail(solver, "reasons", f"unassigned variable {var} has a reason")
        lits = reason.lits
        implied = var if assign[var] == 1 else -var
        if lits[0] != implied:
            _fail(
                solver,
                "reasons",
                f"reason of {var} does not start with its implied literal",
            )
        for lit in lits[1:]:
            other = abs(lit)
            value = assign[other]
            if (value == 1) == (lit > 0) or value == 0:
                _fail(
                    solver,
                    "reasons",
                    f"reason of {var} has non-false tail literal {lit}",
                )
            if level[other] > level[var]:
                _fail(
                    solver,
                    "reasons",
                    f"reason of {var} (level {level[var]}) depends on "
                    f"level-{level[other]} literal {lit}",
                )


def check_reference_model(solver) -> None:
    """Full clause-satisfaction check before a SAT answer is returned."""
    assign = solver._assign
    for var in range(1, solver._num_vars + 1):
        if assign[var] == 0:
            _fail(solver, "model", f"SAT answer with unassigned variable {var}")
    for group, clauses in (("problem", solver._clauses), ("learned", solver._learned)):
        for clause in clauses:
            if not any(
                (assign[abs(lit)] == 1) == (lit > 0) for lit in clause.lits
            ):
                _fail(
                    solver,
                    "model",
                    f"SAT answer falsifies a {group} clause: {clause.lits}",
                )


def check_reference_learned(solver, learned) -> None:
    """A (minimised) learned clause must still imply the conflict.

    Called right after conflict analysis, before the backjump: every literal
    of the learned clause must be false under the conflicting assignment
    (so the clause genuinely forbids the state that produced the conflict —
    a minimisation that dropped a load-bearing literal breaks this), and
    the asserting literal must sit at the current decision level so the
    backjump makes the clause unit.
    """
    current_level = len(solver._trail_lim)
    for lit in learned:
        var = abs(lit)
        value = solver._assign[var]
        if value == 0:
            _fail(
                solver,
                "learned",
                f"learned clause {learned} holds unassigned literal {lit}",
            )
        if (value == 1) == (lit > 0):
            _fail(
                solver,
                "learned",
                f"learned clause {learned} is not conflicting: {lit} is true",
            )
    if solver._level[abs(learned[0])] != current_level:
        _fail(
            solver,
            "learned",
            f"asserting literal {learned[0]} not at conflict level "
            f"{current_level}",
        )


def check_reference_invariants(solver) -> None:
    """The cheap always-on bundle: trail + reasons (no database scan)."""
    check_reference_trail(solver)
    check_reference_reasons(solver)


# ---------------------------------------------------------------------------
# Arena kernel (repro.sat.arena.ArenaSolver — flat clause arena)
# ---------------------------------------------------------------------------


def _arena_refs(solver) -> dict[int, bool]:
    """Map of clause ref -> is_learned for every recorded clause."""
    refs = {ref: False for ref in solver._clause_refs}
    for ref in solver._learned_refs:
        refs[ref] = True
    return refs


def check_arena_integrity(solver) -> None:
    """Arena record structure: sizes, slots and refs must all reconcile.

    Run after every learned-database reduction (which compacts into a fresh
    arena) and at query entry: a mis-remapped ref or corrupted size header
    here means later propagation reads garbage literals.
    """
    arena = solver._arena
    recorded = _arena_refs(solver)
    max_enc = 2 * solver._num_vars + 2
    seen_slots: set[int] = set()
    pos = 0
    parsed: dict[int, bool] = {}
    while pos < len(arena):
        size = arena[pos]
        slot = arena[pos + 1] if pos + 1 < len(arena) else None
        if size < 2 or pos + 2 + size > len(arena):
            _fail(solver, "arena", f"record at {pos} has bad size {size}")
        ref = pos + 2
        if slot is None:
            _fail(solver, "arena", f"truncated record header at {pos}")
        if slot >= 0:
            if slot >= len(solver._cla_act) or slot in seen_slots:
                _fail(solver, "arena", f"record at {pos} has bad activity slot {slot}")
            seen_slots.add(slot)
        for k in range(ref, ref + size):
            enc = arena[k]
            if not 2 <= enc < max_enc:
                _fail(solver, "arena", f"record at {pos} holds bad literal {enc}")
        parsed[ref] = slot >= 0
        pos = ref + size
    if parsed != recorded:
        extra = set(parsed) ^ set(recorded)
        _fail(
            solver,
            "arena",
            f"recorded refs disagree with arena records (diff at {sorted(extra)[:4]})",
        )
    for var in range(1, solver._num_vars + 1):
        ref = solver._reason[var]
        if ref >= 0 and ref not in parsed:
            _fail(solver, "arena", f"reason of variable {var} points at dead ref {ref}")


def check_arena_watches(solver) -> None:
    """Two-watched-literal consistency for the arena kernel."""
    arena = solver._arena
    recorded = _arena_refs(solver)
    counts: dict[int, int] = {}
    for enc in range(2, 2 * solver._num_vars + 2):
        ws = solver._watches[enc]
        if len(ws) % 2:
            _fail(solver, "watches", f"odd watcher list on literal {enc}")
        for i in range(0, len(ws), 2):
            blocker = ws[i]
            ref = ws[i + 1]
            if ref not in recorded:
                _fail(solver, "watches", f"watcher references dead ref {ref}")
            if enc not in (arena[ref], arena[ref + 1]):
                _fail(
                    solver,
                    "watches",
                    f"clause ref {ref} watched on non-watch literal {enc}",
                )
            size = arena[ref - 2]
            if blocker not in arena[ref : ref + size]:
                _fail(
                    solver,
                    "watches",
                    f"blocker {blocker} is not a literal of clause ref {ref}",
                )
            counts[ref] = counts.get(ref, 0) + 1
    for ref in recorded:
        if counts.get(ref, 0) != 2:
            _fail(
                solver,
                "watches",
                f"clause ref {ref} has {counts.get(ref, 0)} watcher entries, "
                "expected 2",
            )


def check_arena_trail(solver) -> None:
    """Trail/decision-level monotonicity for the arena kernel."""
    trail = solver._trail
    trail_lim = solver._trail_lim
    values = solver._values
    level = solver._level
    if not 0 <= solver._qhead <= len(trail):
        _fail(solver, "trail", f"qhead {solver._qhead} outside trail of {len(trail)}")
    prev = -1
    for lim in trail_lim:
        if not 0 <= lim <= len(trail):
            _fail(solver, "trail", f"decision boundary {lim} outside the trail")
        if lim < prev:
            _fail(solver, "trail", f"decision boundaries not monotone: {trail_lim}")
        prev = lim
    seen_vars: set[int] = set()
    dl = 0
    for index, enc in enumerate(trail):
        var = enc >> 1
        if var in seen_vars:
            _fail(solver, "trail", f"variable {var} assigned twice on the trail")
        seen_vars.add(var)
        if values[enc] != 1 or values[enc ^ 1] != -1:
            _fail(solver, "trail", f"trail literal {enc} disagrees with values")
        while dl < len(trail_lim) and trail_lim[dl] <= index:
            dl += 1
        if level[var] != dl:
            _fail(
                solver,
                "trail",
                f"variable {var} at level {level[var]}, trail says {dl}",
            )
    assigned = sum(
        1 for v in range(1, solver._num_vars + 1) if values[v + v] != 0
    )
    if assigned != len(trail):
        _fail(
            solver,
            "trail",
            f"{assigned} assigned variables but trail holds {len(trail)}",
        )


def check_arena_reasons(solver) -> None:
    """Reason-clause sanity for the arena kernel."""
    arena = solver._arena
    values = solver._values
    level = solver._level
    for var in range(1, solver._num_vars + 1):
        ref = solver._reason[var]
        if ref < 0:
            continue
        enc_true = var + var if values[var + var] == 1 else var + var + 1
        if values[enc_true] != 1:
            _fail(solver, "reasons", f"unassigned variable {var} has a reason")
        if arena[ref] != enc_true:
            _fail(
                solver,
                "reasons",
                f"reason of {var} does not start with its implied literal",
            )
        size = arena[ref - 2]
        for k in range(ref + 1, ref + size):
            enc = arena[k]
            if values[enc] != -1:
                _fail(
                    solver,
                    "reasons",
                    f"reason of {var} has non-false tail literal {enc}",
                )
            if level[enc >> 1] > level[var]:
                _fail(
                    solver,
                    "reasons",
                    f"reason of {var} (level {level[var]}) depends on "
                    f"level-{level[enc >> 1]} literal {enc}",
                )


def check_arena_model(solver) -> None:
    """Full clause-satisfaction check before a SAT answer is returned.

    A variable that occurs in no clause is never decided and may stay
    unassigned; a decision variable or a variable of any attached problem
    or learned clause may not.
    """
    arena = solver._arena
    values = solver._values
    decision = solver._decision
    for var in range(1, solver._num_vars + 1):
        if values[var + var] == 0 and decision[var]:
            _fail(
                solver,
                "model",
                f"SAT answer with unassigned decision variable {var}",
            )
    for group, refs in (
        ("problem", solver._clause_refs),
        ("learned", solver._learned_refs),
    ):
        for ref in refs:
            lits = arena[ref : ref + arena[ref - 2]]
            lit_values = [values[enc] for enc in lits]
            if 0 in lit_values:
                _fail(
                    solver,
                    "model",
                    f"SAT answer leaves variable {lits[lit_values.index(0)] >> 1} "
                    f"of a {group} clause at ref {ref} unassigned",
                )
            if 1 not in lit_values:
                _fail(
                    solver,
                    "model",
                    f"SAT answer falsifies a {group} clause at ref {ref}",
                )


def check_arena_learned(solver, learned) -> None:
    """Arena twin of :func:`check_reference_learned` (encoded literals)."""
    values = solver._values
    current_level = len(solver._trail_lim)
    for enc in learned:
        value = values[enc]
        if value == 0:
            _fail(
                solver,
                "learned",
                f"learned clause {list(learned)} holds unassigned literal {enc}",
            )
        if value == 1:
            _fail(
                solver,
                "learned",
                f"learned clause {list(learned)} is not conflicting: "
                f"{enc} is true",
            )
    if solver._level[learned[0] >> 1] != current_level:
        _fail(
            solver,
            "learned",
            f"asserting literal {learned[0]} not at conflict level "
            f"{current_level}",
        )


def check_arena_invariants(solver) -> None:
    """The cheap always-on bundle: trail + reasons (no database scan)."""
    check_arena_trail(solver)
    check_arena_reasons(solver)


def check_arena_compaction(solver) -> None:
    """Arena compaction integrity: everything, right after ``_reduce_db``."""
    check_arena_integrity(solver)
    check_arena_watches(solver)
    check_arena_reasons(solver)
