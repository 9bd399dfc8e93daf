"""CNF formula container and DIMACS serialisation.

Literals follow the DIMACS convention: variables are positive integers and a
negative integer denotes the negated variable.  Variable 0 is never used.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import SatError


class CNF:
    """A formula in conjunctive normal form.

    The class tracks the highest variable index seen so fresh variables can
    be allocated with :meth:`new_var`, which is how the Tseitin encoder uses
    it.
    """

    def __init__(self, clauses: Iterable[Sequence[int]] | None = None, num_vars: int = 0):
        self.clauses: list[tuple[int, ...]] = []
        self.num_vars = int(num_vars)
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause given as a sequence of non-zero DIMACS literals.

        Clauses are normalised on the way in: duplicate literals are dropped
        (keeping first-occurrence order), tautologies (``x ∨ ¬x``) are
        skipped entirely, and literal 0 is rejected with :class:`SatError`.
        Variable counting still covers every literal seen, including those
        of a skipped tautology, so variable numbering stays aligned with
        whatever produced the clause.
        """
        seen: set[int] = set()
        clause: list[int] = []
        tautology = False
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise SatError("literal 0 is not allowed in a clause")
            self.num_vars = max(self.num_vars, abs(lit))
            if -lit in seen:
                tautology = True
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not tautology:
            self.clauses.append(tuple(clause))

    def extend(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add many clauses at once."""
        for clause in clauses:
            self.add_clause(clause)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.clauses)

    def copy(self) -> "CNF":
        """Return an independent copy of this formula."""
        dup = CNF(num_vars=self.num_vars)
        dup.clauses = list(self.clauses)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CNF(num_vars={self.num_vars}, num_clauses={len(self.clauses)})"


def to_dimacs(cnf: CNF) -> str:
    """Serialise ``cnf`` to DIMACS text."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _dimacs_int(token: str, number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise SatError(f"DIMACS line {number}: {token!r} is not an integer") from None


def parse_dimacs(text: str) -> CNF:
    """Parse DIMACS text into a :class:`CNF`.

    Comment lines (``c ...``) are ignored; the problem line is optional but,
    when present, its variable count is honoured even if larger than any
    literal actually used.  Malformed text raises :class:`SatError` naming
    the 1-based line.
    """
    cnf = CNF()
    declared_vars = 0
    current: list[int] = []
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"DIMACS line {number}: malformed problem line {line!r}")
            declared_vars = _dimacs_int(parts[2], number)
            declared_clauses = _dimacs_int(parts[3], number)
            if declared_vars < 0 or declared_clauses < 0:
                raise SatError(
                    f"DIMACS line {number}: negative count in problem line {line!r}"
                )
            continue
        for token in line.split():
            lit = _dimacs_int(token, number)
            if lit == 0:
                cnf.add_clause(current)
                current = []
            else:
                current.append(lit)
    if current:
        raise SatError("DIMACS input ends with an unterminated clause")
    cnf.num_vars = max(cnf.num_vars, declared_vars)
    return cnf
