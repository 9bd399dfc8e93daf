"""Demand-driven lowering of AIG cones into CNF.

The lowering is incremental in exactly the way the persistent
:class:`~repro.solve.context.SolverContext` needs: every
:meth:`CnfLowering.materialize` call walks only the not-yet-lowered part of
a literal's cone, allocates one CNF variable per gate and appends the
Tseitin clauses for it.  A node is lowered at most once, so cones shared
between assertions (repeated BMC frame logic, re-used CEGIS machinery)
produce their clauses exactly once, and graph nodes that are never part of
an asserted or assumed cone produce no clauses at all.

Clause shapes:

* ``AND``  — 3 clauses (the standard Tseitin conjunction),
* ``XOR``  — 4 clauses,
* ``ITE``  — 4 clauses (``out ⇔ (c ? t : e)``); the AND/OR expansion the
  naive blaster uses needs 3 auxiliary gates and 9 clauses for the same
  function, which is where much of the mux-heavy datapath's clause-count
  reduction comes from.

The clauses are appended to ``cnf.clauses`` as they are, without
:meth:`CNF.add_clause`'s normalisation, because they are already normal.
``AIG.and_``, ``xor_`` and ``ite`` fold every constant, repeated or
complementary operand, so a gate's operands are distinct non-constant
nodes, and every node gets a fresh variable from :meth:`CNF.new_var`.
A clause therefore never repeats a variable, never names the constant, and
never names a variable above ``cnf.num_vars``.  The ``encoding.*`` lint
rules check this on the lowered CNF.
"""

from __future__ import annotations

from repro.aig.graph import AIG, K_AND, K_CONST, K_INPUT, K_ITE, K_XOR
from repro.sat.cnf import CNF


class CnfLowering:
    """Lower cones of one :class:`~repro.aig.graph.AIG` into one :class:`CNF`."""

    def __init__(self, aig: AIG, cnf: CNF, true_lit: int):
        self.aig = aig
        self.cnf = cnf
        # node id -> CNF literal of the positive node
        self._map: dict[int, int] = {1: true_lit}
        self.nodes_lowered = 0
        self.clauses_emitted = 0
        # Input nodes the owner wants notified about: when one is lowered,
        # its CNF variable is appended to ``watched_lowered`` (drained by
        # the owner).  The solver context uses this to freeze the bits of
        # named variables against preprocessing in O(newly lowered bits)
        # instead of rescanning every known bit per sync.
        self.watched: set[int] = set()
        self.watched_lowered: list[int] = []

    def materialize(self, lit: int) -> int:
        """Return the CNF literal for ``lit``, lowering its cone on demand."""
        node = abs(lit)
        out = self._map.get(node)
        if out is None:
            self._lower_cone(node)
            out = self._map[node]
        return out if lit > 0 else -out

    def _cnf_lit(self, lit: int) -> int:
        out = self._map[abs(lit)]
        return out if lit > 0 else -out

    def _lower_cone(self, root: int) -> None:
        aig = self.aig
        cnf = self.cnf
        clauses = cnf.clauses
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in self._map:
                continue
            kind = aig._kind[node]
            if kind in (K_INPUT, K_CONST):
                # Inputs get a variable but no clauses; their value is free
                # until some cone constrains them.
                var = cnf.new_var()
                self._map[node] = var
                if node in self.watched:
                    self.watched_lowered.append(var)
                continue
            if not expanded:
                stack.append((node, True))
                for arg in aig._args[node]:
                    if abs(arg) not in self._map:
                        stack.append((abs(arg), False))
                continue
            out = cnf.new_var()
            if kind == K_AND:
                a, b = map(self._cnf_lit, aig._args[node])
                gate = ((-out, a), (-out, b), (out, -a, -b))
            elif kind == K_XOR:
                a, b = map(self._cnf_lit, aig._args[node])
                gate = ((-out, a, b), (-out, -a, -b), (out, -a, b), (out, a, -b))
            elif kind == K_ITE:
                c, t, e = map(self._cnf_lit, aig._args[node])
                gate = ((-out, -c, t), (out, -c, -t), (-out, c, e), (out, c, -e))
            else:  # pragma: no cover - defensive
                raise ValueError(f"cannot lower AIG node kind {kind!r}")
            # Already normal, so appended as they are (see the module docstring).
            clauses.extend(gate)
            self.nodes_lowered += 1
            self.clauses_emitted += len(gate)
            self._map[node] = out
