"""The And-Inverter-Graph (with XOR/ITE extensions) term graph.

Literals are signed integers, mirroring the DIMACS convention used by the
rest of the stack: node ids are positive, ``-lit`` is the complement of
``lit``.  Node 1 is the constant-true node, so ``1`` is TRUE and ``-1`` is
FALSE.  Nodes are created through :meth:`AIG.and_`, :meth:`AIG.xor_` and
:meth:`AIG.ite`, which apply

* constant propagation (any operand being TRUE/FALSE folds immediately),
* one-level rules (idempotence, complement, ``ite`` branch merging),
* two-level AND rewrites in the style of Brummayer & Biere's AIG rewriting:
  containment (``a ∧ (a∧b) → a∧b``), contradiction (``a ∧ (¬a∧b) → ⊥``),
  subsumption (``¬(a∧b) ∧ ¬a → ¬a``) and substitution
  (``a ∧ ¬(a∧b) → a ∧ ¬b``),

and finally structural hashing over canonically ordered operands, so two
cones with the same structure are the same node no matter how they were
built.  XOR pushes operand negations to the output (``¬a ⊕ b = ¬(a ⊕ b)``)
and ITE canonicalises to a positive condition and a positive then-branch,
which maximises strashing hits.
"""

from __future__ import annotations

from typing import Mapping

K_CONST = 0
K_INPUT = 1
K_AND = 2
K_XOR = 3
K_ITE = 4


class AIG:
    """A structurally hashed gate graph over signed integer literals."""

    def __init__(self) -> None:
        # Parallel arrays indexed by node id; index 0 is an unused sentinel
        # and index 1 is the constant-true node.
        self._kind: list[int] = [K_CONST, K_CONST]
        self._args: list[tuple[int, ...]] = [(), ()]
        self._strash: dict[tuple, int] = {}
        self.TRUE = 1
        self.FALSE = -1

    # ----------------------------------------------------------- introspection

    def num_nodes(self) -> int:
        """Gate + input node count (the constant node is not counted)."""
        return len(self._kind) - 2

    def kind(self, lit: int) -> int:
        return self._kind[abs(lit)]

    def args(self, lit: int) -> tuple[int, ...]:
        return self._args[abs(lit)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AIG(nodes={self.num_nodes()})"

    # ------------------------------------------------------------ construction

    def _node(self, kind: int, args: tuple[int, ...]) -> int:
        key = (kind, args)
        hit = self._strash.get(key)
        if hit is not None:
            return hit
        self._kind.append(kind)
        self._args.append(args)
        node = len(self._kind) - 1
        self._strash[key] = node
        return node

    def add_input(self) -> int:
        """A fresh primary input node (never hashed)."""
        self._kind.append(K_INPUT)
        self._args.append(())
        return len(self._kind) - 1

    def and_(self, a: int, b: int) -> int:
        if a == self.FALSE or b == self.FALSE:
            return self.FALSE
        if a == self.TRUE:
            return b
        if b == self.TRUE:
            return a
        if a == b:
            return a
        if a == -b:
            return self.FALSE
        rewritten = self._and_two_level(a, b)
        if rewritten is not None:
            return rewritten
        if (abs(a), a < 0) > (abs(b), b < 0):
            a, b = b, a
        return self._node(K_AND, (a, b))

    def _and_two_level(self, a: int, b: int) -> int | None:
        """One step of the classic two-level AND rewrite rules (or ``None``)."""
        for x, y in ((a, b), (b, a)):
            if x > 0 and self._kind[x] == K_AND:
                left, right = self._args[x]
                if y == left or y == right:
                    return x  # containment: (l∧r) ∧ l
                if y == -left or y == -right:
                    return self.FALSE  # contradiction: (l∧r) ∧ ¬l
            if x < 0 and self._kind[-x] == K_AND:
                left, right = self._args[-x]
                if y == -left or y == -right:
                    return y  # subsumption: ¬(l∧r) ∧ ¬l
                if y == left:
                    return self.and_(left, -right)  # substitution
                if y == right:
                    return self.and_(right, -left)
        if (
            a > 0
            and b > 0
            and self._kind[a] == K_AND
            and self._kind[b] == K_AND
        ):
            al, ar = self._args[a]
            bl, br = self._args[b]
            if al in (-bl, -br) or ar in (-bl, -br):
                return self.FALSE  # contradiction across both conjunctions
        return None

    def or_(self, a: int, b: int) -> int:
        return -self.and_(-a, -b)

    def xor_(self, a: int, b: int) -> int:
        if a == self.FALSE:
            return b
        if b == self.FALSE:
            return a
        if a == self.TRUE:
            return -b
        if b == self.TRUE:
            return -a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        sign = 1
        if a < 0:
            a, sign = -a, -sign
        if b < 0:
            b, sign = -b, -sign
        if a > b:
            a, b = b, a
        return sign * self._node(K_XOR, (a, b))

    def ite(self, cond: int, then_lit: int, else_lit: int) -> int:
        if cond == self.TRUE:
            return then_lit
        if cond == self.FALSE:
            return else_lit
        if then_lit == else_lit:
            return then_lit
        if cond < 0:
            cond, then_lit, else_lit = -cond, else_lit, then_lit
        if then_lit == self.TRUE:
            return self.or_(cond, else_lit)
        if then_lit == self.FALSE:
            return self.and_(-cond, else_lit)
        if else_lit == self.TRUE:
            return self.or_(-cond, then_lit)
        if else_lit == self.FALSE:
            return self.and_(cond, then_lit)
        if then_lit == cond:
            return self.or_(cond, else_lit)
        if then_lit == -cond:
            return self.and_(-cond, else_lit)
        if else_lit == cond:
            return self.and_(cond, then_lit)
        if else_lit == -cond:
            return self.or_(-cond, then_lit)
        if then_lit == -else_lit:
            return -self.xor_(cond, then_lit)
        sign = 1
        if then_lit < 0:
            then_lit, else_lit, sign = -then_lit, -else_lit, -sign
        return sign * self._node(K_ITE, (cond, then_lit, else_lit))

    # ------------------------------------------------------------- evaluation

    def evaluate(self, lit: int, inputs: Mapping[int, bool]) -> bool:
        """Interpret ``lit`` under a node-id → bool assignment of the inputs."""
        cache: dict[int, bool] = {1: True}
        stack: list[tuple[int, bool]] = [(abs(lit), False)]
        while stack:
            node, expanded = stack.pop()
            if node in cache:
                continue
            kind = self._kind[node]
            if kind == K_INPUT:
                cache[node] = bool(inputs.get(node, False))
                continue
            if not expanded:
                stack.append((node, True))
                for arg in self._args[node]:
                    if abs(arg) not in cache:
                        stack.append((abs(arg), False))
                continue
            values = [
                cache[abs(arg)] ^ (arg < 0) for arg in self._args[node]
            ]
            if kind == K_AND:
                cache[node] = values[0] and values[1]
            elif kind == K_XOR:
                cache[node] = values[0] ^ values[1]
            else:  # K_ITE
                cache[node] = values[1] if values[0] else values[2]
        return cache[abs(lit)] ^ (lit < 0)
