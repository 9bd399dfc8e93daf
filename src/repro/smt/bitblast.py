"""Bit-blasting of bit-vector terms, either directly to CNF or via the AIG.

The blaster has two modes, selected by the
:class:`~repro.solve.pipeline.PipelineConfig` it is constructed with:

* **naive** (``opt_level=0``, the default for a bare ``BitBlaster()``) —
  classic Tseitin encoding: every gate immediately becomes a fresh DIMACS
  variable plus its clauses, with local structural gate caching.  Two
  reserved literals stand for the constants: a dedicated variable is forced
  true so ``TRUE`` is that variable and ``FALSE`` is its negation.
* **AIG** (``opt_level>=1``) — gates are built in a
  :class:`~repro.aig.AIG` (structural hashing, constant propagation,
  two-level rewrites, native XOR/ITE nodes) and only the cones of asserted
  or assumed terms are lowered to CNF on demand.  In this mode the literal
  lists returned by :meth:`blast` live in the AIG's literal space;
  :meth:`assert_term`, :meth:`assumption_literal` and
  :meth:`variable_bits` translate to CNF literals at the boundary.

In both modes all gate encoders first simplify against the constant
literals, which — combined with the word-level simplification done by the
smart constructors — keeps the CNF for the early BMC frames small.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SmtError
from repro.sat.cnf import CNF
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.utils.bitops import clog2

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solve.pipeline import PipelineConfig

_GATE_AND = 0
_GATE_XOR = 1


class BitBlaster:
    """Translate :class:`~repro.smt.terms.BV` terms into CNF clauses."""

    def __init__(self, pipeline: "PipelineConfig | int | None" = 0) -> None:
        from repro.solve.pipeline import PipelineConfig

        self.pipeline = PipelineConfig.resolve(pipeline)
        self._use_aig = self.pipeline.use_aig
        self.cnf = CNF()
        self._const_var = self.cnf.new_var()
        self.cnf.add_clause([self._const_var])
        if self._use_aig:
            from repro.aig import AIG, CnfLowering

            self.aig: "AIG | None" = AIG()
            self._lower = CnfLowering(self.aig, self.cnf, self._const_var)
            self.TRUE = self.aig.TRUE
            self.FALSE = self.aig.FALSE
        else:
            self.aig = None
            self._lower = None
            self.TRUE = self._const_var
            self.FALSE = -self._const_var
        # CNF vars of named-variable bits not yet reported through
        # :meth:`drain_protected_vars` (naive mode; the AIG mode tracks
        # lazily lowered bits inside the lowering instead).
        self._protected_pending: list[int] = []
        # term id -> list of literals (LSB first)
        self._cache: dict[int, list[int]] = {}
        # variable name -> list of literals
        self._var_bits: dict[str, list[int]] = {}
        # structural hashing of gates: (kind, a, b) -> output literal, with
        # operands canonically ordered.  Distinct terms that bit-blast to the
        # same gate structure (repeated pipeline logic across BMC frames,
        # re-instantiated CEGIS examples) then share literals and clauses.
        # (The AIG mode hashes inside the graph instead.)
        self._gate_cache: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------ primitives

    def _new_lit(self) -> int:
        if self._use_aig:
            return self.aig.add_input()
        return self.cnf.new_var()

    def _and(self, a: int, b: int) -> int:
        if self._use_aig:
            return self.aig.and_(a, b)
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
        if a > b:
            a, b = b, a
        key = (_GATE_AND, a, b)
        out = self._gate_cache.get(key)
        if out is not None:
            return out
        out = self._new_lit()
        self.cnf.add_clause([-out, a])
        self.cnf.add_clause([-out, b])
        self.cnf.add_clause([out, -a, -b])
        self._gate_cache[key] = out
        return out

    def _or(self, a: int, b: int) -> int:
        return -self._and(-a, -b)

    def _xor(self, a: int, b: int) -> int:
        if self._use_aig:
            return self.aig.xor_(a, b)
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
        # xor is symmetric under operand order and pushes negations to the
        # output (a ^ b == -(−a ^ b)), so normalise to positive, ordered
        # operands and track the sign of the result.
        sign = 1
        if a < 0:
            a, sign = -a, -sign
        if b < 0:
            b, sign = -b, -sign
        if a > b:
            a, b = b, a
        key = (_GATE_XOR, a, b)
        out = self._gate_cache.get(key)
        if out is None:
            out = self._new_lit()
            self.cnf.add_clause([-out, a, b])
            self.cnf.add_clause([-out, -a, -b])
            self.cnf.add_clause([out, -a, b])
            self.cnf.add_clause([out, a, -b])
            self._gate_cache[key] = out
        return sign * out

    def _ite(self, cond: int, then_lit: int, else_lit: int) -> int:
        if self._use_aig:
            # A native mux node lowers to 4 clauses; the or-of-ands expansion
            # below costs 3 auxiliary variables and 9 clauses.
            return self.aig.ite(cond, then_lit, else_lit)
        if cond == self.TRUE:
            return then_lit
        if cond == self.FALSE:
            return else_lit
        if then_lit == else_lit:
            return then_lit
        return self._or(self._and(cond, then_lit), self._and(-cond, else_lit))

    def _full_adder(self, a: int, b: int, carry: int) -> tuple[int, int]:
        total = self._xor(self._xor(a, b), carry)
        carry_out = self._or(
            self._and(a, b), self._or(self._and(a, carry), self._and(b, carry))
        )
        return total, carry_out

    # ----------------------------------------------------------- word blocks

    def _add_bits(self, a: list[int], b: list[int], carry_in: int) -> list[int]:
        out: list[int] = []
        carry = carry_in
        for abit, bbit in zip(a, b):
            s, carry = self._full_adder(abit, bbit, carry)
            out.append(s)
        return out

    def _sub_bits(self, a: list[int], b: list[int]) -> list[int]:
        return self._add_bits(a, [-bit for bit in b], self.TRUE)

    def _mul_bits(self, a: list[int], b: list[int]) -> list[int]:
        width = len(a)
        acc = [self.FALSE] * width
        for i in range(width):
            partial = [self.FALSE] * i + [
                self._and(a[j], b[i]) for j in range(width - i)
            ]
            acc = self._add_bits(acc, partial, self.FALSE)
        return acc

    def _ult_bits(self, a: list[int], b: list[int]) -> int:
        """Unsigned a < b, computed MSB-down."""
        result = self.FALSE
        equal_so_far = self.TRUE
        for abit, bbit in zip(reversed(a), reversed(b)):
            lt_here = self._and(-abit, bbit)
            result = self._or(result, self._and(equal_so_far, lt_here))
            equal_so_far = self._and(equal_so_far, -self._xor(abit, bbit))
        return result

    def _eq_bits(self, a: list[int], b: list[int]) -> int:
        result = self.TRUE
        for abit, bbit in zip(a, b):
            result = self._and(result, -self._xor(abit, bbit))
        return result

    def _shift_bits(self, a: list[int], amount: list[int], kind: str) -> list[int]:
        """Barrel shifter; ``kind`` is one of ``shl``, ``lshr``, ``ashr``."""
        width = len(a)
        stages = clog2(width) if width > 1 else 1
        fill = a[-1] if kind == "ashr" else self.FALSE
        current = list(a)
        for stage in range(stages):
            shift = 1 << stage
            if stage < len(amount):
                sel = amount[stage]
            else:
                sel = self.FALSE
            shifted = []
            for i in range(width):
                if kind == "shl":
                    src = current[i - shift] if i - shift >= 0 else self.FALSE
                else:
                    src = current[i + shift] if i + shift < width else fill
                shifted.append(self._ite(sel, src, current[i]))
            current = shifted
        # If any amount bit beyond the barrel range is set, the result is the
        # overflow fill value (zero, or sign-fill for ashr).
        overflow = self.FALSE
        for i in range(stages, len(amount)):
            overflow = self._or(overflow, amount[i])
        # Shifting by >= width with in-range barrel bits: amounts up to
        # 2**stages - 1 are representable; when width is not a power of two
        # amounts in [width, 2**stages) must also produce the fill value.
        if width != (1 << stages):
            width_bits = [
                self.TRUE if (width >> i) & 1 else self.FALSE
                for i in range(len(amount))
            ]
            ge_width = -self._ult_bits(amount, width_bits)
            overflow = self._or(overflow, ge_width)
        return [self._ite(overflow, fill, bit) for bit in current]

    # ------------------------------------------------------------------ main

    def blast(self, term: BV) -> list[int]:
        """Return the literal list (LSB first) encoding ``term``."""
        stack: list[tuple[BV, bool]] = [(term, False)]
        cache = self._cache
        while stack:
            node, expanded = stack.pop()
            if node.tid in cache:
                continue
            if node.op in (T.OP_CONST, T.OP_VAR):
                cache[node.tid] = self._blast_leaf(node)
                continue
            if not expanded:
                stack.append((node, True))
                for arg in node.args:
                    if arg.tid not in cache:
                        stack.append((arg, False))
                continue
            args = [cache[a.tid] for a in node.args]
            cache[node.tid] = self._blast_node(node, args)
        return cache[term.tid]

    def _blast_leaf(self, node: BV) -> list[int]:
        if node.op == T.OP_CONST:
            value = node.const_value()
            return [
                self.TRUE if (value >> i) & 1 else self.FALSE
                for i in range(node.width)
            ]
        assert node.name is not None
        bits = self._var_bits.get(node.name)
        if bits is None:
            bits = [self._new_lit() for _ in range(node.width)]
            self._var_bits[node.name] = bits
            if self._use_aig:
                self._lower.watched.update(bits)
            else:
                self._protected_pending.extend(bits)
        return bits

    def _blast_node(self, node: BV, args: list[list[int]]) -> list[int]:
        op = node.op
        if op == T.OP_NOT:
            return [-b for b in args[0]]
        if op == T.OP_AND:
            return [self._and(a, b) for a, b in zip(args[0], args[1])]
        if op == T.OP_OR:
            return [self._or(a, b) for a, b in zip(args[0], args[1])]
        if op == T.OP_XOR:
            return [self._xor(a, b) for a, b in zip(args[0], args[1])]
        if op == T.OP_ADD:
            return self._add_bits(args[0], args[1], self.FALSE)
        if op == T.OP_SUB:
            return self._sub_bits(args[0], args[1])
        if op == T.OP_MUL:
            return self._mul_bits(args[0], args[1])
        if op == T.OP_EQ:
            return [self._eq_bits(args[0], args[1])]
        if op == T.OP_ULT:
            return [self._ult_bits(args[0], args[1])]
        if op == T.OP_SLT:
            a, b = args[0], args[1]
            # signed compare: flip the sign bits and compare unsigned
            a_flipped = a[:-1] + [-a[-1]]
            b_flipped = b[:-1] + [-b[-1]]
            return [self._ult_bits(a_flipped, b_flipped)]
        if op == T.OP_ITE:
            cond = args[0][0]
            return [
                self._ite(cond, t, e) for t, e in zip(args[1], args[2])
            ]
        if op == T.OP_CONCAT:
            return args[1] + args[0]
        if op == T.OP_EXTRACT:
            high, low = node.params
            return args[0][low : high + 1]
        if op == T.OP_SHL:
            return self._shift_bits(args[0], args[1], "shl")
        if op == T.OP_LSHR:
            return self._shift_bits(args[0], args[1], "lshr")
        if op == T.OP_ASHR:
            return self._shift_bits(args[0], args[1], "ashr")
        raise SmtError(f"cannot bit-blast operator {op!r}")

    # -------------------------------------------------------------- frontend

    def materialize(self, lit: int) -> int:
        """Translate a blast-domain literal into a CNF literal.

        In naive mode this is the identity; in AIG mode the literal's cone
        is lowered into the CNF on first use.
        """
        if self._use_aig:
            return self._lower.materialize(lit)
        return lit

    def assert_term(self, term: BV) -> None:
        """Assert that a width-1 term is true."""
        if term.width != 1:
            raise SmtError(f"assertions must have width 1, got {term.width}")
        bits = self.blast(term)
        self.cnf.add_clause([self.materialize(bits[0])])

    def assumption_literal(self, term: BV) -> int:
        """Bit-blast a width-1 term and return its CNF literal, unasserted."""
        if term.width != 1:
            raise SmtError(f"assumptions must have width 1, got {term.width}")
        return self.materialize(self.blast(term)[0])

    def variable_bits(self, name: str) -> list[int] | None:
        """CNF literals backing variable ``name`` (``None`` if unused)."""
        bits = self._var_bits.get(name)
        if bits is None or not self._use_aig:
            return bits
        return [self._lower.materialize(bit) for bit in bits]

    def drain_protected_vars(self) -> list[int]:
        """CNF variables of named-variable bits that reached the CNF since
        the last drain.

        The preprocessor must never eliminate these (model extraction reads
        them); bits whose cone was never lowered have no CNF presence yet
        and need no protection — they surface in the drain that follows
        their lowering.  Each variable is reported exactly once.
        """
        if self._use_aig:
            out = self._lower.watched_lowered
            self._lower.watched_lowered = []
        else:
            out = self._protected_pending
            self._protected_pending = []
        return out
