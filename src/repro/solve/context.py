"""A persistent, incremental QF_BV solving context.

``SolverContext`` owns one :class:`~repro.smt.bitblast.BitBlaster` and one
:class:`~repro.solve.backend.CdclBackend` for its whole lifetime.
Everything the iterated solver loops need falls out of that single
decision:

* repeated subterms — shared pipeline logic across BMC frames, repeated
  CEGIS example instantiations — hit the blaster's term and gate caches and
  blast to the same literals instead of being re-encoded,
* the backend keeps its learned clauses, variable activities and saved
  phases between queries (MiniSat-style incremental solving under
  assumptions),
* retractable assertions are supported through activation literals:
  :meth:`push` opens a scope guarded by a fresh literal, scope assertions
  become ``activation -> term`` clauses, every :meth:`check` assumes the
  activation literals of the open scopes, and :meth:`pop` retires the
  scope by asserting the negated activation literal — learned clauses
  survive the pop.

The backend's CDCL kernel follows ``$REPRO_SAT_BACKEND`` (see
:mod:`repro.solve.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import SmtError, SolveError
from repro.sat.preprocess import Preprocessor
from repro.sat.solver import SolverStats
from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster
from repro.smt.evaluator import evaluate, free_variables
from repro.smt.terms import BV
from repro.solve.backend import CdclBackend
from repro.solve.pipeline import EncodingStats, PipelineConfig
from repro.utils.bitops import from_bits


@dataclass
class BVResult:
    """Outcome of a bit-vector satisfiability check.

    ``stats`` carries the CDCL counters (decisions, conflicts, propagations,
    ...) spent on *this* query only, so callers can aggregate per phase.
    """

    satisfiable: Optional[bool]
    model: dict[str, int] = field(default_factory=dict)
    num_clauses: int = 0
    num_vars: int = 0
    stats: SolverStats = field(default_factory=SolverStats)
    #: False when the check skipped model extraction (``need_model=False``).
    #: Kept separate from ``model`` being empty: a formula without free
    #: variables legitimately has an empty model.
    has_model: bool = True
    #: Failed-assumption core of an UNSAT answer, lifted back to the
    #: term-level assumptions the caller passed: a subset of ``assumptions``
    #: that — together with the asserted formulas and the open scopes —
    #: already makes the query unsatisfiable.  ``[]`` means the query is
    #: UNSAT without any of the passed assumptions; ``None`` on SAT/unknown
    #: answers.
    core: Optional[list["BV"]] = None

    def __bool__(self) -> bool:
        return bool(self.satisfiable)

    def value_of(self, term: "BV") -> int:
        """Evaluate ``term`` under the model (unassigned variables read as 0)."""
        if not self.satisfiable:
            raise SmtError("no model available: formula not satisfiable")
        if not self.has_model:
            raise SmtError(
                "no model available: the check was made with need_model=False; "
                "re-check with need_model=True to evaluate terms"
            )
        assignment = dict(self.model)
        for var in free_variables(term):
            assignment.setdefault(var.name or "", 0)
        return evaluate(term, assignment)


class _Scope:
    """One assumption-guarded assertion scope."""

    __slots__ = ("activation", "terms")

    def __init__(self, activation: int):
        self.activation = activation
        self.terms: list["BV"] = []


class SolverContext:
    """Incremental QF_BV solving over one blaster and one SAT backend."""

    def __init__(self, opt_level: "PipelineConfig | int | None" = None):
        self.pipeline = PipelineConfig.resolve(opt_level)
        self._blaster = BitBlaster(pipeline=self.pipeline)
        self._backend = CdclBackend()
        # CNF preprocessing (opt_level >= 2) filters every synced batch; the
        # constant-true variable is frozen forever, named-variable bits and
        # activation literals are frozen as they appear, and a query's
        # assumption variables before the flush that precedes it.
        self._pre: Optional[Preprocessor] = None
        if self.pipeline.preprocess:
            self._pre = Preprocessor()
            self._pre.freeze(self._blaster._const_var)
        self._backend_clauses = 0
        self._clauses_synced = 0
        # Root-level assertions in insertion order (constants included).
        self._root_terms: list["BV"] = []
        self._root_failed = False
        self._scopes: list[_Scope] = []
        # term id -> frozenset of variable terms (cached once per assertion)
        self._term_vars: dict[int, frozenset] = {}
        # Running union of the root assertions' variables, maintained lazily
        # so partial-model extraction costs O(new assertions) per check.
        self._root_relevant: set = set()
        self._root_vars_synced = 0

    # ------------------------------------------------------------- properties

    @property
    def backend(self) -> CdclBackend:
        return self._backend

    @property
    def blaster(self) -> "BitBlaster":
        return self._blaster

    @property
    def stats(self) -> SolverStats:
        """Cumulative backend counters over the context's lifetime (live view)."""
        return self._backend.stats

    @property
    def num_clauses(self) -> int:
        return len(self._blaster.cnf.clauses)

    @property
    def num_vars(self) -> int:
        return self._blaster.cnf.num_vars

    def encoding_stats(self) -> EncodingStats:
        """A snapshot of the compilation-pipeline size/effort counters.

        ``cnf_clauses_post`` only counts clauses already synced to the
        backend; call after a :meth:`check` for a settled picture.
        """
        stats = EncodingStats(opt_level=self.pipeline.opt_level)
        stats.cnf_vars = self.num_vars
        stats.cnf_clauses_pre = len(self._blaster.cnf.clauses)
        stats.cnf_clauses_post = self._backend_clauses
        aig = self._blaster.aig
        if aig is not None:
            stats.aig_nodes = aig.num_nodes()
            stats.aig_rewrite_hits = aig.stats().rewrite_hits
        if self._pre is not None:
            pre = self._pre.stats
            stats.units_found = pre.units_found
            stats.vars_eliminated = pre.vars_eliminated
            stats.vars_restored = pre.vars_restored
            stats.resolvents_added = pre.resolvents_added
        return stats

    @property
    def assertions(self) -> list["BV"]:
        """Root assertions plus the assertions of every open scope, in order."""
        terms = list(self._root_terms)
        for scope in self._scopes:
            terms.extend(scope.terms)
        return terms

    @property
    def scope_depth(self) -> int:
        return len(self._scopes)

    # ---------------------------------------------------------------- helpers

    def _vars_of(self, term: "BV") -> frozenset:
        cached = self._term_vars.get(term.tid)
        if cached is None:
            cached = frozenset(free_variables(term))
            self._term_vars[term.tid] = cached
        return cached

    def _sync(self) -> None:
        """Feed clauses produced by the blaster since the last query."""
        cnf = self._blaster.cnf
        clauses = cnf.clauses
        if self._pre is None:
            self._backend.reserve(cnf.num_vars)
            for index in range(self._clauses_synced, len(clauses)):
                self._backend.add_clause(clauses[index])
            self._backend_clauses += len(clauses) - self._clauses_synced
            self._clauses_synced = len(clauses)
            return
        if self._clauses_synced == len(clauses):
            self._backend.reserve(cnf.num_vars)
            return
        # Bits of named variables that reached the CNF must survive
        # preprocessing untouched: model extraction reads them directly.
        self._pre.freeze_all(self._blaster.drain_protected_vars())
        batch = clauses[self._clauses_synced :]
        self._clauses_synced = len(clauses)
        emitted = self._pre.flush(batch)
        self._backend.reserve(cnf.num_vars)
        for clause in emitted:
            self._backend.add_clause(clause)
        self._backend_clauses += len(emitted)

    def _feed_restored(self, clauses: list) -> None:
        """Hand un-eliminated clauses straight to the backend."""
        for clause in clauses:
            self._backend.add_clause(clause)
        self._backend_clauses += len(clauses)

    # --------------------------------------------------------------- scoping

    def push(self) -> int:
        """Open an assertion scope; returns the new scope depth."""
        activation = self._blaster.cnf.new_var()
        if self._pre is not None:
            # The activation literal is assumed by every check and asserted
            # negatively on pop; eliminating it would break both.
            self._pre.freeze(activation)
        self._scopes.append(_Scope(activation))
        return len(self._scopes)

    def pop(self) -> None:
        """Retire the innermost scope (its assertions become unreachable)."""
        if not self._scopes:
            raise SolveError("pop() without a matching push()")
        scope = self._scopes.pop()
        # Permanently disable the activation literal: the scope's guarded
        # clauses are satisfied forever, and clauses learned from them stay
        # sound because they all contain ``-activation``.
        self._blaster.cnf.add_clause([-scope.activation])

    # ------------------------------------------------------------- assertions

    def add(self, term: "BV") -> None:
        """Assert a width-1 term (scoped to the innermost open scope, if any)."""
        if term.width != 1:
            raise SmtError(f"assertions must have width 1, got {term.width}")
        scope = self._scopes[-1] if self._scopes else None
        if scope is not None:
            scope.terms.append(term)
        else:
            self._root_terms.append(term)
        if term.is_const:
            if term.const_value() == 0:
                if scope is None:
                    self._root_failed = True
                else:
                    self._blaster.cnf.add_clause([-scope.activation])
            return
        literal = self._blaster.assumption_literal(term)
        if literal == self._blaster._const_var:
            # A non-constant term that lowers to TRUE: the blaster's unit on
            # the constant-true variable already holds it.
            return
        if scope is None:
            self._blaster.cnf.add_clause([literal])
        else:
            self._blaster.cnf.add_clause([-scope.activation, literal])

    def add_clause(self, literals: Iterable["BV"]) -> None:
        """Assert the disjunction of width-1 ``literals`` as one CNF clause.

        Behaves exactly like ``add(bv_or_all(literals))`` — same scoping,
        same :attr:`assertions` record, same models — except for the CNF
        shape: each literal is blasted on its own and the clause joins their
        literals directly, so no gate is built for the disjunction.  A
        literal over already-blasted bits (a state bit, a transition
        relation output) then costs no variable at all, which is what keeps
        IC3's per-cube clauses from growing the formula.
        """
        literals = list(literals)
        for term in literals:
            if term.width != 1:
                raise SmtError(f"assertions must have width 1, got {term.width}")
        disjunction = T.bv_or_all(literals)
        if disjunction.is_const:
            # A constant-true literal satisfies the clause; all-false
            # literals leave it empty: add() handles both.
            self.add(disjunction)
            return
        clause = [
            self._blaster.assumption_literal(term)
            for term in literals
            if not term.is_const
        ]
        if self._scopes:
            scope = self._scopes[-1]
            scope.terms.append(disjunction)
            clause.insert(0, -scope.activation)
        else:
            self._root_terms.append(disjunction)
        self._blaster.cnf.add_clause(clause)

    def add_all(self, terms: Iterable["BV"]) -> None:
        for term in terms:
            self.add(term)

    def _blast_assumptions(
        self, assumptions: Iterable["BV"]
    ) -> tuple[list[int], list["BV"], Optional["BV"]]:
        """Blast query-scoped assumptions to CNF literals.

        Returns ``(literals, non-const terms, const_false)`` where
        ``const_false`` is an assumption term that folded to constant false
        (the query is then trivially UNSAT with that term as its own core),
        or ``None``.  Constant-true assumptions are dropped.  Shared by
        :meth:`check` and :meth:`encode` so the two paths cannot drift.
        """
        lits: list[int] = []
        terms: list["BV"] = []
        for term in assumptions:
            if term.width != 1:
                raise SmtError(f"assumptions must have width 1, got {term.width}")
            if term.is_const:
                if term.const_value() == 0:
                    return lits, terms, term
                continue
            lits.append(self._blaster.assumption_literal(term))
            terms.append(term)
        return lits, terms, None

    # ----------------------------------------------------------------- encode

    def encode(self, assumptions: Iterable["BV"] = ()) -> None:
        """Blast and sync the current assertions without querying the backend.

        Runs the full compilation pipeline — blasting (AIG lowering at
        ``opt_level>=1``), preprocessing, assumption-variable restoration —
        exactly as :meth:`check` would, but skips the SAT query.  The
        backend ends up with the same clause set a real check would feed
        it, which is what encoding-size measurement needs: formula sizes
        become observable without paying for solving the formula.
        """
        assumption_lits, _terms, const_false = self._blast_assumptions(assumptions)
        if const_false is not None:
            # check() answers such a query without syncing; mirror that.
            return
        if self._pre is not None:
            self._pre.freeze_all(assumption_lits)
        self._sync()
        if self._pre is not None and assumption_lits:
            restored = self._pre.require_vars(assumption_lits)
            if restored:
                self._feed_restored(restored)

    # ------------------------------------------------------------------ check

    def check(
        self,
        assumptions: Iterable["BV"] = (),
        conflict_budget: Optional[int] = None,
        full_model: bool = False,
        need_model: bool = True,
    ) -> BVResult:
        """Check satisfiability of the asserted terms plus ``assumptions``.

        ``assumptions`` bind only this query.  With ``full_model=True`` the
        model covers every bit-blasted variable (the BMC trace builder needs
        that); the default covers the free variables of the live assertions
        and the assumptions.  Callers that only consume the verdict (e.g.
        the k-induction step query) pass ``need_model=False`` to skip model
        extraction entirely.

        UNSAT answers carry ``core``: the failed-assumption core lifted
        back to the passed assumption terms (see :class:`BVResult`).  The
        core is *relative to the open scopes* — scope activation literals
        are assumed internally and never appear in the term core.
        """
        if self._root_failed:
            return BVResult(False, core=[])
        assumption_lits = [scope.activation for scope in self._scopes]
        lits, assumption_terms, const_false = self._blast_assumptions(assumptions)
        if const_false is not None:
            return BVResult(False, core=[const_false])
        assumption_lits.extend(lits)
        if self._pre is not None:
            # Assumption variables must be live in the backend.  Frozen before
            # the flush, they survive it; any an earlier flush eliminated get
            # their stored clauses back.
            self._pre.freeze_all(assumption_lits)
        self._sync()
        if self._pre is not None:
            restored = self._pre.require_vars(assumption_lits)
            if restored:
                self._feed_restored(restored)
            if self._pre.unsat:
                return BVResult(
                    False,
                    num_clauses=self.num_clauses,
                    num_vars=self.num_vars,
                    core=[],
                )
        before = self._backend.stats.copy()
        result = self._backend.solve(
            assumptions=assumption_lits,
            conflict_budget=conflict_budget,
            need_model=need_model,
        )
        spent = self._backend.stats.since(before)
        if result.satisfiable is None:
            return BVResult(
                None,
                num_clauses=self.num_clauses,
                num_vars=self.num_vars,
                stats=spent,
            )
        if not result.satisfiable:
            return BVResult(
                False,
                num_clauses=self.num_clauses,
                num_vars=self.num_vars,
                stats=spent,
                core=self._lift_core(result.core, lits, assumption_terms),
            )
        model: dict[str, int] = {}
        if need_model:
            backend_model = result.model
            if self._pre is not None:
                # Complete the model through eliminated auxiliary variables
                # so every CNF literal reads consistently.
                backend_model = self._pre.extend_model(backend_model)
            model = self._extract_model(backend_model, assumption_terms, full_model)
        return BVResult(
            True,
            model=model,
            num_clauses=self.num_clauses,
            num_vars=self.num_vars,
            stats=spent,
            has_model=need_model,
        )

    @staticmethod
    def _lift_core(
        backend_core: list[int],
        assumption_lits: list[int],
        assumption_terms: list["BV"],
    ) -> list["BV"]:
        """Map a backend literal core to the assumption terms it names.

        ``assumption_lits``/``assumption_terms`` are the aligned blast
        results of the caller's non-constant assumptions.  Scope activation
        literals in the backend core are internal and dropped; distinct
        terms sharing one blasted literal are all kept (the lifted set stays
        a subset of the assumptions and still implies UNSAT).
        """
        failed = set(backend_core)
        return [
            term
            for lit, term in zip(assumption_lits, assumption_terms)
            if lit in failed
        ]

    def _extract_model(
        self, backend_model, assumption_terms: list["BV"], full_model: bool
    ) -> dict[str, int]:
        blaster = self._blaster
        model: dict[str, int] = {}
        if full_model:
            names = list(blaster._var_bits)
        else:
            for index in range(self._root_vars_synced, len(self._root_terms)):
                term = self._root_terms[index]
                if not term.is_const:
                    self._root_relevant |= self._vars_of(term)
            self._root_vars_synced = len(self._root_terms)
            relevant: set = set(self._root_relevant)
            for scope in self._scopes:
                for term in scope.terms:
                    if not term.is_const:
                        relevant |= self._vars_of(term)
            for term in assumption_terms:
                relevant |= self._vars_of(term)
            names = []
            for var in relevant:
                assert var.name is not None
                names.append(var.name)
        for name in names:
            bits = blaster.variable_bits(name)
            if bits is None:
                model[name] = 0
                continue
            values = [
                1 if backend_model.get(abs(b), False) == (b > 0) else 0 for b in bits
            ]
            model[name] = from_bits(values)
        return model
