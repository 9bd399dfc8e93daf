"""Encoding lint: rules over the AIG and CNF layers.

These rules target artifacts that the constructors normally make
impossible: ``CNF.add_clause`` drops duplicate literals and tautologies,
and AIG nodes always reference earlier nodes.  The AIG lowering appends
its gate clauses without ``CNF.add_clause``; it relies on the AIG
constructors folding every constant, repeated or complementary operand,
and these rules check that it holds.  When one of them fires, some layer
bypassed the constructors or corrupted the containers, which is exactly
what generated encodings and preprocessing rewrites can do.

Rules:

* ``encoding.empty-clause`` [error] — an empty clause (the formula is
  trivially unsatisfiable; encoders never emit this on purpose).
* ``encoding.undefined-var`` [error] — a literal that is zero or
  references a variable above ``cnf.num_vars``.
* ``encoding.dup-lit`` [warning] — a repeated literal inside one clause.
* ``encoding.tautology`` [error] — ``l`` and ``-l`` in one clause.
* ``encoding.dup-clause`` [warning] — the same clause (as a set) occurring
  more than once.
* ``encoding.aig-order`` [error] — a gate whose argument references the
  constant sentinel, itself, or a *later* node (breaks every topological
  traversal downstream).
* ``encoding.aig-dangling`` [warning] — gates unreachable from the given
  roots (wasted encoding work; aggregated into one finding).
* ``encoding.preprocess-regression`` [warning] — preprocessing *grew* the
  clause count.
* ``encoding.restore-imbalance`` [error] — more eliminated variables
  restored than were ever eliminated (model-reconstruction corruption).
"""

from __future__ import annotations

from typing import Iterable

from repro.aig.graph import AIG, K_AND, K_ITE, K_XOR
from repro.lint.findings import SEV_ERROR, SEV_WARNING, LintReport
from repro.sat.cnf import CNF
from repro.solve.pipeline import EncodingStats


def lint_cnf(cnf: CNF) -> LintReport:
    """Run every CNF-layer rule over ``cnf``."""
    report = LintReport()
    num_vars = cnf.num_vars
    seen: dict[frozenset[int], int] = {}
    for index, clause in enumerate(cnf.clauses):
        where = f"clause[{index}]"
        if not clause:
            report.add(
                "encoding.empty-clause",
                SEV_ERROR,
                where,
                "empty clause (formula is trivially unsatisfiable)",
                "the encoder emitted a contradiction; inspect the producer",
            )
            continue
        bad = sorted({lit for lit in clause if lit == 0 or abs(lit) > num_vars})
        if bad:
            report.add(
                "encoding.undefined-var",
                SEV_ERROR,
                where,
                f"literals outside the declared variable range: {bad} "
                f"(num_vars={num_vars})",
                "allocate variables through CNF.new_var()",
            )
        lits = set(clause)
        if len(lits) < len(clause):
            report.add(
                "encoding.dup-lit",
                SEV_WARNING,
                where,
                f"duplicate literals survived normalisation: {list(clause)}",
                "route clauses through CNF.add_clause(), or, for a lowered "
                "gate, build its node through AIG.and_/xor_/ite",
            )
        if any(-lit in lits for lit in lits):
            report.add(
                "encoding.tautology",
                SEV_ERROR,
                where,
                f"tautological clause survived normalisation: {list(clause)}",
                "route clauses through CNF.add_clause(), or, for a lowered "
                "gate, build its node through AIG.and_/xor_/ite",
            )
            continue
        key = frozenset(lits)
        if key in seen:
            report.add(
                "encoding.dup-clause",
                SEV_WARNING,
                where,
                f"duplicate of clause[{seen[key]}]: {sorted(lits)}",
                "deduplicate in the producer (wasted propagation work)",
            )
        else:
            seen[key] = index
    return report


def lint_aig(aig: AIG, roots: Iterable[int] = ()) -> LintReport:
    """Run the AIG-layer rules; ``roots`` enables the dangling-node check."""
    report = LintReport()
    num = aig.num_nodes()
    top = num + 1  # valid node ids are 2..top (1 is the constant)
    for node in range(2, top + 1):
        for arg in aig.args(node):
            ref = abs(arg)
            if ref == 0 or ref >= node:
                report.add(
                    "encoding.aig-order",
                    SEV_ERROR,
                    f"node {node}",
                    f"argument {arg} does not reference an earlier node",
                    "build nodes through AIG.and_/xor_/ite only",
                )
    root_list = [abs(r) for r in roots if abs(r) > 1]
    if root_list:
        reachable: set[int] = set()
        stack = list(root_list)
        while stack:
            node = stack.pop()
            if node in reachable or node > top:
                continue
            reachable.add(node)
            stack.extend(abs(a) for a in aig.args(node) if abs(a) > 1)
        dangling = [
            node
            for node in range(2, top + 1)
            if node not in reachable and aig.kind(node) in (K_AND, K_XOR, K_ITE)
        ]
        if dangling:
            sample = dangling[:8]
            report.add(
                "encoding.aig-dangling",
                SEV_WARNING,
                f"nodes {sample}{'...' if len(dangling) > 8 else ''}",
                f"{len(dangling)} gate(s) unreachable from the given roots",
                "dead logic got encoded; check cone extraction",
            )
    return report


def lint_encoding_stats(stats: EncodingStats) -> LintReport:
    """Rules over the pre/post-preprocessing deltas of one context's encoding."""
    report = LintReport()
    pre = stats.cnf_clauses_pre
    post = stats.cnf_clauses_post
    if post > pre:
        report.add(
            "encoding.preprocess-regression",
            SEV_WARNING,
            "preprocess",
            f"preprocessing grew the clause count: {pre} -> {post}",
            "a rewrite is counterproductive on this workload; check "
            "resolvent bounds",
        )
    eliminated = stats.vars_eliminated
    restored = stats.vars_restored
    if restored > eliminated:
        report.add(
            "encoding.restore-imbalance",
            SEV_ERROR,
            "preprocess",
            f"{restored} variables restored but only {eliminated} were "
            "eliminated",
            "model reconstruction is corrupting the elimination stack",
        )
    return report
