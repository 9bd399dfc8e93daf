"""Word-level bit-vector terms, simplification, bit-blasting and solving.

This package is the stand-in for the SMT solver the paper's toolchain uses
(QF_BV queries from CEGIS, and the backend of the BMC engine).  It provides:

* :mod:`repro.smt.terms` — an immutable, hash-consed bit-vector term DSL
  with eager constant folding and algebraic simplification,
* :mod:`repro.smt.bitblast` — a Tseitin bit-blaster producing CNF for the
  CDCL solver in :mod:`repro.sat`,
* :mod:`repro.smt.evaluator` — a concrete evaluator used for trace replay
  and testing.

Solving goes through :class:`repro.solve.SolverContext` (assert / push /
pop / check / model).
"""

from repro.smt.terms import (
    BV,
    TermManager,
    bv_const,
    bv_var,
    bv_true,
    bv_false,
    bv_and,
    bv_or,
    bv_xor,
    bv_not,
    bv_add,
    bv_sub,
    bv_neg,
    bv_mul,
    bv_eq,
    bv_ne,
    bv_ult,
    bv_ule,
    bv_slt,
    bv_sle,
    bv_ite,
    bv_concat,
    bv_extract,
    bv_zext,
    bv_sext,
    bv_shl,
    bv_lshr,
    bv_ashr,
    bv_implies,
    bv_and_all,
    bv_or_all,
)
from repro.smt.evaluator import evaluate
from repro.smt.bitblast import BitBlaster

__all__ = [
    "BV",
    "TermManager",
    "bv_const",
    "bv_var",
    "bv_true",
    "bv_false",
    "bv_and",
    "bv_or",
    "bv_xor",
    "bv_not",
    "bv_add",
    "bv_sub",
    "bv_neg",
    "bv_mul",
    "bv_eq",
    "bv_ne",
    "bv_ult",
    "bv_ule",
    "bv_slt",
    "bv_sle",
    "bv_ite",
    "bv_concat",
    "bv_extract",
    "bv_zext",
    "bv_sext",
    "bv_shl",
    "bv_lshr",
    "bv_ashr",
    "bv_implies",
    "bv_and_all",
    "bv_or_all",
    "evaluate",
    "BitBlaster",
]
