"""Configuration of the staged term → AIG → CNF → preprocess compilation.

``SolverContext``, the BMC and PDR engines and ``check_invariant`` accept
an ``opt_level`` that resolves to a :class:`PipelineConfig`; the layers
above them (the flows, CEGIS, equivalence checking, the bug zoo and the
experiment harnesses) take none and run at the process default:

* ``opt_level=0`` — the naive reference path: direct Tseitin bit-blasting
  with only local gate caching, no cone-of-influence reduction, no CNF
  preprocessing.  This is the seed encoder, kept alive for differential
  testing (CI runs the whole suite with ``REPRO_OPT_LEVEL=0``).
* ``opt_level=1`` — terms lower through the :mod:`repro.aig` IR (structural
  hashing, rewrite rules, 4-clause muxes) and BMC restricts the transition
  system to the property's cone of influence.
* ``opt_level=2`` — additionally runs the incrementality-safe CNF
  preprocessor (:mod:`repro.sat.preprocess`) before clauses reach the SAT
  backend.  This is the default.

The process-wide default comes from the ``REPRO_OPT_LEVEL`` environment
variable, so a whole test run or benchmark sweep can be pinned to the naive
path without touching call sites.

Orthogonally, ``absint`` (default on; ``PipelineConfig(absint=False)``
turns it off) enables the abstract-interpretation layer from
:mod:`repro.absint`: pre-encoding constant-latch/bit folding in BMC and
PDR frame-∞ lemma seeding.  It only takes effect at ``opt_level >= 1`` —
level 0 stays the untouched reference encoder.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import SolveError

ENV_OPT_LEVEL = "REPRO_OPT_LEVEL"
DEFAULT_OPT_LEVEL = 2
MAX_OPT_LEVEL = 2


def default_opt_level() -> int:
    """The process default: ``$REPRO_OPT_LEVEL`` when set, else 2."""
    raw = os.environ.get(ENV_OPT_LEVEL)
    if raw is None or raw == "":
        return DEFAULT_OPT_LEVEL
    try:
        level = int(raw)
    except ValueError:
        raise SolveError(
            f"{ENV_OPT_LEVEL} must be an integer 0..{MAX_OPT_LEVEL}, got {raw!r}"
        )
    if not 0 <= level <= MAX_OPT_LEVEL:
        raise SolveError(
            f"{ENV_OPT_LEVEL} must be in 0..{MAX_OPT_LEVEL}, got {level}"
        )
    return level


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages of the compilation pipeline are enabled."""

    opt_level: int = DEFAULT_OPT_LEVEL
    absint: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.opt_level <= MAX_OPT_LEVEL:
            raise SolveError(
                f"opt_level must be in 0..{MAX_OPT_LEVEL}, got {self.opt_level}"
            )
        if not isinstance(self.absint, bool):
            raise SolveError(f"absint must be a bool, got {self.absint!r}")

    @property
    def use_aig(self) -> bool:
        """Lower terms through the AIG IR instead of direct Tseitin."""
        return self.opt_level >= 1

    @property
    def coi(self) -> bool:
        """Restrict transition systems to the checked property's cone."""
        return self.opt_level >= 1

    @property
    def preprocess(self) -> bool:
        """Run CNF preprocessing before the SAT backend sees clauses."""
        return self.opt_level >= 2

    @property
    def use_absint(self) -> bool:
        """Apply abstract-interpretation facts (BMC fold, PDR seeds).

        Off at ``opt_level=0`` regardless of ``absint``: level 0 is the
        untouched reference encoder the differential legs pin against.
        """
        return self.absint and self.opt_level >= 1

    @staticmethod
    def resolve(value: "PipelineConfig | int | None") -> "PipelineConfig":
        """Normalise an ``opt_level`` argument (config, int, or None)."""
        if value is None:
            return PipelineConfig(opt_level=default_opt_level())
        if isinstance(value, PipelineConfig):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return PipelineConfig(opt_level=value)
        raise SolveError(
            f"opt_level must be a PipelineConfig, an int or None, got {value!r}"
        )


@dataclass
class EncodingStats:
    """Size and effort counters of one context's compilation pipeline.

    A snapshot taken by
    :meth:`repro.solve.context.SolverContext.encoding_stats` (and
    ``BmcSession.encode_to``).  ``cnf_clauses_pre`` counts clauses
    produced by the blaster; ``cnf_clauses_post`` counts what actually
    reached the SAT backend after preprocessing (equal when preprocessing
    is off).  The level that produced them is the context's
    ``pipeline.opt_level``; what BMC's cone of influence dropped is on
    ``BmcSession.reduction``.
    """

    aig_nodes: int = 0
    cnf_clauses_pre: int = 0
    cnf_clauses_post: int = 0
    vars_eliminated: int = 0
    vars_restored: int = 0
