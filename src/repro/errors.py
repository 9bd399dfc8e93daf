"""Exception hierarchy for the SEPE-SQED reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SatError(ReproError):
    """Malformed CNF input or misuse of the SAT solver API."""


class SmtError(ReproError):
    """Ill-typed bit-vector terms or unsupported operations."""


class SolveError(ReproError):
    """Misuse of the persistent solver context or an unknown SAT kernel."""


class IsaError(ReproError):
    """Unknown instruction, bad operand, or encoding/decoding failure."""


class AssemblerError(IsaError):
    """Syntax error in assembly text."""


class SynthesisError(ReproError):
    """Program synthesis failed in an unexpected way (not mere UNSAT)."""


class TransitionSystemError(ReproError):
    """Inconsistent transition-system definition (missing next/init, type clash)."""


class Btor2Error(ReproError):
    """Malformed BTOR2 text or unsupported node during conversion."""


class BmcError(ReproError):
    """Bounded-model-checking driver misuse (bad bound, missing property)."""


class PdrError(ReproError):
    """IC3/PDR engine misuse (missing property, invalid configuration)."""


class ProcessorError(ReproError):
    """Invalid processor configuration or unknown bug identifier."""


class UnknownBugError(ProcessorError, KeyError):
    """Bug name not in the catalog.

    Subclasses :class:`KeyError` too, so dict-style lookups through
    :func:`repro.proc.bugs.get_bug` can be caught either way.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return Exception.__str__(self)


class ZooError(ReproError):
    """Bug-zoo misuse: unknown family, invalid recipe, or bad campaign config."""


class LintError(ReproError):
    """Lint misuse, such as a finding with an unknown severity."""


class AbsintError(ReproError):
    """Abstract-interpretation misuse or a diverging fixpoint iteration."""


class SanitizerError(ReproError):
    """A kernel sanitizer (``REPRO_SANITIZE=1``) found a violated invariant.

    Raised from inside :class:`~repro.sat.solver.SatSolver` /
    :class:`~repro.sat.arena.ArenaSolver` when a debug-mode consistency
    check fails — watched literals, trail monotonicity, reason clauses,
    arena compaction, or the final model.  Always indicates kernel
    corruption, never a property of the input formula.
    """


class QedError(ReproError):
    """Invalid QED register partition or transformation failure."""


class VerificationError(ReproError):
    """Top-level SQED / SEPE-SQED flow failure."""
