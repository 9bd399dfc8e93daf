"""Bounded model checking (the role Pono plays in the paper's flow).

:class:`BmcEngine` unrolls a transition system frame by frame and asks the
bit-vector solver whether a safety property can be violated within the
bound; when it can, it reconstructs a concrete counterexample trace.
Unbounded proofs are :mod:`repro.pdr`'s job.
"""

from repro.bmc.trace import Trace, TraceStep
from repro.bmc.engine import BmcEngine, BmcResult, BmcSession, BmcStats

__all__ = [
    "Trace",
    "TraceStep",
    "BmcEngine",
    "BmcResult",
    "BmcSession",
    "BmcStats",
]
