"""Parallel, sharded verification (:mod:`repro.par`).

The subsystem has two layers:

* :mod:`repro.par.pool` — a fork-based :class:`TaskPool` with deterministic
  result ordering, graceful worker-failure handling and a true sequential
  degenerate case at ``jobs=1``,
* sharded drivers — :func:`verify_equivalences_parallel` for batch QED
  equivalence checking, :func:`check_properties_parallel` /
  :func:`prove_properties_parallel` for property sweeps, and
  :func:`check_frames_sharded` for depth-sharding a single BMC run.

Everything is also reachable through the ``jobs=N`` knobs on
:class:`~repro.core.flow.SqedFlow` / :class:`~repro.core.flow.SepeSqedFlow`
and on the Table 1 / Figure 3 experiment harnesses.
"""

from repro.par.bmc import (
    check_frames_sharded,
    check_properties_parallel,
    prove_properties_parallel,
)
from repro.par.pool import ParError, TaskPool, TaskResult, resolve_jobs
from repro.par.qed import verify_equivalences_parallel

__all__ = [
    "ParError",
    "TaskPool",
    "TaskResult",
    "check_frames_sharded",
    "check_properties_parallel",
    "prove_properties_parallel",
    "resolve_jobs",
    "verify_equivalences_parallel",
]
