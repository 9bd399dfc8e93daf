"""Forked task pool for bug-zoo campaigns (:mod:`repro.par`).

:class:`TaskPool` runs independent tasks with deterministic result
ordering, graceful worker-failure handling and a true in-process
sequential path for a single worker.  Its one caller is
:func:`repro.zoo.campaign.run_campaign`; every flow and experiment runs
its engines sequentially in-process.
"""

from repro.par.pool import ParError, TaskPool, TaskResult

__all__ = [
    "ParError",
    "TaskPool",
    "TaskResult",
]
