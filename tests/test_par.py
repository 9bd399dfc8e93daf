"""Tests for the campaign task pool (`repro.par`).

The load-bearing guarantees:

* results come back in task order,
* ``jobs=1`` degenerates to the plain in-process sequential path,
* a crashing worker fails its own task and nothing else.
"""

from __future__ import annotations

import os

import pytest

from repro.par import ParError, TaskPool
from repro.par.pool import resolve_jobs


def _square(x):
    return x * x


def _crash_on_three(x):
    if x == 3:
        os._exit(13)
    return x


def _reciprocal(x):
    return 1 // x


class TestTaskPool:
    def test_results_in_task_order(self):
        results = TaskPool(jobs=4).run(_square, list(range(12)))
        assert [r.index for r in results] == list(range(12))
        assert [r.value for r in results] == [i * i for i in range(12)]
        assert all(r.ok for r in results)

    def test_jobs1_runs_in_process(self):
        pids = TaskPool(jobs=1).map(lambda _: os.getpid(), [0, 1, 2])
        assert pids == [os.getpid()] * 3

    def test_forked_workers_run_out_of_process(self):
        pids = TaskPool(jobs=2).map(lambda _: os.getpid(), [0, 1, 2, 3])
        assert all(pid != os.getpid() for pid in pids)

    def test_empty_task_list(self):
        assert TaskPool(jobs=4).run(_square, []) == []

    def test_single_task_stays_sequential(self):
        pids = TaskPool(jobs=4).map(lambda _: os.getpid(), [0])
        assert pids == [os.getpid()]

    def test_exception_reported_not_raised(self):
        results = TaskPool(jobs=2).run(_reciprocal, [1, 0, 1])
        assert [r.ok for r in results] == [True, False, True]
        assert "ZeroDivisionError" in results[1].error
        with pytest.raises(ParError):
            TaskPool(jobs=2).map(_reciprocal, [1, 0, 1])

    def test_exception_reported_sequentially_too(self):
        results = TaskPool(jobs=1).run(_reciprocal, [1, 0, 1])
        assert [r.ok for r in results] == [True, False, True]

    def test_worker_crash_fails_only_its_task(self):
        results = TaskPool(jobs=3).run(_crash_on_three, list(range(7)))
        assert [r.ok for r in results] == [True, True, True, False, True, True, True]
        assert "crashed" in results[3].error
        assert [r.value for r in results if r.ok] == [0, 1, 2, 4, 5, 6]

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ParError):
            resolve_jobs(-1)
