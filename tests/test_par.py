"""Tests for the parallel subsystem (`repro.par`).

The load-bearing guarantees:

* parallel drivers return *the same verdicts in the same order* as their
  sequential counterparts,
* ``jobs=1`` degenerates to the plain in-process sequential path,
* a crashing worker fails its own task and nothing else.
"""

from __future__ import annotations

import os

import pytest

from repro.bmc.engine import BmcEngine
from repro.bmc.kinduction import KInductionEngine
from repro.core.flow import SqedFlow
from repro.isa.config import IsaConfig
from repro.proc.bugs import get_bug
from repro.proc.config import ProcessorConfig
from repro.par import (
    ParError,
    TaskPool,
    check_frames_sharded,
    check_properties_parallel,
    prove_properties_parallel,
    resolve_jobs,
    verify_equivalences_parallel,
)
from repro.qed.equivalents import default_equivalent_programs, verify_equivalences
from repro.smt import terms as T
from repro.ts.system import TransitionSystem


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


@pytest.fixture(scope="module")
def small_programs():
    from repro.isa.config import IsaConfig

    return default_equivalent_programs(
        IsaConfig.small(), ops=["ADD", "SUB", "XOR", "OR", "AND", "SLT"]
    )


class TestParallelQed:
    def test_parallel_matches_sequential(self, small_programs):
        sequential = verify_equivalences(small_programs)
        parallel = verify_equivalences_parallel(small_programs, jobs=3)
        assert parallel == sequential
        assert list(parallel) == list(sequential)
        assert all(parallel.values())

    def test_jobs1_is_the_sequential_path(self, small_programs):
        assert verify_equivalences_parallel(small_programs, jobs=1) == (
            verify_equivalences(small_programs)
        )


def _counter_system(prefix: str, limit: int, buggy: bool) -> TransitionSystem:
    ts = TransitionSystem(name=f"{prefix}_counter")
    count = ts.add_state(f"{prefix}_count", 4, init=0)
    enable = ts.add_input(f"{prefix}_enable", 1)
    incremented = T.bv_add(count, T.bv_const(1, 4))
    if buggy:
        next_count = T.bv_ite(T.bv_eq(enable, T.bv_true()), incremented, count)
    else:
        at_limit = T.bv_ule(T.bv_const(limit, 4), count)
        next_count = T.bv_ite(
            T.bv_and(T.bv_eq(enable, T.bv_true()), T.bv_not(at_limit)),
            incremented,
            count,
        )
    ts.set_next(count, next_count)
    ts.add_property("bounded", T.bv_ule(count, T.bv_const(limit, 4)))
    ts.add_property(
        "small", T.bv_ule(count, T.bv_const(max(0, limit - 2), 4))
    )
    return ts


class TestShardedBmc:
    def test_sharded_verdict_matches_sequential_violation(self):
        ts = _counter_system("shard_bug", 5, buggy=True)
        sequential = BmcEngine(ts).check("bounded", bound=10)
        sharded = check_frames_sharded(ts, "bounded", bound=10, jobs=3)
        assert sequential.holds is False
        assert sharded.holds is False
        assert sharded.bound == sequential.bound
        assert sharded.trace is not None
        assert sharded.trace.length == sequential.trace.length

    def test_sharded_verdict_matches_sequential_holds(self):
        ts = _counter_system("shard_ok", 5, buggy=False)
        sequential = BmcEngine(ts).check("bounded", bound=8)
        sharded = check_frames_sharded(ts, "bounded", bound=8, jobs=3)
        assert sequential.holds is True
        assert sharded.holds is True
        assert sharded.bound == 8

    def test_sharded_jobs1_delegates_to_engine(self):
        ts = _counter_system("shard_seq", 4, buggy=True)
        result = check_frames_sharded(ts, "bounded", bound=10, jobs=1)
        assert result.holds is False
        assert result.bound == BmcEngine(ts).check("bounded", bound=10).bound

    def test_property_sweep_matches_sequential(self):
        ts = _counter_system("sweep", 5, buggy=True)
        parallel = check_properties_parallel(ts, ["bounded", "small"], bound=10, jobs=2)
        for name in ("bounded", "small"):
            sequential = BmcEngine(ts).check(name, bound=10)
            assert parallel[name].holds == sequential.holds
            assert parallel[name].bound == sequential.bound

    def test_kinduction_sweep_matches_sequential(self):
        ts = _counter_system("ksweep", 5, buggy=False)
        parallel = prove_properties_parallel(ts, ["bounded"], max_k=4, jobs=2)
        sequential = KInductionEngine(ts).prove("bounded", max_k=4)
        assert parallel["bounded"].proven == sequential.proven
        assert parallel["bounded"].k == sequential.k


class TestFlowJobs:
    """The `jobs` knob on the verification flows (tiny 4-bit datapath)."""

    @pytest.fixture(scope="class")
    def tiny_flow(self):
        isa = IsaConfig.small(xlen=4, num_regs=4)
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        return SqedFlow(config)

    def test_sharded_run_matches_sequential(self, tiny_flow):
        bug = get_bug("multi_no_forward_ex_rs1")
        sequential = tiny_flow.run(bug, bound=7)
        sharded = tiny_flow.run(bug, bound=7, jobs=2)
        assert sequential.detected is True
        assert sharded.detected is True
        assert sharded.counterexample_length == sequential.counterexample_length
        assert sharded.bmc_result.bound == sequential.bmc_result.bound

    def test_run_many_orders_and_matches(self, tiny_flow):
        bugs = [get_bug("multi_no_forward_ex_rs1"), get_bug("multi_no_forward_ex_rs2")]
        parallel = tiny_flow.run_many(bugs, bound=7, jobs=2)
        sequential = tiny_flow.run_many(bugs, bound=7, jobs=1)
        assert any(o.detected for o in sequential)
        assert [o.bug_name for o in parallel] == [b.name for b in bugs]
        assert [(o.bug_name, o.detected, o.counterexample_length) for o in parallel] == [
            (o.bug_name, o.detected, o.counterexample_length) for o in sequential
        ]
