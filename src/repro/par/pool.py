"""A multiprocessing task pool with deterministic results and crash recovery.

A zoo campaign is a list of independent oracle runs whose reports must
come back *in task order*, regardless of which worker finished first.
:class:`TaskPool` provides exactly that:

* ``jobs=1`` degenerates to plain in-process sequential execution — no
  subprocess, no pickling, bit-identical to a hand-written ``for`` loop.
* ``jobs>1`` forks worker processes.  Tasks are dispatched by the parent
  one at a time (a worker asks for work when idle), so the parent always
  knows which task a worker is holding; results stream back over a queue
  and are slotted into their task index.
* a worker that *raises* reports the failure as a :class:`TaskResult` with
  ``ok=False`` and keeps serving tasks; a worker that *dies* (segfault,
  ``os._exit``, OOM-kill) is detected by liveness polling, its in-flight
  task is marked failed, and a replacement worker is forked so the pool
  retains its capacity for the remaining tasks.

Tasks travel to the workers through fork inheritance, so they do not need
to be picklable (closures over term graphs and component libraries are
fine).  Results cross a process boundary and therefore must pickle; a
result that fails to pickle is reported as a failed task, not a hung pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.errors import SolveError

#: Seconds the parent waits on the result queue before it polls worker
#: liveness (a dead worker never reports, so its task is found this way).
POLL_INTERVAL = 0.05


class ParError(SolveError):
    """Raised for unrecoverable parallel-execution failures."""


@dataclass
class TaskResult:
    """Outcome of one task: either a value or an error description."""

    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None

    def unwrap(self) -> Any:
        if not self.ok:
            raise ParError(f"task {self.index} failed: {self.error}")
        return self.value


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` knob: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ParError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _worker_main(worker_fn, tasks, inbox, results, worker_id) -> None:
    """Worker loop: ask for an index, claim it, run it, report, repeat.

    The "claim" message lets the parent distinguish a worker that died
    *executing* a task (fail the task) from one that died before picking a
    dispatched task up (requeue it).  Values are pickled eagerly here
    because ``Queue.put`` pickles in a background feeder thread — a pickle
    error there is printed and the message silently dropped, which would
    leave the parent waiting forever.
    """
    while True:
        index = inbox.get()
        if index is None:
            break
        results.put(("claim", worker_id, index, None, None))
        try:
            value = worker_fn(tasks[index])
            payload = pickle.dumps(value)
            message = ("done", worker_id, index, payload, None)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            message = ("done", worker_id, index, None, f"{type(exc).__name__}: {exc}")
        results.put(message)


class TaskPool:
    """Run independent tasks, optionally across forked worker processes."""

    def __init__(self, jobs: Optional[int] = 1):
        self.jobs = resolve_jobs(jobs)

    # ------------------------------------------------------------------- API

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[TaskResult]:
        """Apply ``fn`` to every task; results come back in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return self._run_sequential(fn, tasks)
        return self._run_forked(fn, tasks)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Like :meth:`run` but unwraps values, raising on the first failure."""
        return [result.unwrap() for result in self.run(fn, tasks)]

    # ------------------------------------------------------------ sequential

    @staticmethod
    def _run_sequential(fn, tasks) -> list[TaskResult]:
        results = []
        for index, task in enumerate(tasks):
            try:
                results.append(TaskResult(index, True, fn(task)))
            except (Exception, SystemExit) as exc:
                # SystemExit is included to mirror the forked workers, which
                # report any BaseException from a task as a failed result.
                # KeyboardInterrupt still propagates: in-process it is the
                # user interrupting the driver, not the task failing.
                results.append(
                    TaskResult(index, False, error=f"{type(exc).__name__}: {exc}")
                )
        return results

    # ---------------------------------------------------------------- forked

    def _run_forked(self, fn, tasks) -> list[TaskResult]:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            # No fork on this platform: sequential is always correct.
            return self._run_sequential(fn, tasks)
        results_queue = ctx.Queue()
        pending = list(range(len(tasks)))  # not yet dispatched, in order
        requeued: set[int] = set()
        slots: dict[int, dict] = {}
        num_workers = min(self.jobs, len(tasks))
        results: list[Optional[TaskResult]] = [None] * len(tasks)
        completed = 0

        def spawn(worker_id: int) -> None:
            inbox = ctx.Queue()
            process = ctx.Process(
                target=_worker_main,
                args=(fn, tasks, inbox, results_queue, worker_id),
                daemon=True,
            )
            process.start()
            slots[worker_id] = {
                "process": process,
                "inbox": inbox,
                "task": None,  # dispatched index
                "claimed": None,  # index the worker confirmed it is executing
            }

        def dispatch(worker_id: int) -> None:
            slot = slots[worker_id]
            slot["claimed"] = None
            if pending:
                slot["task"] = pending.pop(0)
                slot["inbox"].put(slot["task"])
            else:
                slot["task"] = None
                slot["inbox"].put(None)

        try:
            for worker_id in range(num_workers):
                spawn(worker_id)
                dispatch(worker_id)
            while completed < len(tasks):
                try:
                    kind, worker_id, index, payload, error = results_queue.get(
                        timeout=POLL_INTERVAL
                    )
                except queue_module.Empty:
                    completed += self._reap_crashed(
                        spawn, dispatch, slots, results, pending, requeued
                    )
                    continue
                slot = slots.get(worker_id)
                if kind == "claim":
                    if slot is not None and slot["task"] == index:
                        slot["claimed"] = index
                    continue
                if results[index] is None:
                    # A late message for a task already failed by crash
                    # detection is dropped: every index resolves exactly once.
                    if error is None:
                        results[index] = TaskResult(index, True, pickle.loads(payload))
                    else:
                        results[index] = TaskResult(index, False, error=error)
                    completed += 1
                if slot is not None and slot["task"] == index:
                    dispatch(worker_id)
        finally:
            self._shutdown(slots)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    @staticmethod
    def _reap_crashed(spawn, dispatch, slots, results, pending, requeued) -> int:
        """Handle dead workers: fail the task they were executing (claimed),
        requeue a task they never picked up, and refill the slot."""
        reaped = 0
        for worker_id, slot in list(slots.items()):
            process = slot["process"]
            if process.is_alive():
                continue
            index = slot["task"]
            if index is None:
                # Finished cleanly after its poison pill.
                del slots[worker_id]
                continue
            if slot["claimed"] == index or index in requeued:
                # Died while executing (or already got its one retry): the
                # task itself may be the cause, so it is failed rather than
                # retried — a poison task must not take down every
                # replacement worker in turn.  A crash can outrun the flush
                # of its own claim message, which is why an unclaimed task
                # is requeued at most once instead of unconditionally.
                results[index] = TaskResult(
                    index,
                    False,
                    error=f"worker crashed (exit code {process.exitcode})",
                )
                reaped += 1
            else:
                # Dispatched but (as far as the parent knows) never picked
                # up: send it back to the front of the queue once.
                requeued.add(index)
                pending.insert(0, index)
            spawn(worker_id)
            dispatch(worker_id)
        return reaped

    def _shutdown(self, slots) -> None:
        for slot in slots.values():
            if slot["process"].is_alive():
                try:
                    slot["inbox"].put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + 2.0
        for slot in slots.values():
            slot["process"].join(timeout=max(0.0, deadline - time.monotonic()))
            if slot["process"].is_alive():
                slot["process"].terminate()
                slot["process"].join(timeout=1.0)
