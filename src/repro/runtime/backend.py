"""Execution backends for independent work units.

Contract: ``map_tasks(fn, tasks)`` applies ``fn`` to every task and
returns the results **in task order**.  Tasks must be self-contained —
in particular, any randomness a task consumes must travel *inside* the
task as a pre-derived :class:`numpy.random.Generator` (see
:class:`~repro.sim.rng.SeedSequence`).  Under that discipline the
results are bitwise-identical no matter how the backend schedules the
work, which is what lets the determinism test suite run the same
pipeline through :class:`SerialBackend` and :class:`ProcessPoolBackend`
and compare artifacts exactly.

``on_result(index, result)`` is an optional completion hook, invoked in
the *parent* process as results arrive (completion order for the process
pool, task order for the serial backend).  Progress reporting hangs off
this hook so workers never need a channel back to the UI.

Worker crashes are contained rather than fatal: when the pool breaks
(a worker segfaults, is OOM-killed, or otherwise dies mid-task), the
in-flight tasks are requeued onto a fresh pool (at most twice per task,
two rebuilds per call), and if the pool keeps collapsing the remaining
tasks run serially in the parent — so a campaign finishes instead of
dying with a raw ``BrokenProcessPool``.  Because a re-run task re-pickles its
pristine parent-side state (including its RNG), retried results are
bitwise-identical to first-try results.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
]

#: Requeues one task may take after taking its pool down with it, and
#: fresh pools one ``map_tasks`` call builds before finishing serially.
_TASK_RETRIES = 2
_POOL_RESTARTS = 2


class ExecutionBackend:
    """Protocol for executing independent tasks."""

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Apply ``fn`` to each task; return results in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run every task inline, in order — the reference scheduling."""

    def map_tasks(self, fn, tasks, on_result=None) -> List[Any]:
        results: List[Any] = []
        for index, task in enumerate(tasks):
            result = fn(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


def _warm_task(index: int) -> int:
    """No-op task used by :meth:`ProcessPoolBackend.warm`."""
    return index


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out over worker processes.

    ``fn`` and the tasks must be picklable (module-level functions and
    plain dataclasses/arrays).  With ``workers=1`` or a single task,
    execution falls back to the serial path to avoid pointless process
    overhead.

    **Pool lifecycle.**  One pool is created lazily on first use and
    reused across ``map_tasks`` calls until ``close()`` (or
    context-manager exit) shuts it down, so a long-lived serve loop pays
    worker spawn once, not per round; a closed backend builds a fresh
    pool on its next call.  ``warm()`` pre-spawns the workers so the
    first real round does not absorb the fork/exec cost, and
    ``pools_created`` / ``map_calls`` make the lifecycle observable.
    At most four tasks per worker are in flight at once, bounding memory
    for large campaigns.
    """

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or os.cpu_count() or 1
        #: Lifetime counters: pools built (lazy creations + post-crash
        #: rebuilds) and ``map_tasks`` calls served.  A pool that never
        #: breaks or closes shows ``pools_created == 1`` however many
        #: rounds it serves.
        self.pools_created = 0
        self.map_calls = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self.pools_created += 1
        return self._executor

    def warm(self) -> None:
        """Pre-spawn the worker processes (the pool's one-time cost), so
        the first real ``map_tasks`` call measures work, not fork/exec.
        A no-op for ``workers=1``."""
        if self.workers == 1:
            return
        pool = self._pool()
        list(pool.map(_warm_task, range(2 * self.workers)))

    def _discard_pool(self) -> None:
        """Drop a broken executor without waiting on its corpses."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def map_tasks(self, fn, tasks, on_result=None) -> List[Any]:
        self.map_calls += 1
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            return SerialBackend().map_tasks(fn, tasks, on_result=on_result)
        window = 4 * self.workers   # futures in flight, bounding memory
        results: List[Any] = [None] * len(tasks)
        completed = [False] * len(tasks)
        attempts = [0] * len(tasks)
        queue = deque(range(len(tasks)))
        pending: dict = {}
        restarts = 0

        def finish(index: int, result: Any) -> None:
            results[index] = result
            completed[index] = True
            if on_result is not None:
                on_result(index, result)

        def run_serially() -> None:
            for index in range(len(tasks)):
                if not completed[index]:
                    finish(index, fn(tasks[index]))

        while queue or pending:
            victims: Optional[List[int]] = None
            try:
                while queue and len(pending) < window:
                    index = queue.popleft()
                    attempts[index] += 1
                    pending[self._pool().submit(fn, tasks[index])] = index
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                # ``done`` can mix real completions with futures poisoned
                # by the pool's death; harvest the former, collect the
                # latter as victims alongside the still-pending tasks.
                crashed: List[int] = []
                for future in done:
                    index = pending.pop(future)
                    try:
                        finish(index, future.result())  # re-raises task errors
                    except BrokenProcessPool:
                        crashed.append(index)
                if crashed:
                    victims = sorted(crashed + list(pending.values()))
            except BrokenProcessPool:
                # submit()/wait() on an already-broken pool: every
                # in-flight task died without a result, all safe to re-run.
                victims = sorted(pending.values())
            if victims is None:
                continue
            pending.clear()
            self._discard_pool()
            restarts += 1
            exhausted = any(attempts[i] > _TASK_RETRIES for i in victims)
            if restarts > _POOL_RESTARTS or exhausted:
                # Containment failed: give up on process isolation and
                # finish the remainder in the parent, in order.
                run_serially()
                return results
            # Retry the victims first, preserving their original order.
            queue.extendleft(reversed(victims))
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


def resolve_backend(
    backend: Optional[ExecutionBackend] = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Normalize backend arguments: an explicit backend wins; otherwise
    ``workers > 1`` selects a process pool and ``workers = 1`` is serial."""
    if backend is not None:
        return backend
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > 1:
            return ProcessPoolBackend(workers)
    return SerialBackend()
