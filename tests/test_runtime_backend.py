"""Execution backends: ordering, hooks, fallbacks, error propagation."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.runtime import ProcessPoolBackend, SerialBackend, resolve_backend
from repro.runtime.backend import _POOL_RESTARTS


def square(x):
    return x * x


def draw(rng):
    """Consume a task-embedded stream (the seeding discipline)."""
    return float(rng.random())


def boom(x):
    raise ValueError(f"task {x} failed")


def crash_once(task):
    """Hard-kill the worker on the first attempt at a marked task.

    ``task`` is ``(value, sentinel_path)``; the sentinel file records
    that the crash already happened so the retry succeeds.
    """
    value, sentinel = task
    if sentinel is not None and not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os._exit(1)  # simulates a segfault / OOM kill
    return value * value


def crash_in_workers(task):
    """Die whenever run inside a pool worker; succeed inline."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return task * task


def draw_maybe_crash(task):
    """Like :func:`draw`, but crash the worker once for a marked task."""
    rng, sentinel = task
    if sentinel is not None and not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return float(rng.random())


class TestSerialBackend:
    def test_results_in_task_order(self):
        assert SerialBackend().map_tasks(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_tasks(self):
        assert SerialBackend().map_tasks(square, []) == []

    def test_on_result_hook(self):
        seen = []
        SerialBackend().map_tasks(square, [2, 3], on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 4), (1, 9)]

    def test_error_propagates(self):
        with pytest.raises(ValueError):
            SerialBackend().map_tasks(boom, [1])


class TestProcessPoolBackend:
    def test_results_in_task_order(self):
        with ProcessPoolBackend(workers=2) as backend:
            assert backend.map_tasks(square, list(range(10))) == [i * i for i in range(10)]

    def test_on_result_sees_every_task(self):
        seen = []
        with ProcessPoolBackend(workers=2) as backend:
            backend.map_tasks(square, [1, 2, 3, 4], on_result=lambda i, r: seen.append(i))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_single_worker_falls_back_to_serial(self):
        backend = ProcessPoolBackend(workers=1)
        assert backend.map_tasks(square, [2, 3]) == [4, 9]
        assert backend._executor is None  # no pool was spun up

    def test_single_task_falls_back_to_serial(self):
        backend = ProcessPoolBackend(workers=4)
        assert backend.map_tasks(square, [5]) == [25]
        assert backend._executor is None

    def test_bounded_pending_queue(self):
        # 20 tasks over a window of 4 in flight per worker.
        with ProcessPoolBackend(workers=2) as backend:
            assert backend.map_tasks(square, list(range(20))) == [i * i for i in range(20)]

    def test_seeded_tasks_scheduling_independent(self):
        """Identical task streams -> identical results on any backend."""
        tasks_a = [np.random.default_rng(s) for s in (7, 8, 9, 10)]
        tasks_b = [np.random.default_rng(s) for s in (7, 8, 9, 10)]
        serial = SerialBackend().map_tasks(draw, tasks_a)
        with ProcessPoolBackend(workers=2) as backend:
            parallel = backend.map_tasks(draw, tasks_b)
        assert serial == parallel

    def test_error_propagates(self):
        with ProcessPoolBackend(workers=2) as backend:
            with pytest.raises(ValueError):
                backend.map_tasks(boom, [1, 2])

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)

    def test_close_idempotent(self):
        backend = ProcessPoolBackend(workers=2)
        backend.map_tasks(square, [1, 2])
        backend.close()
        backend.close()
        # Reusable after close: a fresh pool is created lazily.
        assert backend.map_tasks(square, [3, 4]) == [9, 16]
        assert backend.pools_created == 2
        backend.close()


class TestPoolLifecycle:
    def test_pool_reused_across_calls(self):
        with ProcessPoolBackend(workers=2) as backend:
            backend.map_tasks(square, [1, 2, 3])
            backend.map_tasks(square, [4, 5, 6])
            assert backend.map_calls == 2
            assert backend.pools_created == 1

    def test_warm_prespawns_the_pool(self):
        with ProcessPoolBackend(workers=2) as backend:
            backend.warm()
            assert backend.pools_created == 1
            backend.map_tasks(square, [1, 2, 3])
            assert backend.pools_created == 1

    def test_warm_is_a_noop_for_serial_width(self):
        backend = ProcessPoolBackend(workers=1)
        backend.warm()
        assert backend.pools_created == 0


class TestWorkerCrashContainment:
    def test_crashed_task_retried_on_fresh_pool(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        tasks = [(i, sentinel if i == 3 else None) for i in range(6)]
        with ProcessPoolBackend(workers=2) as backend:
            results = backend.map_tasks(crash_once, tasks)
            assert backend.pools_created == 2      # one rebuild
        assert results == [i * i for i in range(6)]

    def test_on_result_fires_for_retried_tasks(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        tasks = [(i, sentinel if i == 0 else None) for i in range(5)]
        seen = []
        with ProcessPoolBackend(workers=2) as backend:
            backend.map_tasks(
                crash_once, tasks, on_result=lambda i, r: seen.append(i)
            )
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_repeat_crasher_falls_back_to_serial(self):
        with ProcessPoolBackend(workers=2) as backend:
            results = backend.map_tasks(crash_in_workers, list(range(8)))
            # The first pool and two rebuilds break; the rest runs inline.
            assert backend.pools_created == 1 + _POOL_RESTARTS
        assert results == [i * i for i in range(8)]

    def test_retried_results_bitwise_identical(self, tmp_path):
        """A retried task re-pickles its parent-side RNG, so the retry
        reproduces the first-try draw exactly."""
        sentinel = str(tmp_path / "crashed-once")
        rngs = [np.random.default_rng(s) for s in (7, 8, 9, 10)]
        tasks = [(rng, sentinel if i == 1 else None) for i, rng in enumerate(rngs)]
        with ProcessPoolBackend(workers=2) as backend:
            parallel = backend.map_tasks(draw_maybe_crash, tasks)
        serial = SerialBackend().map_tasks(
            draw, [np.random.default_rng(s) for s in (7, 8, 9, 10)]
        )
        assert parallel == serial


class TestResolveBackend:
    def test_explicit_backend_wins(self):
        backend = SerialBackend()
        assert resolve_backend(backend, workers=8) is backend

    def test_workers_selects_pool(self):
        backend = resolve_backend(workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 2

    def test_default_is_serial(self):
        assert isinstance(resolve_backend(), SerialBackend)
        assert isinstance(resolve_backend(workers=1), SerialBackend)

    def test_invalid_workers_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                resolve_backend(workers=bad)
