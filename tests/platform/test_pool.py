"""WorkerPool contracts: admission, ordering, timeouts, crashes, scale-down."""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import (
    PoolError,
    PoolJobError,
    PoolSaturatedError,
    PoolTimeoutError,
    PoolUnavailableError,
    WorkerCrashedError,
)
from repro.platform.pool import WorkerPool


# Job bodies must be module-level: they cross the worker pipe by reference.
def _echo(x):
    return x


def _add(a, b, *, c=0):
    return a + b + c


def _sleep_return(seconds, value=None):
    time.sleep(seconds)
    return value if value is not None else seconds


def _boom():
    raise ValueError("boom")


def _hard_exit():
    os._exit(3)


def _tagged_sleep(seconds, tag):
    time.sleep(seconds)
    return tag


class TestBasics:
    def test_submit_returns_result(self):
        with WorkerPool(max_workers=1, name="t") as pool:
            assert pool.submit(_echo, 42).result(timeout=30) == 42

    def test_args_and_kwargs_cross_the_pipe(self):
        with WorkerPool(max_workers=1, name="t") as pool:
            assert pool.submit(_add, 1, 2, c=3).result(timeout=30) == 6

    def test_workers_are_reused_across_jobs(self):
        with WorkerPool(max_workers=1, name="t") as pool:
            for i in range(5):
                assert pool.submit(_echo, i).result(timeout=30) == i
            stats = pool.stats()
            assert stats["completed"] == 5
            assert stats["spawned"] == 1  # persistent loop, not per-job forks

    def test_job_exception_surfaces_as_pool_job_error(self):
        with WorkerPool(max_workers=1, name="t") as pool:
            with pytest.raises(PoolJobError, match="ValueError: boom"):
                pool.submit(_boom).result(timeout=30)
            # The worker survives a job error and keeps serving.
            assert pool.submit(_echo, "ok").result(timeout=30) == "ok"

    def test_queued_jobs_run_in_submission_order(self):
        order: list[str] = []
        with WorkerPool(max_workers=1, max_pending=16, name="t") as pool:
            # Park the worker so every job below is queued before any runs.
            blocker = pool.submit(_sleep_return, 0.3)
            futs = [pool.submit(_tagged_sleep, 0.0, f"j{i}") for i in range(6)]
            for fut in futs:
                fut.add_done_callback(lambda f: order.append(f.result()))
            blocker.result(timeout=30)
            for fut in futs:
                fut.result(timeout=30)
        assert order == [f"j{i}" for i in range(6)]


class TestAdmission:
    def test_backlog_past_max_pending_is_rejected(self):
        with WorkerPool(max_workers=1, max_pending=2, name="t") as pool:
            blocker = pool.submit(_sleep_return, 1.0)
            queued = [pool.submit(_echo, i) for i in range(2)]
            with pytest.raises(PoolSaturatedError):
                pool.submit(_echo, 99)
            assert pool.stats()["rejected"] == 1
            assert blocker.result(timeout=30) == 1.0
            assert [f.result(timeout=30) for f in queued] == [0, 1]

    def test_submit_after_close_raises_unavailable(self):
        pool = WorkerPool(max_workers=1, name="t")
        pool.close()
        with pytest.raises(PoolUnavailableError):
            pool.submit(_echo, 1)

    def test_counters_outlive_close(self):
        pool = WorkerPool(max_workers=1, name="t")
        try:
            assert pool.submit(abs, -2).result(timeout=30) == 2
        finally:
            pool.close()
        # A metrics snapshot taken after close still reads the counters.
        stats = pool.stats()
        assert stats["submitted"] == stats["completed"] == 1
        assert stats["live_workers"] == 0

    def test_close_fails_queued_jobs(self):
        pool = WorkerPool(max_workers=1, max_pending=8, name="t")
        try:
            blocker = pool.submit(_sleep_return, 5.0)
            queued = pool.submit(_echo, 1)
        finally:
            pool.close()
        with pytest.raises(PoolUnavailableError):
            queued.result(timeout=5)
        with pytest.raises(PoolUnavailableError):
            blocker.result(timeout=5)


class TestFailureModes:
    def test_overdue_job_is_reaped_with_timeout_error(self):
        with WorkerPool(max_workers=1, name="t") as pool:
            fut = pool.submit(_sleep_return, 30.0, timeout_s=0.3)
            t0 = time.perf_counter()
            with pytest.raises(PoolTimeoutError):
                fut.result(timeout=30)
            assert time.perf_counter() - t0 < 10.0  # reaped, not awaited
            assert pool.stats()["timeouts"] == 1
            # The pool respawns and keeps serving after the kill.
            assert pool.submit(_echo, "alive").result(timeout=30) == "alive"

    def test_worker_crash_fails_the_job_not_the_pool(self):
        with WorkerPool(max_workers=1, name="t") as pool:
            with pytest.raises(WorkerCrashedError, match="exit 3"):
                pool.submit(_hard_exit).result(timeout=30)
            assert pool.stats()["crashes"] == 1
            assert pool.submit(_echo, "alive").result(timeout=30) == "alive"

    def test_pool_errors_are_one_hierarchy(self):
        for exc_type in (PoolSaturatedError, PoolTimeoutError,
                         WorkerCrashedError, PoolJobError,
                         PoolUnavailableError):
            assert issubclass(exc_type, PoolError)


class TestScaleDown:
    def test_idle_workers_retire_to_zero(self):
        with WorkerPool(max_workers=2, idle_timeout_s=0.2, name="t") as pool:
            pool.submit(_echo, 1).result(timeout=30)
            assert pool.live_workers >= 1
            deadline = time.perf_counter() + 10.0
            while pool.live_workers > 0 and time.perf_counter() < deadline:
                time.sleep(0.05)
            assert pool.live_workers == 0
            # Scale-up from zero works again afterwards.
            assert pool.submit(_echo, 2).result(timeout=30) == 2

    def test_spawn_is_on_demand_up_to_cap(self):
        with WorkerPool(max_workers=2, max_pending=16, name="t") as pool:
            futs = [pool.submit(_sleep_return, 0.3) for _ in range(4)]
            for fut in futs:
                fut.result(timeout=30)
            assert pool.stats()["max_live"] <= 2
