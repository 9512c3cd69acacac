"""`WorkerPool` — the shared, admission-controlled process pool.

The shard coordinator's executor: it runs each shard of a sharded solve
as one job, either on an ephemeral pool of its own or on the platform's
resident one.  The pool provides:

* **persistent workers** — each worker process runs a receive/solve/
  reply loop over a duplex pipe, so consecutive jobs skip the fork cost;
  workers idle past ``idle_timeout_s`` are retired (scale-down to zero),
  and new ones spawn on demand up to ``max_workers``;
* **admission control** — at most ``max_pending`` jobs may be queued;
  submitting past that raises :class:`~repro.errors.PoolSaturatedError`
  immediately (bounded backlog, load visibly shed); queued jobs start in
  submission order;
* **per-job timeouts** — an overdue job's worker is killed and the job
  fails with :class:`~repro.errors.PoolTimeoutError`; a worker that dies
  mid-job fails it with :class:`~repro.errors.WorkerCrashedError`.
  Retry *policy* stays with the caller (the shard coordinator keeps its
  own attempt accounting), so the pool never hides a failure.

Results come back as :class:`concurrent.futures.Future` objects.  Job
callables must be module-level (they cross the pipe by reference) and
their arguments/results picklable.  A single reactor thread owns
completion handling: it waits on every live worker pipe, completes
futures, reaps overdue and crashed workers, retires idle ones, and
re-dispatches the queue.  Spawning happens on the submitting thread, so
a host that refuses to fork fails the submit synchronously with
:class:`~repro.errors.PoolUnavailableError` — the signal the shard
coordinator turns into its serial-executor degradation.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional

import multiprocessing as mp
from multiprocessing.connection import wait as conn_wait

from repro.errors import (
    PoolSaturatedError,
    PoolTimeoutError,
    PoolUnavailableError,
    WorkerCrashedError,
)

__all__ = ["WorkerPool", "pool_worker_main"]

# How long the reactor sleeps in conn_wait when nothing is readable;
# bounds how late a timeout reap or idle retirement can fire.
_TICK_S = 0.05

DEFAULT_IDLE_TIMEOUT_S = 30.0


def pool_worker_main(conn) -> None:
    """Worker process entry point: a persistent receive/run/reply loop.

    Messages are ``(job_id, fn, args, kwargs)``; replies are
    ``(job_id, "ok", result)`` or ``(job_id, "error", repr)``.  ``None``
    is the retirement sentinel; EOF (parent closed the pipe or died)
    also ends the loop.  A job that hard-crashes the process
    (``os._exit``, segfault) never replies — the parent sees EOF and
    fails the job as a worker crash.
    """
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg is None:
                return
            job_id, fn, args, kwargs = msg
            try:
                reply = (job_id, "ok", fn(*args, **kwargs))
            except Exception as exc:  # surface as data; the caller decides
                reply = (job_id, "error", f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover - defensive
            pass


class _Job:
    __slots__ = ("job_id", "fn", "args", "kwargs", "timeout_s", "label",
                 "future")

    def __init__(self, job_id, fn, args, kwargs, timeout_s, label):
        self.job_id = job_id
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.timeout_s = timeout_s
        self.label = label
        self.future: Future = Future()


class _Worker:
    __slots__ = ("proc", "conn", "job", "deadline", "idle_since")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.job: Optional[_Job] = None  # None == idle
        self.deadline: Optional[float] = None
        self.idle_since = time.perf_counter()


class WorkerPool:
    """Bounded process pool with admission control and FIFO dispatch."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        max_pending: int = 256,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
        name: str = "pool",
    ) -> None:
        if max_workers is None:
            max_workers = max(1, (os.cpu_count() or 2) - 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_workers = int(max_workers)
        self.max_pending = int(max_pending)
        self.idle_timeout_s = float(idle_timeout_s)
        self.name = name
        self._ctx = mp.get_context()
        self._lock = threading.RLock()
        self._queue: deque = deque()
        self._workers: Dict[int, _Worker] = {}
        self._ids = itertools.count()
        self._worker_ids = itertools.count()
        self._closed = False
        self._stats = {
            "submitted": 0, "completed": 0, "failed": 0, "timeouts": 0,
            "crashes": 0, "rejected": 0, "spawned": 0, "retired": 0,
            "max_live": 0,
        }
        # The reactor sleeps in conn_wait; submit pokes this self-pipe so
        # a job handed to an idle worker is noticed without waiting a tick.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._reactor = threading.Thread(
            target=self._run, daemon=True, name=f"repro-{name}-reactor"
        )
        self._reactor.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable,
        *args: Any,
        timeout_s: Optional[float] = None,
        label: Optional[str] = None,
        **kwargs: Any,
    ) -> Future:
        """Queue one job; returns its :class:`~concurrent.futures.Future`.

        Raises :class:`~repro.errors.PoolSaturatedError` when the queued
        backlog is at ``max_pending`` and
        :class:`~repro.errors.PoolUnavailableError` when the pool is
        closed or no worker can be spawned for an otherwise-empty pool.
        """
        with self._lock:
            if self._closed:
                raise PoolUnavailableError(f"pool {self.name!r} is closed")
            queued = len(self._queue)
            if queued >= self.max_pending:
                self._stats["rejected"] += 1
                raise PoolSaturatedError(
                    f"pool {self.name!r} backlog full "
                    f"({queued} queued, limit {self.max_pending})"
                )
            job = _Job(next(self._ids), fn, args, kwargs, timeout_s,
                       label or getattr(fn, "__name__", "job"))
            self._stats["submitted"] += 1
            self._queue.append(job)
            self._dispatch_locked()
        self._wake()
        return job.future

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A JSON-able snapshot of the pool's counters and occupancy."""
        with self._lock:
            out = dict(self._stats)
            out["live_workers"] = len(self._workers)
            out["busy_workers"] = sum(
                1 for w in self._workers.values() if w.job is not None)
            out["queued"] = len(self._queue)
            return out

    @property
    def live_workers(self) -> int:
        """Worker processes currently alive (busy or idle)."""
        with self._lock:
            return len(self._workers)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the pool: fail queued jobs, kill workers, join the reactor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in self._queue:
                self._fail(job, PoolUnavailableError(
                    f"pool {self.name!r} closed before the job ran"))
            self._queue.clear()
            workers = list(self._workers.values())
            self._workers.clear()
        for w in workers:
            if w.job is not None:
                self._fail(w.job, PoolUnavailableError(
                    f"pool {self.name!r} closed mid-job"))
            self._kill(w)
        self._wake()
        self._reactor.join(timeout=5.0)
        for conn in (self._wake_r, self._wake_w):
            try:
                conn.close()
            except Exception:  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Internals — dispatch (any thread, under the lock)
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):  # pragma: no cover - closing race
            pass

    def _spawn_locked(self) -> Optional[_Worker]:
        """Start one worker; ``None`` when the host refuses to fork."""
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=pool_worker_main, args=(child,), daemon=True,
            name=f"repro-{self.name}-w{next(self._worker_ids)}",
        )
        try:
            proc.start()
        except OSError:
            for conn in (parent, child):
                try:
                    conn.close()
                except Exception:  # pragma: no cover - defensive
                    pass
            return None
        child.close()
        worker = _Worker(proc, parent)
        self._workers[id(worker)] = worker
        self._stats["spawned"] += 1
        self._stats["max_live"] = max(self._stats["max_live"], len(self._workers))
        return worker

    def _assign_locked(self, worker: _Worker, job: _Job) -> None:
        worker.job = job
        worker.deadline = (
            time.perf_counter() + job.timeout_s
            if job.timeout_s is not None else None
        )
        try:
            worker.conn.send((job.job_id, job.fn, job.args, job.kwargs))
        except (BrokenPipeError, OSError):
            # The worker died between jobs; retire it and fail this job
            # as a crash (the caller's retry policy decides what's next).
            self._retire_locked(worker, crashed=True)

    def _dispatch_locked(self) -> None:
        """Hand queued jobs to idle workers, spawning up to the cap."""
        while True:
            idle = [w for w in self._workers.values() if w.job is None]
            can_spawn = len(self._workers) < self.max_workers
            if not (idle or can_spawn) or not self._queue:
                return
            job = self._queue.popleft()
            if job.future.cancelled():
                continue
            worker = idle[0] if idle else self._spawn_locked()
            if worker is None:
                # Spawn refused.  With live workers the job can wait for
                # one to free up; with none it would wait forever — fail
                # it so the caller can degrade.
                if self._workers:
                    self._queue.appendleft(job)
                    return
                self._fail(job, PoolUnavailableError(
                    f"pool {self.name!r} cannot spawn workers "
                    "(fork refused by the host)"))
                continue
            self._assign_locked(worker, job)

    # ------------------------------------------------------------------
    # Internals — completion (reactor thread)
    # ------------------------------------------------------------------
    def _fail(self, job: _Job, exc: Exception) -> None:
        self._stats["failed"] += 1
        if not job.future.done():
            job.future.set_exception(exc)

    def _complete(self, job: _Job, result: Any) -> None:
        self._stats["completed"] += 1
        if not job.future.done():
            job.future.set_result(result)

    def _kill(self, worker: _Worker) -> None:
        try:
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        except Exception:  # pragma: no cover - defensive
            pass
        try:
            worker.conn.close()
        except Exception:  # pragma: no cover - defensive
            pass

    def _retire_locked(self, worker: _Worker, *, crashed: bool = False) -> None:
        """Drop a worker from the table (already dead or being retired)."""
        self._workers.pop(id(worker), None)
        self._stats["retired"] += 1
        if crashed:
            self._stats["crashes"] += 1
        job, worker.job = worker.job, None
        self._kill(worker)
        if job is not None:
            exitcode = worker.proc.exitcode
            self._fail(job, WorkerCrashedError(
                f"pool worker died mid-job "
                f"({job.label}, exit {exitcode})"))

    def _run(self) -> None:
        """The reactor: completions, timeouts, crashes, idle scale-down."""
        while True:
            with self._lock:
                if self._closed:
                    return
                conns = {w.conn: w for w in self._workers.values()}
            try:
                ready = conn_wait([self._wake_r, *conns], timeout=_TICK_S)
            except OSError:  # pragma: no cover - a conn died mid-wait
                ready = []
            with self._lock:
                if self._closed:
                    return
                for conn in ready:
                    if conn is self._wake_r:
                        try:
                            self._wake_r.recv_bytes()
                        except (EOFError, OSError):  # pragma: no cover
                            pass
                        continue
                    worker = conns.get(conn)
                    if worker is None or id(worker) not in self._workers:
                        continue
                    self._on_readable_locked(worker)
                now = time.perf_counter()
                for worker in list(self._workers.values()):
                    if (worker.job is not None and worker.deadline is not None
                            and worker.deadline < now):
                        job, worker.job = worker.job, None
                        self._workers.pop(id(worker), None)
                        self._stats["retired"] += 1
                        self._stats["timeouts"] += 1
                        self._kill(worker)
                        self._fail(job, PoolTimeoutError(
                            f"pool job {job.label} exceeded "
                            f"{job.timeout_s:g}s; worker killed"))
                    elif (worker.job is None and self.idle_timeout_s >= 0
                          and now - worker.idle_since > self.idle_timeout_s):
                        self._workers.pop(id(worker), None)
                        self._stats["retired"] += 1
                        try:
                            worker.conn.send(None)  # graceful retirement
                        except (BrokenPipeError, OSError):
                            pass
                        self._kill_soon(worker)
                self._dispatch_locked()

    def _on_readable_locked(self, worker: _Worker) -> None:
        """One readable worker pipe: a reply, or EOF (the worker died)."""
        try:
            job_id, status, payload = worker.conn.recv()
        except (EOFError, OSError):
            self._retire_locked(worker, crashed=True)
            return
        job, worker.job = worker.job, None
        worker.deadline = None
        worker.idle_since = time.perf_counter()
        if job is None or job.job_id != job_id:
            # A reply for a job we already failed (e.g. reaped late);
            # the worker is healthy again, keep it idle.
            return
        if status == "ok":
            self._complete(job, payload)
        else:
            from repro.errors import PoolJobError

            self._fail(job, PoolJobError(str(payload)))

    def _kill_soon(self, worker: _Worker) -> None:
        """Retire gracefully: give the sentinel a moment, then make sure."""
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():  # pragma: no cover - defensive
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except Exception:  # pragma: no cover - defensive
            pass
