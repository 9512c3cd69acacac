"""Asyncio front-end: request coalescing, result cache, backpressure.

The batched engine answers thousands of pairs per NumPy call, but traffic
arrives one query at a time.  :class:`AsyncMSTService` closes that gap the
way high-QPS serving tiers do:

* **coalescing** — incoming requests land on a queue; a single worker
  drains up to ``max_batch`` of them (waiting at most ``max_delay_s`` for
  stragglers) and executes one vectorized batch per query kind;
* **hot-result LRU cache** — repeat queries short-circuit before they
  ever reach the queue;
* **bounded queue with backpressure** — producers ``await`` when the
  queue is full instead of growing memory without bound;
* **graceful degradation** — if the underlying artifact was invalidated,
  the batch worker synchronously recomputes via
  :meth:`~repro.service.core.MSTService.ensure_ready` rather than failing
  the requests.

Per-request end-to-end latency (``serve:<kind>``), batch sizes, and cache
hit rates land in the service's :class:`~repro.service.metrics.ServiceMetrics`.

Answers leave the process as strict JSON (RFC 8259, which has no
infinities): :func:`response_line` is the one writer of served records
and :func:`encode_answer` the one encoding of non-finite floats.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServiceError, ServiceOverloadError, ServiceTimeoutError
from repro.obs.trace import span as _obs_span
from repro.service.core import MSTService

__all__ = ["AsyncMSTService", "encode_answer", "response_line"]

_STOP = object()


def encode_answer(value: Any) -> Any:
    """A served scalar with a non-finite float spelled as a string.

    ``+inf`` becomes ``"inf"`` (a bottleneck across components, an
    unreachable distance), ``-inf`` becomes ``"-inf"`` (a weight sum that
    overflowed) and NaN ``"nan"``; every other value is returned as is.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def response_line(record: Dict[str, Any]) -> str:
    """One served response record as a strict-JSON line."""
    return json.dumps(
        {k: encode_answer(v) for k, v in record.items()}, allow_nan=False
    )


class AsyncMSTService:
    """Coalescing async wrapper around one :class:`MSTService`."""

    def __init__(
        self,
        service: MSTService,
        *,
        max_batch: int = 256,
        max_delay_s: float = 0.002,
        max_pending: int = 1024,
        cache_size: int = 4096,
    ) -> None:
        if max_batch <= 0 or max_pending <= 0:
            raise ServiceError("max_batch and max_pending must be positive")
        self.service = service
        # The admissible query kinds come from the wrapped service, so this
        # front-end serves any engine with an ``execute(kind, us, vs, ws)``
        # batch entry point — the MSF's and every registered problem's.
        self._kinds = tuple(service.query_kinds)
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=int(max_pending))
        self._cache: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._cache_size = int(cache_size)
        self._worker: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the batch worker (idempotent)."""
        if self._worker is None or self._worker.done():
            self._worker = asyncio.create_task(self._drain_forever())

    async def stop(self) -> None:
        """Flush pending requests and stop the worker.

        Every request enqueued before this call returns is answered —
        including ones that raced onto the queue behind the stop sentinel;
        the worker drains the whole queue before exiting, so a graceful
        shutdown never abandons an awaiting caller.
        """
        if self._worker is None:
            return
        await self._queue.put(_STOP)
        await self._worker
        self._worker = None

    async def __aenter__(self) -> "AsyncMSTService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def metrics(self):
        """The shared service metrics recorder."""
        return self.service.metrics

    @property
    def pending(self) -> int:
        """Requests currently queued (cache hits never queue)."""
        return self._queue.qsize()

    def clear_cache(self) -> None:
        """Drop every hot result (call after an out-of-band mutation).

        Mutations issued directly against the wrapped
        :class:`~repro.service.core.MSTService` (``insert_edge`` /
        ``delete_edge``) change the forest underneath the LRU cache;
        without this call the cache would keep serving pre-mutation
        answers.
        """
        self._cache.clear()

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------
    def _prepare(self, kind: str, u, v, w, timeout_s):
        """Shared admission logic; returns ``(key, deadline, cached)``.

        ``cached`` is the sentinel when the request must queue.
        """
        if kind not in self._kinds:
            raise ServiceError(
                f"unknown query kind {kind!r}; supported: {', '.join(self._kinds)}"
            )
        if self._worker is None or self._worker.done():
            raise ServiceError("service not started; use 'async with' or await start()")
        if timeout_s is not None and timeout_s <= 0:
            raise ServiceError("timeout_s must be positive")
        key = (kind, u, v, w)
        cached = self._cache.get(key, _STOP)
        if cached is not _STOP:
            self._cache.move_to_end(key)
            self.metrics.record_cache(True)
            self.metrics.record_query(f"serve:{kind}", 0.0)
            return key, None, cached
        self.metrics.record_cache(False)
        deadline = (
            time.perf_counter() + timeout_s if timeout_s is not None else None
        )
        return key, deadline, _STOP

    async def query(self, kind: str, u: int | None = None, v: int | None = None,
                    w: float | None = None, *, timeout_s: float | None = None):
        """Answer one query, transparently batched with concurrent callers.

        ``kind`` is one of the wrapped service's query kinds — for MST
        ``connected``, ``component``, ``component_size``, ``bottleneck``,
        ``replacement``, ``weight``; problem services declare their own
        (see :mod:`repro.solve.service`).  Awaiting may block on queue
        backpressure when the service is saturated.

        ``timeout_s`` sets a per-request deadline: if it expires before
        the batch worker dequeues the request — or before its batch
        completes — the await fails with
        :class:`~repro.errors.ServiceTimeoutError` and the expiry counts
        in the metrics' ``timeouts``.  The deadline clock starts at
        submission, so time spent blocked on backpressure counts against
        it.
        """
        key, deadline, cached = self._prepare(kind, u, v, w, timeout_s)
        if cached is not _STOP:
            return cached
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((key, future, time.perf_counter(), deadline))
        return await future

    def query_nowait(self, kind: str, u: int | None = None, v: int | None = None,
                     w: float | None = None, *,
                     timeout_s: float | None = None) -> asyncio.Future:
        """Open-loop submit: never blocks, sheds load when saturated.

        Returns a future resolving to the answer (already resolved on a
        cache hit).  A full queue raises
        :class:`~repro.errors.ServiceOverloadError` immediately — counted
        in the metrics' ``rejected`` — instead of awaiting backpressure,
        which is what an open-loop load generator needs: offered load
        must never be throttled by service latency.
        """
        key, deadline, cached = self._prepare(kind, u, v, w, timeout_s)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if cached is not _STOP:
            future.set_result(cached)
            return future
        try:
            self._queue.put_nowait((key, future, time.perf_counter(), deadline))
        except asyncio.QueueFull:
            self.metrics.record_rejected()
            raise ServiceOverloadError(
                f"queue full ({self._queue.maxsize} pending); request rejected"
            ) from None
        return future

    # ------------------------------------------------------------------
    # Batch worker
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(item: Tuple) -> Tuple:
        """Pad a legacy 3-tuple request to the deadline-carrying 4-tuple."""
        return item if len(item) == 4 else (*item, None)

    def _expire_overdue(self, batch: List[Tuple]) -> List[Tuple]:
        """Fail requests whose deadline passed while queued; keep the rest.

        This is the dequeue-side deadline check: a request that waited out
        its budget on the queue is answered with
        :class:`~repro.errors.ServiceTimeoutError` *before* any engine
        work is spent on it.
        """
        now = time.perf_counter()
        live: List[Tuple] = []
        for item in batch:
            key, future, _t0, deadline = item
            if deadline is not None and now > deadline:
                self.metrics.record_timeout()
                if not future.done():
                    future.set_exception(ServiceTimeoutError(
                        f"{key[0]} request expired after queueing"
                    ))
            else:
                live.append(item)
        return live

    async def _drain_forever(self) -> None:
        while True:
            first = await self._queue.get()
            if first is _STOP:
                self._flush_remaining()
                return
            batch = [self._normalize(first)]
            deadline = time.perf_counter() + self.max_delay_s
            stop_after = False
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    timeout = deadline - time.perf_counter()
                    if timeout <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(self._queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                if item is _STOP:
                    stop_after = True
                    break
                batch.append(self._normalize(item))
            self.metrics.record_queue_depth(self._queue.qsize())
            batch = self._expire_overdue(batch)
            try:
                if batch:
                    self._execute(batch)
            except Exception as exc:  # pragma: no cover - defensive backstop
                # The worker must survive anything a batch throws at it:
                # fail the batch's futures, keep draining for later peers.
                for _, future, _, _ in batch:
                    if not future.done():
                        future.set_exception(exc)
            if stop_after:
                self._flush_remaining()
                return

    def _flush_remaining(self) -> None:
        """Answer every request still queued at shutdown.

        The stop sentinel does not freeze the queue: a request can be
        enqueued concurrently with :meth:`stop` and land behind the
        sentinel.  Dropping those would leave their futures pending
        forever, so the worker's last act is to execute them in
        ``max_batch`` chunks.
        """
        leftovers: List[Tuple] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:  # tolerate duplicate sentinels
                leftovers.append(self._normalize(item))
        for i in range(0, len(leftovers), self.max_batch):
            chunk = self._expire_overdue(leftovers[i : i + self.max_batch])
            if not chunk:
                continue
            try:
                self._execute(chunk)
            except Exception as exc:  # pragma: no cover - defensive backstop
                for _, future, _, _ in chunk:
                    if not future.done():
                        future.set_exception(exc)

    def _execute(self, batch: List[Tuple]) -> None:
        """Run one coalesced batch: group by kind, one vectorized call each."""
        with _obs_span("serve:batch", "service", size=len(batch)) as sp:
            self._execute_inner(batch, sp)

    def _execute_inner(self, batch: List[Tuple], sp) -> None:
        self.metrics.record_batch(len(batch))
        try:
            engine = self.service.ensure_ready()
        except Exception as exc:  # any rebuild failure fails requests, not the worker
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        groups: Dict[str, List[Tuple]] = {}
        for item in batch:
            groups.setdefault(item[0][0], []).append(item)
        sp.set_attr("kinds", sorted(groups))
        for kind, items in groups.items():
            us = [it[0][1] if it[0][1] is not None else 0 for it in items]
            vs = [it[0][2] if it[0][2] is not None else 0 for it in items]
            ws = [it[0][3] if it[0][3] is not None else 0.0 for it in items]
            try:
                results = engine.execute(kind, us, vs, ws)
            except Exception:
                # One malformed request (bad vertex id, wrong arg type) must
                # not fail the well-formed peers it was coalesced with:
                # fall back to per-request execution so only the offending
                # requests observe the error.
                self._execute_singly(engine, kind, items)
                continue
            now = time.perf_counter()
            for (key, future, t0, deadline), value in zip(items, np.asarray(results)):
                out = value.item() if isinstance(value, np.generic) else value
                self._remember(key, out)
                self._complete(key, future, t0, deadline, out, now)

    def _complete(self, key, future, t0, deadline, out, now) -> None:
        """Resolve one request, honouring its deadline at completion time.

        The answer was computed either way (and cached — a later repeat
        of the same key is served instantly), but a caller whose budget
        ran out mid-batch gets the timeout it asked for, not a late
        result it may no longer be waiting on.
        """
        if deadline is not None and now > deadline:
            self.metrics.record_timeout()
            if not future.done():
                future.set_exception(ServiceTimeoutError(
                    f"{key[0]} request completed after its deadline"
                ))
            return
        self.metrics.record_query(f"serve:{key[0]}", now - t0)
        if not future.done():
            future.set_result(out)

    def _execute_singly(self, engine, kind: str, items: List[Tuple]) -> None:
        """Degraded path: run each request of a failed kind-group alone."""
        for key, future, t0, deadline in items:
            _, u, v, w = key
            try:
                value = np.asarray(
                    engine.execute(
                        kind,
                        [u if u is not None else 0],
                        [v if v is not None else 0],
                        [w if w is not None else 0.0],
                    )
                )[0]
            except Exception as exc:  # surface per-request, never kill the worker
                if not future.done():
                    future.set_exception(exc)
                continue
            out = value.item() if isinstance(value, np.generic) else value
            self._remember(key, out)
            self._complete(key, future, t0, deadline, out, time.perf_counter())

    def _remember(self, key: Tuple, value) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
