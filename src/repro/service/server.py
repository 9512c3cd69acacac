"""Asyncio front-end: request coalescing, result cache, backpressure.

The batched engine answers thousands of pairs per NumPy call, but traffic
arrives one query at a time.  :class:`AsyncMSTService` closes that gap the
way high-QPS serving tiers do:

* **coalescing** — incoming requests land on a queue; a single worker
  takes every queued request, yields to the event loop, and takes again
  while each yield brings more requests (up to ``max_batch``), then
  executes one vectorized batch per query kind — no timer, so a lone
  request never waits for stragglers;
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

#: Hot results each service keeps in its LRU cache.
CACHE_SIZE = 4096


class _Intake:
    """Requests admitted (cache hits included) and held (queued or in an
    unrun batch): per service, or shared by one tenant's platform wrappers."""
    arrivals = held = 0


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
        max_pending: int = 1024,
    ) -> None:
        if max_batch <= 0 or max_pending <= 0:
            raise ServiceError("max_batch and max_pending must be positive")
        self.service = service
        # The admissible query kinds come from the wrapped service, so this
        # front-end serves any engine with an ``execute(kind, us, vs, ws)``
        # batch entry point — the MSF's and every registered problem's.
        self._kinds = tuple(service.query_kinds)
        self.max_batch = int(max_batch)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=int(max_pending))
        self._cache: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._worker: Optional[asyncio.Task] = None
        self._intake = _Intake()

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
    def _prepare(self, future, kind: str, u, v, w, timeout_s):
        """Shared admission logic; returns the queue item for ``future``,
        or ``None`` after resolving it from the cache."""
        if kind not in self._kinds:
            raise ServiceError(
                f"unknown query kind {kind!r}; supported: {', '.join(self._kinds)}"
            )
        if self._worker is None or self._worker.done():
            raise ServiceError("service not started; use 'async with' or await start()")
        if timeout_s is not None and timeout_s <= 0:
            raise ServiceError("timeout_s must be positive")
        self._intake.arrivals += 1
        key = (kind, u, v, w)
        cached = self._cache.get(key, _STOP)
        if cached is not _STOP:
            self._cache.move_to_end(key)
            self.metrics.record_cache(True)
            self.metrics.record_query(f"serve:{kind}", 0.0)
            future.set_result(cached)
            return None
        self.metrics.record_cache(False)
        t0 = time.perf_counter()
        return key, future, t0, (t0 + timeout_s if timeout_s is not None else None)

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
        future = asyncio.get_running_loop().create_future()
        return await (await self._submit(future, kind, u, v, w, timeout_s))

    async def _submit(self, future, kind, u, v, w, timeout_s) -> asyncio.Future:
        """Queue one request that resolves ``future``, awaiting backpressure;
        returns ``future``.  :class:`~repro.platform.server.MultiTenantServer`
        passes a future that frees the tenant's in-flight slot on resolving."""
        item = self._prepare(future, kind, u, v, w, timeout_s)
        if item is not None:
            await self._queue.put(item)
            self._intake.held += 1
        return future

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
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        item = self._prepare(future, kind, u, v, w, timeout_s)
        if item is None:
            return future
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.metrics.record_rejected()
            raise ServiceOverloadError(
                f"queue full ({self._queue.maxsize} pending); request rejected"
            ) from None
        self._intake.held += 1
        return future

    # ------------------------------------------------------------------
    # Batch worker
    # ------------------------------------------------------------------
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
        """The batch worker; also runs the shutdown flush.

        A batch takes every queued request and yields to the event loop,
        again while each yield brings a request (a cache hit counts: its
        producer is still active, so it must not close a half-full batch).
        It closes on a quiet yield, or once its intake holds ``max_batch``
        requests or ``max_batch`` arrived since it opened.  After the stop
        sentinel the loop drains the queue in ``max_batch`` chunks without
        yielding, so :meth:`stop` also answers requests behind the sentinel.
        """
        stopping = False
        while True:
            batch: List[Tuple] = []
            if not stopping:
                first = await self._queue.get()
                if first is _STOP:
                    stopping = True
                else:
                    batch.append(first)
            stopping = self._take(batch) or stopping
            intake, opened = self._intake, self._intake.arrivals
            while (not stopping and intake.held < self.max_batch
                   and intake.arrivals - opened < self.max_batch):
                arrivals, size = intake.arrivals, len(batch)
                await asyncio.sleep(0)
                stopping = self._take(batch)
                if intake.arrivals == arrivals and len(batch) == size:
                    break  # quiet: the yield brought no request
            intake.held -= len(batch)
            if not batch:
                return  # stopping, and the queue is empty
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

    def _take(self, batch: List[Tuple]) -> bool:
        """Move queued requests into ``batch`` until it is full or the queue
        is empty; returns whether a stop sentinel was among them."""
        saw_stop = False
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _STOP:  # tolerate duplicate sentinels
                saw_stop = True
            else:
                batch.append(item)
        return saw_stop

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
        while len(self._cache) > CACHE_SIZE:
            self._cache.popitem(last=False)
