"""`MultiTenantServer` — one asyncio front door over many tenants' graphs.

The single-service :class:`~repro.service.server.AsyncMSTService` scaled
out: requests name a ``tenant`` and ``graph``, admission control runs
*before* any compute (token bucket, then in-flight window — both from
the tenant's :class:`~repro.platform.quota.TenantQuota`), and each
resident graph gets its own coalescing async wrapper lazily, so
batching/caching stay per-graph while quotas and worker processes are
shared platform-wide.  A tenant's wrappers share one intake: a batch
takes what is queued for its graph, yields, and takes again while a yield
brings any of the tenant's requests; it closes on a quiet yield or once
the tenant holds ``max_batch`` requests, and never waits on a timer.

Rejections are structured, never crashes: a drained bucket or a full
in-flight window raises :class:`~repro.errors.QuotaExceededError`, whose
``to_record()`` is the 429-style JSON the serve loop writes back —
``{"error": ..., "code": 429, "tenant": ..., "reason": "rate"|"queue",
"retry_after_s": ...}``.  Admitted requests hold one in-flight slot from
admission to completion.  :meth:`query` frees it the moment the batch
worker answers, before the caller's task runs again, so the request after
a full batch finds the batch's slots free; the open-loop
:meth:`query_nowait` path frees it from the future's done callback.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Tuple

from repro.service.server import AsyncMSTService

__all__ = ["MultiTenantServer"]


class _Admitted(asyncio.Future):
    """A request's future that frees its in-flight slot as it resolves."""

    def __init__(self, release) -> None:
        super().__init__()
        self._release = release

    def set_result(self, result) -> None:
        super().set_result(result)
        self._release()

    def set_exception(self, exception) -> None:
        super().set_exception(exception)
        self._release()


class MultiTenantServer:
    """Async serving tier over a :class:`~repro.platform.registry.GraphPlatform`.

    One :class:`~repro.service.server.AsyncMSTService` wrapper is created
    lazily per ``(tenant, graph)`` and kept for the server's lifetime —
    wrappers stay valid across engine eviction because eviction
    invalidates the underlying service's engine, never the service
    object.  ``max_batch`` is passed through to every wrapper; their
    other settings keep the :class:`AsyncMSTService` defaults.  A
    tenant's wrappers hold at most ``max_batch`` requests between them,
    so a ``max_batch`` within the tenant's in-flight window never turns
    batching into quota rejections.
    """

    def __init__(self, platform, *, max_batch: int = 256) -> None:
        self.platform = platform
        self._max_batch = max_batch
        self._wrappers: Dict[Tuple[str, str], AsyncMSTService] = {}
        self._intakes: Dict[str, object] = {}
        self._started = False

    async def _wrapper(self, tenant: str, graph: str) -> AsyncMSTService:
        """The (lazily created and started) async wrapper for one graph."""
        key = (tenant, graph)
        wrapper = self._wrappers.get(key)
        if wrapper is None:
            svc = self.platform.get_service(tenant, graph)
            wrapper = AsyncMSTService(svc, max_batch=self._max_batch)
            wrapper._intake = self._intakes.setdefault(tenant, wrapper._intake)
            self._wrappers[key] = wrapper
        if self._started:
            await wrapper.start()
        return wrapper

    async def ensure(self, tenant: str, graph: str) -> None:
        """Pre-warm one graph's wrapper (admin path; no admission check)."""
        await self._wrapper(tenant, graph)

    async def query(self, tenant: str, graph: str, kind: str,
                    u: int | None = None, v: int | None = None,
                    w: float | None = None, *,
                    timeout_s: float | None = None):
        """Answer one admitted query; quota rejections raise structured.

        Admission happens first — a rejected request never resolves the
        graph, builds an engine, or enqueues work.  The in-flight slot is
        released when the answer (or error) is set, or on any other exit.
        """
        release = self.platform.admit(tenant)
        try:
            wrapper = await self._wrapper(tenant, graph)
            return await (await wrapper._submit(
                _Admitted(release), kind, u, v, w, timeout_s))
        finally:
            release()

    def query_nowait(self, tenant: str, graph: str, kind: str,
                     u: int | None = None, v: int | None = None,
                     w: float | None = None, *,
                     timeout_s: float | None = None) -> asyncio.Future:
        """Open-loop submit: admission + shed-don't-block semantics.

        Raises :class:`~repro.errors.QuotaExceededError` (quota) or
        :class:`~repro.errors.ServiceOverloadError` (wrapper queue full)
        synchronously; otherwise returns the wrapper's future with the
        admission slot released from its done callback.  Requires the
        wrapper to exist already — call :meth:`ensure` during warm-up,
        which is what the multi-tenant load harness does.
        """
        key = (tenant, graph)
        wrapper = self._wrappers.get(key)
        if wrapper is None:
            from repro.errors import ServiceError

            raise ServiceError(
                f"graph {tenant}/{graph} not warmed; call ensure() first"
            )
        release = self.platform.admit(tenant)
        try:
            fut = wrapper.query_nowait(kind, u, v, w, timeout_s=timeout_s)
        except BaseException:
            release()
            raise
        fut.add_done_callback(lambda _f: release())
        return fut

    async def start(self) -> None:
        """Start every existing wrapper's batch worker (idempotent)."""
        self._started = True
        for wrapper in self._wrappers.values():
            await wrapper.start()

    async def stop(self) -> None:
        """Drain and stop every wrapper's batch worker."""
        self._started = False
        for wrapper in self._wrappers.values():
            await wrapper.stop()

    async def __aenter__(self) -> "MultiTenantServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()
