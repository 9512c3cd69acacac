"""Multi-tenant load: concurrent per-tenant scenarios through one platform.

The single-service driver (:mod:`repro.load.generator`) offers one event
stream at one :class:`~repro.service.server.AsyncMSTService`.  This
module scales the same open-loop discipline out to a
:class:`~repro.platform.server.MultiTenantServer`: each tenant gets its
own seeded :class:`~repro.load.scenarios.Scenario` expanded against its
own graph, the per-tenant streams are merged into one global schedule by
time offset, and every request goes through platform admission first —
so quota rejections (429s) show up as their own outcome bucket,
*distinct* from queue-full shedding.

The accounting invariant extends per tenant::

    offered == completed + rejected + quota_rejected + timeouts + errors

which is what the isolation benchmark leans on: a hot tenant blowing
through its rate quota must raise its *own* ``quota_rejected``, not the
cold tenant's latency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    QuotaExceededError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.load.scenarios import MUTATION_OPS, RequestEvent, Scenario, generate_events
from repro.platform.server import MultiTenantServer

__all__ = ["TenantLoad", "TenantLoadResult", "MultiTenantLoadResult",
           "run_multitenant"]


@dataclass
class TenantLoad:
    """One tenant's workload: which graph to hit with which scenario.

    ``op_map`` renames scenario ops at issue time, which is how non-MST
    graphs are driven: scenario mixes validate against the MST query
    kinds, so an SSSP tenant uses e.g. ``mix={"component": 1.0}`` with
    ``op_map={"component": "dist"}`` — the operand sampling (single
    vertex) carries over unchanged.
    """

    tenant: str
    graph: str
    scenario: Scenario
    op_map: Optional[Dict[str, str]] = None


@dataclass
class TenantLoadResult:
    """Per-tenant outcome accounting (five exclusive buckets + latency).

    ``quota_rejected`` counts platform admission rejections (rate/queue
    quota 429s); ``rejected`` counts the wrapper's bounded-queue
    shedding.  ``latencies_s`` holds the completed requests' wall times,
    the input to the isolation gate's p99.
    """

    tenant: str
    graph: str
    scenario: str
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    quota_rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    latencies_s: List[float] = field(default_factory=list)

    def latency_p(self, q: float) -> float:
        """Completed-request latency percentile ``q`` in [0, 100]."""
        if not self.latencies_s:
            return 0.0
        xs = sorted(self.latencies_s)
        idx = min(len(xs) - 1, max(0, round(q / 100.0 * (len(xs) - 1))))
        return xs[idx]

    def to_dict(self) -> Dict:
        """JSON-able summary (latencies collapsed to percentiles)."""
        return {
            "tenant": self.tenant, "graph": self.graph,
            "scenario": self.scenario, "offered": self.offered,
            "completed": self.completed, "rejected": self.rejected,
            "quota_rejected": self.quota_rejected,
            "timeouts": self.timeouts, "errors": self.errors,
            "p50_ms": round(self.latency_p(50) * 1e3, 3),
            "p99_ms": round(self.latency_p(99) * 1e3, 3),
        }


@dataclass
class MultiTenantLoadResult:
    """The whole run: per-tenant results plus the shared wall clock."""

    tenants: Dict[str, TenantLoadResult]
    wall_s: float = 0.0

    def to_dict(self) -> Dict:
        """JSON-able summary keyed by tenant name."""
        return {
            "wall_s": round(self.wall_s, 6),
            "tenants": {k: v.to_dict() for k, v in sorted(self.tenants.items())},
        }


def _merged_events(
    loads: Sequence[TenantLoad], n_vertices: Dict[str, int]
) -> List[Tuple[TenantLoad, RequestEvent]]:
    """Expand every tenant's scenario and merge by schedule offset.

    Mutation events are dropped (with their weight renormalised by the
    generator itself being unaware, they simply never issue): the
    platform path routes mutations through
    :meth:`~repro.platform.registry.GraphPlatform.mutate`, which is an
    admin operation, not request-path load.
    """
    merged: List[Tuple[TenantLoad, RequestEvent]] = []
    for load in loads:
        events = generate_events(load.scenario, n_vertices[load.tenant])
        merged.extend((load, e) for e in events if e.op not in MUTATION_OPS)
    merged.sort(key=lambda pair: pair[1].t_offset_s)
    return merged


async def _drive(
    server: MultiTenantServer,
    merged: Sequence[Tuple[TenantLoad, RequestEvent]],
    results: Dict[str, TenantLoadResult],
    *,
    time_scale: float,
    timeout_s: Optional[float],
) -> float:
    """Offer the merged schedule open-loop; returns the wall time."""
    loop = asyncio.get_running_loop()

    async def issue(load: TenantLoad, event: RequestEvent) -> None:
        res = results[load.tenant]
        op = load.op_map.get(event.op, event.op) if load.op_map else event.op
        t0 = time.perf_counter()
        try:
            deadline = timeout_s if timeout_s is not None else load.scenario.timeout_s
            fut = server.query_nowait(
                load.tenant, load.graph, op, event.u, event.v, event.w,
                timeout_s=deadline,
            )
            await fut
            res.completed += 1
            res.latencies_s.append(time.perf_counter() - t0)
        except QuotaExceededError:
            res.quota_rejected += 1
        except ServiceOverloadError:
            res.rejected += 1
        except ServiceTimeoutError:
            res.timeouts += 1
        except Exception:
            res.errors += 1

    start = loop.time()
    tasks: List[asyncio.Task] = []
    for load, event in merged:
        delay = start + event.t_offset_s * time_scale - loop.time()
        if delay > 0:
            # Open loop: sleep to the merged *schedule*, never await
            # completions — saturation must stay observable.
            await asyncio.sleep(delay)
        results[load.tenant].offered += 1
        tasks.append(asyncio.create_task(issue(load, event)))
    if tasks:
        await asyncio.gather(*tasks)
    return loop.time() - start


def run_multitenant(
    platform,
    loads: Sequence[TenantLoad],
    *,
    time_scale: float = 1.0,
    timeout_s: Optional[float] = None,
) -> MultiTenantLoadResult:
    """Drive several tenants' scenarios concurrently at one platform.

    Every named graph must already be registered; wrappers are pre-warmed
    (via :meth:`~repro.platform.server.MultiTenantServer.ensure`) before
    the clock starts so the measured window contains serving, not
    engine builds.  ``timeout_s`` overrides every scenario's per-request
    deadline when given.
    """
    names = [load.tenant for load in loads]
    if len(set(names)) != len(names):
        from repro.errors import ServiceError

        raise ServiceError("one TenantLoad per tenant (results key by tenant)")
    n_vertices = {
        load.tenant: platform.entry(load.tenant, load.graph).graph.n_vertices
        for load in loads
    }
    merged = _merged_events(loads, n_vertices)
    results = {
        load.tenant: TenantLoadResult(
            tenant=load.tenant, graph=load.graph, scenario=load.scenario.name
        )
        for load in loads
    }

    async def main() -> MultiTenantLoadResult:
        async with MultiTenantServer(platform) as server:
            for load in loads:
                await server.ensure(load.tenant, load.graph)
            wall = await _drive(
                server, merged, results,
                time_scale=time_scale, timeout_s=timeout_s,
            )
            return MultiTenantLoadResult(tenants=results, wall_s=wall)

    return asyncio.run(main())
