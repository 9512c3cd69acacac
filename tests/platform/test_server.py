"""MultiTenantServer: admission before compute, structured 429s, slot release."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import QuotaExceededError, ServiceError
from repro.graphs.generators.grid import grid_graph
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.platform import GraphPlatform, MultiTenantServer, TenantQuota


def _run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _platform(clock=None):
    platform = GraphPlatform(clock=clock) if clock else GraphPlatform()
    platform.add_tenant("acme")
    platform.add_graph("acme", "mesh", gnm_random_graph(60, 180, seed=3))
    platform.add_tenant("sci")
    platform.add_graph("sci", "paths", grid_graph(5, 5, seed=1),
                       problem="sssp", source=0)
    return platform


def test_two_tenants_two_problems_served():
    async def main():
        platform = _platform()
        async with MultiTenantServer(platform) as server:
            connected = await server.query("acme", "mesh", "connected", 0, 5)
            dist = await server.query("sci", "paths", "dist", 0)
            return connected, dist

    connected, dist = _run(main())
    assert isinstance(connected, (bool,)) or connected in (0, 1)
    assert float(dist) == 0.0


def test_rate_quota_raises_structured_before_compute():
    async def main():
        clock = FakeClock()
        platform = GraphPlatform(clock=clock)
        platform.add_tenant("tight", TenantQuota(rate_qps=1.0, burst=1.0))
        platform.add_graph("tight", "g", gnm_random_graph(30, 90, seed=1))
        async with MultiTenantServer(platform) as server:
            await server.query("tight", "g", "weight")
            with pytest.raises(QuotaExceededError) as info:
                # A rejected request never needs the graph to exist:
                # admission runs first.
                await server.query("tight", "ghost", "weight")
            record = info.value.to_record()
            clock.advance(1.0)
            again = await server.query("tight", "g", "weight")
        return record, again

    record, again = _run(main())
    assert record["code"] == 429 and record["reason"] == "rate"
    assert record["retry_after_s"] > 0
    assert again > 0


def test_inflight_slot_released_on_any_outcome():
    async def main():
        platform = _platform()
        async with MultiTenantServer(platform) as server:
            await server.query("acme", "mesh", "weight")
            with pytest.raises(ServiceError):
                await server.query("acme", "ghost", "weight")
            return platform.tenant("acme").inflight

    assert _run(main()) == 0


def test_one_tenants_graphs_batch_together():
    """A tenant's wrappers share one intake: requests alternating between
    two of its graphs keep both batches open (not one request per batch),
    and together the batches hold at most ``max_batch`` requests."""

    async def main():
        platform = GraphPlatform()
        platform.add_tenant("acme")
        for name in ("a", "b"):
            platform.add_graph("acme", name,
                               gnm_random_graph(300, 900, seed=1))
        async with MultiTenantServer(platform, max_batch=64) as server:
            tasks = []
            for u in range(600):
                tasks.append(asyncio.ensure_future(server.query(
                    "acme", "ab"[u % 2], "component", u % 300)))
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
        return platform.tenant("acme").metrics.batch_histogram()

    histogram = _run(main())  # one tenant's graphs share its metrics
    assert max(histogram) <= 64
    assert sum(histogram.values()) <= 20  # 600 requests; 300 if unshared


def test_query_nowait_requires_prewarm():
    async def main():
        platform = _platform()
        async with MultiTenantServer(platform) as server:
            with pytest.raises(ServiceError, match="not warmed"):
                server.query_nowait("acme", "mesh", "weight")
            await server.ensure("acme", "mesh")
            fut = server.query_nowait("acme", "mesh", "weight")
            value = await fut
            await asyncio.sleep(0)  # let the done callback release
            return value, platform.tenant("acme").inflight

    value, inflight = _run(main())
    assert value > 0
    assert inflight == 0


def test_query_nowait_sync_rejection_releases_slot():
    async def main():
        clock = FakeClock()
        platform = GraphPlatform(clock=clock)
        platform.add_tenant("tight", TenantQuota(rate_qps=1.0, burst=1.0))
        platform.add_graph("tight", "g", gnm_random_graph(30, 90, seed=1))
        async with MultiTenantServer(platform) as server:
            await server.ensure("tight", "g")
            fut = server.query_nowait("tight", "g", "weight")
            with pytest.raises(QuotaExceededError):
                server.query_nowait("tight", "g", "weight")
            await fut
            await asyncio.sleep(0)
            return platform.tenant("tight").inflight

    assert _run(main()) == 0


def test_wrapper_survives_engine_eviction():
    """Eviction drops the engine, not the service: wrappers stay valid."""

    async def main():
        platform = GraphPlatform()
        platform.add_tenant("acme", TenantQuota(resident_budget=1))
        platform.add_graph("acme", "g1", gnm_random_graph(40, 120, seed=2))
        async with MultiTenantServer(platform) as server:
            before = await server.query("acme", "g1", "weight")
            # Registering g2 evicts g1's engine under budget 1.
            platform.add_graph("acme", "g2",
                               gnm_random_graph(40, 120, seed=4))
            assert not platform.entry("acme", "g1").resident
            after = await server.query("acme", "g1", "weight")
            return before, after

    before, after = _run(main())
    assert before == after
