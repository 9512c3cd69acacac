"""Asyncio front-end: coalescing, LRU cache, backpressure, degradation."""

import asyncio

import numpy as np
import pytest

from repro.errors import ServiceError, ServiceOverloadError, ServiceTimeoutError
from repro.graphs.generators import gnm_random_graph
from repro.mst.kruskal import kruskal
from repro.service.artifacts import ArtifactStore
from repro.service.core import MSTService
from repro.service import server as server_module
from repro.service.server import AsyncMSTService


def _run(coro):
    """Drive one coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


def _service(tmp_path, n=80, m=180, seed=3):
    svc = MSTService(ArtifactStore(tmp_path))
    g = gnm_random_graph(n, m, seed=seed)
    svc.load_graph(g)
    return svc, g


def test_concurrent_queries_coalesce_into_batches(tmp_path):
    svc, g = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc, max_batch=64) as srv:
            pairs = [(i % 80, (i * 7) % 80) for i in range(100)]
            return await asyncio.gather(
                *(srv.query("bottleneck", u, v) for u, v in pairs)
            ), pairs

    results, pairs = _run(main())
    engine = svc.ensure_ready()
    expect = engine.bottleneck_many([u for u, _ in pairs], [v for _, v in pairs])
    assert np.allclose(results, expect)
    hist = svc.metrics.summary()["batch_histogram"]
    assert max(int(k) for k in hist) > 1  # at least one multi-request batch


def test_lone_request_schedules_no_timer(tmp_path):
    """A batch closes when a yield brings nothing new; nothing waits on a
    timer for stragglers, so a lone request runs at once."""
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            loop = asyncio.get_running_loop()
            call_at, timers = loop.call_at, []

            def counting_call_at(when, callback, *args, **kwargs):
                timers.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = counting_call_at
            try:
                answer = await srv.query("connected", 0, 1)
            finally:
                del loop.call_at
            return answer, timers

    answer, timers = _run(main())
    assert answer in (True, False)
    assert timers == []
    assert svc.metrics.summary()["batch_histogram"] == {"1": 1}


def test_cache_hits_cannot_hold_a_batch_open(tmp_path):
    """A cache hit keeps a batch open (its producer is still active), but
    only until ``max_batch`` requests arrived since the batch opened."""
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            await srv.query("component", 0)  # cache the hot key
            miss = asyncio.ensure_future(srv.query("component", 1))
            for hits in range(10_000):
                if miss.done():
                    return hits, await miss
                await srv.query("component", 0)
                await asyncio.sleep(0)
            return None, None

    hits, answer = _run(main())
    assert hits is not None and hits <= 2 * 256
    assert isinstance(answer, int)


def test_repeat_query_hits_lru_cache(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            a = await srv.query("connected", 0, 1)
            b = await srv.query("connected", 0, 1)
            return a, b

    a, b = _run(main())
    assert a == b
    s = svc.metrics.summary()["cache"]
    assert s["hits"] == 1 and s["misses"] == 1  # second call never queued


def test_lru_cache_evicts_oldest(tmp_path, monkeypatch):
    svc, _ = _service(tmp_path)
    monkeypatch.setattr(server_module, "CACHE_SIZE", 2)

    async def main():
        async with AsyncMSTService(svc) as srv:
            await srv.query("component", 0)
            await srv.query("component", 1)
            await srv.query("component", 2)  # evicts the (component, 0) entry
            await srv.query("component", 0)
            return svc.metrics.summary()["cache"]

    s = _run(main())
    assert s["hits"] == 0 and s["misses"] == 4


def test_backpressure_bounds_queue(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        srv = AsyncMSTService(svc, max_pending=4)
        # Not started: puts would block forever, so query() refuses instead.
        with pytest.raises(ServiceError, match="not started"):
            await srv.query("connected", 0, 1)
        async with srv:
            assert srv.pending <= 4
            out = await asyncio.gather(
                *(srv.query("component", i % 80) for i in range(200))
            )
            assert len(out) == 200
        return True

    assert _run(main())


def test_unknown_kind_and_per_request_errors(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            with pytest.raises(ServiceError, match="unknown query kind"):
                await srv.query("nonsense", 0, 1)
            # out-of-range vertex fails its own request but not the worker
            with pytest.raises(Exception):
                await srv.query("connected", 0, 10**9)
            return await srv.query("connected", 0, 0)

    assert _run(main()) is True


def test_graceful_degradation_recomputes_after_invalidate(tmp_path):
    svc, g = _service(tmp_path)
    expect = kruskal(g).total_weight

    async def main():
        async with AsyncMSTService(svc) as srv:
            svc.invalidate()  # drops the engine; worker must rebuild inline
            return await srv.query("weight")

    assert _run(main()) == pytest.approx(expect)


def test_stop_flushes_pending_requests(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        srv = AsyncMSTService(svc)
        await srv.start()
        futs = [asyncio.ensure_future(srv.query("component", i)) for i in range(10)]
        await asyncio.sleep(0)  # let the puts land
        await srv.stop()
        return await asyncio.gather(*futs)

    out = _run(main())
    assert len(out) == 10 and all(isinstance(x, int) for x in out)


def test_serve_latency_metrics_recorded(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            for _ in range(5):
                await srv.query("bottleneck", 1, 2)

    _run(main())
    pct = svc.metrics.latency_percentiles("serve:bottleneck")
    assert pct and pct["p99"] >= pct["p50"] >= 0.0
    assert svc.metrics.summary()["queries"]["serve:bottleneck"]["count"] == 5


def test_stop_drains_requests_enqueued_behind_sentinel(tmp_path):
    """Shutdown regression: a request can race onto the queue *behind* the
    stop sentinel; stop() must answer it, not abandon its future."""
    from repro.service.server import _STOP

    svc, _ = _service(tmp_path)

    async def main():
        srv = AsyncMSTService(svc, max_batch=4)
        await srv.start()
        loop = asyncio.get_running_loop()
        futures = []
        # Stage the exact shutdown race without yielding to the worker:
        # requests, then the sentinel, then more requests behind it.
        for i in range(3):
            fut = loop.create_future()
            futures.append(fut)
            srv._queue.put_nowait((("component", i, None, None), fut, 0.0, None))
        srv._queue.put_nowait(_STOP)
        for i in range(3, 9):
            fut = loop.create_future()
            futures.append(fut)
            srv._queue.put_nowait((("component", i, None, None), fut, 0.0, None))
        await asyncio.wait_for(srv._worker, timeout=10)
        return await asyncio.wait_for(asyncio.gather(*futures), timeout=10)

    out = _run(main())
    assert len(out) == 9 and all(isinstance(x, int) for x in out)


# ----------------------------------------------------------------------
# Open-loop submission, deadlines, and saturation accounting
# ----------------------------------------------------------------------
def test_query_nowait_sheds_load_when_the_queue_is_full(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc, max_pending=2) as srv:
            futures, rejected = [], 0
            for i in range(50):  # no yields: the worker can't drain between puts
                try:
                    futures.append(srv.query_nowait("component", i % 80))
                except ServiceOverloadError:
                    rejected += 1
            answered = await asyncio.gather(*futures)
            return rejected, answered

    rejected, answered = _run(main())
    assert rejected > 0 and len(answered) == 50 - rejected
    assert all(isinstance(x, int) for x in answered)
    assert svc.metrics.rejected == rejected
    assert svc.metrics.summary()["queue"]["rejected"] == rejected


def test_query_nowait_serves_cache_hits_without_queueing(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc, max_pending=1) as srv:
            await srv.query("connected", 0, 1)  # populate the cache
            fut = srv.query_nowait("connected", 0, 1)
            assert fut.done()  # resolved inline, never enqueued
            return await fut

    assert _run(main()) in (True, False)
    assert svc.metrics.cache_hits == 1


def test_duplicate_hot_keys_coalesce_to_consistent_answers(tmp_path):
    svc, g = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc, max_batch=128) as srv:
            futs = [srv.query_nowait("bottleneck", 3, 9) for _ in range(60)]
            return await asyncio.gather(*futs)

    out = _run(main())
    expect = svc.ensure_ready().bottleneck_many([3], [9])[0]
    assert all(x == expect for x in out)
    # Every answer beyond the per-batch executions came from the cache.
    s = svc.metrics.summary()["cache"]
    assert s["hits"] + svc.metrics.summary()["queries"].get(
        "serve:bottleneck", {}
    ).get("count", 0) == 60


def test_expired_deadline_times_out_at_dequeue(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            futs = [srv.query_nowait("component", i, timeout_s=1e-9)
                    for i in range(5)]
            return await asyncio.gather(*futs, return_exceptions=True)

    out = _run(main())
    assert all(isinstance(x, ServiceTimeoutError) for x in out)
    assert svc.metrics.timeouts == 5
    assert svc.metrics.summary()["queue"]["timeouts"] == 5
    assert "timeouts=5" in svc.metrics.render()


def test_generous_deadline_answers_normally(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            return await srv.query("connected", 0, 1, timeout_s=30.0)

    assert _run(main()) in (True, False)
    assert svc.metrics.timeouts == 0


def test_nonpositive_timeout_rejected(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc) as srv:
            with pytest.raises(ServiceError, match="timeout_s"):
                await srv.query("connected", 0, 1, timeout_s=0.0)
            with pytest.raises(ServiceError, match="timeout_s"):
                srv.query_nowait("connected", 0, 1, timeout_s=-1.0)
        return True

    assert _run(main())


def test_flush_remaining_never_drops_or_double_completes(tmp_path):
    """stop() must answer every queued future exactly once — expired ones
    with ServiceTimeoutError, live ones with a result."""
    svc, _ = _service(tmp_path)

    async def main():
        srv = AsyncMSTService(svc, max_batch=4)
        await srv.start()
        live = [srv.query_nowait("component", i) for i in range(6)]
        dead = [srv.query_nowait("component", 40 + i, timeout_s=1e-9)
                for i in range(6)]
        # No yield between puts and stop: everything flushes at shutdown.
        await srv.stop()
        return (
            await asyncio.gather(*live),
            await asyncio.gather(*dead, return_exceptions=True),
        )

    answered, timed_out = _run(main())
    assert len(answered) == 6 and all(isinstance(x, int) for x in answered)
    assert all(isinstance(x, ServiceTimeoutError) for x in timed_out)
    assert svc.metrics.timeouts == 6


def test_queue_depth_gauge_tracks_the_drain_loop(tmp_path):
    svc, _ = _service(tmp_path)

    async def main():
        async with AsyncMSTService(svc, max_batch=8) as srv:
            futs = [srv.query_nowait("component", i % 80) for i in range(64)]
            await asyncio.gather(*futs)

    _run(main())
    assert svc.metrics.queue_samples > 0
    assert svc.metrics.queue_depth_max >= 0
    q = svc.metrics.summary()["queue"]
    assert q["samples"] == svc.metrics.queue_samples
    assert q["max_depth"] == svc.metrics.queue_depth_max
