"""Benchmarks for the MSF query service.

Three layers:

* artifact store — cold ``get_or_compute`` (solve + persist) vs a warm
  service start (read the stored forest, build its path-max index);
* query engine — batched ``bottleneck_many`` vs the one-at-a-time
  scalar loop over the same pairs;
* async front-end — coalesced concurrent queries through
  :class:`~repro.service.server.AsyncMSTService`.

``tools/bench_service_report.py`` runs the engine comparison on a
100k-edge random graph and writes ``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.graphs.generators import gnm_random_graph
from repro.service.artifacts import ArtifactStore
from repro.service.core import MSTService
from repro.service.server import AsyncMSTService

N, M, SEED = 20_000, 60_000, 9
N_QUERIES = 20_000


@pytest.fixture(scope="module")
def service_graph():
    return gnm_random_graph(N, M, seed=SEED)


@pytest.fixture(scope="module")
def warm_service(service_graph, tmp_path_factory):
    svc = MSTService(ArtifactStore(tmp_path_factory.mktemp("store")))
    svc.load_graph(service_graph)
    return svc


@pytest.fixture(scope="module")
def query_pairs():
    rng = np.random.default_rng(SEED + 1)
    return rng.integers(0, N, N_QUERIES), rng.integers(0, N, N_QUERIES)


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
def test_artifact_cold_load(benchmark, service_graph, tmp_path):
    benchmark.group = "service-artifact-load"
    counter = iter(range(10**6))

    def cold():
        store = ArtifactStore(tmp_path / str(next(counter)))
        return store.get_or_compute(service_graph)

    art, hit = benchmark(cold)
    assert not hit and art.n_forest_edges > 0


def test_artifact_warm_load(benchmark, service_graph, tmp_path):
    benchmark.group = "service-artifact-load"
    MSTService(ArtifactStore(tmp_path)).load_graph(service_graph)

    def warm():
        svc = MSTService(ArtifactStore(tmp_path))
        svc.load_graph(service_graph)
        svc.ensure_ready()
        return svc

    svc = benchmark(warm)
    assert svc.store.stats() == {"hits": 1, "misses": 0, "corrupt_replaced": 0}


# ----------------------------------------------------------------------
# Batched engine vs scalar loop
# ----------------------------------------------------------------------
def test_query_bottleneck_batched(benchmark, warm_service, query_pairs):
    benchmark.group = "service-bottleneck"
    us, vs = query_pairs
    engine = warm_service.ensure_ready()
    out = benchmark(lambda: engine.bottleneck_many(us, vs))
    assert out.size == N_QUERIES


def test_query_bottleneck_scalar_loop(benchmark, warm_service, query_pairs):
    benchmark.group = "service-bottleneck"
    us, vs = (a[:500] for a in query_pairs)  # the loop is slow; sample it
    pairs = [(int(u), int(v)) for u, v in zip(us, vs)]

    def loop():
        return [warm_service.bottleneck(u, v) for u, v in pairs]

    out = benchmark(loop)
    assert len(out) == 500


def test_query_replacement_batched(benchmark, warm_service, query_pairs):
    benchmark.group = "service-replacement"
    us, vs = query_pairs
    ws = np.full(N_QUERIES, 0.5)
    engine = warm_service.ensure_ready()
    out = benchmark(lambda: engine.replacement_many(us, vs, ws))
    assert out.size == N_QUERIES


# ----------------------------------------------------------------------
# Async coalescing front-end
# ----------------------------------------------------------------------
def test_async_coalesced_queries(benchmark, warm_service, query_pairs):
    benchmark.group = "service-async"
    us, vs = (a[:2_000] for a in query_pairs)
    pairs = [(int(u), int(v)) for u, v in zip(us, vs)]

    async def burst():
        async with AsyncMSTService(warm_service, max_batch=1024) as srv:
            return await asyncio.gather(
                *(srv.query("bottleneck", u, v) for u, v in pairs)
            )

    out = benchmark(lambda: asyncio.run(burst()))
    assert len(out) == len(pairs)
