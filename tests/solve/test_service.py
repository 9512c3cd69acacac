"""ProblemService: typed queries, artifact reuse, and the async front-end."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.graphs.generators import gnm_random_graph
from repro.service.server import AsyncMSTService
from repro.service.artifacts import save_npz_artifact
from repro.solve.service import PROBLEM_QUERY_KINDS, ProblemService
from repro.solve.sssp import sssp_oracle


def _graph(n, edges):
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return CSRGraph.from_edgelist(EdgeList.from_arrays(n, u, v, w, dedup=False))


@pytest.fixture()
def g():
    return gnm_random_graph(60, 150, seed=8)


def test_sssp_queries_match_oracle(g):
    svc = ProblemService(problem="sssp", mode="vectorized", source=0)
    svc.load_graph(g)
    ora = sssp_oracle(g, source=0)
    vs = [0, 5, 17, 59]
    assert np.array_equal(svc.dist(vs), ora.dist[vs])
    assert np.array_equal(svc.parent(vs), ora.parent[vs])
    assert np.array_equal(svc.reached(vs), np.isfinite(ora.dist[vs]))
    # Scalar in, scalar out.
    assert svc.dist(5) == float(ora.dist[5])
    assert isinstance(svc.parent(5), int)


def test_cc_queries(g):
    svc = ProblemService(problem="cc")
    svc.load_graph(g)
    labels = svc.label(list(range(g.n_vertices)))
    assert svc.same_component(0, 0) is True
    pairs_u, pairs_v = [0, 1], [1, 2]
    same = svc.same_component(pairs_u, pairs_v)
    assert np.array_equal(same, labels[pairs_u] == labels[pairs_v])
    sizes = svc.component_size([0])
    assert sizes[0] == int((labels == labels[0]).sum())


def test_query_kinds_per_problem():
    assert ProblemService(problem="sssp").query_kinds == PROBLEM_QUERY_KINDS["sssp"]
    assert ProblemService(problem="cc").query_kinds == PROBLEM_QUERY_KINDS["cc"]


def test_wrong_kind_for_problem_is_clean_error(g):
    svc = ProblemService(problem="sssp")
    svc.load_graph(g)
    with pytest.raises(ServiceError, match="unknown query kind"):
        svc.ensure_ready().execute("label", [0], [0], None)


def test_unknown_param_rejected_eagerly():
    with pytest.raises(ServiceError, match="takes no parameter"):
        ProblemService(problem="cc", source=3)


def test_vertex_out_of_range(g):
    svc = ProblemService(problem="cc")
    svc.load_graph(g)
    with pytest.raises(ServiceError, match="out of range"):
        svc.label([g.n_vertices])


def test_store_reuse_and_metrics(g, tmp_path):
    svc = ProblemService(tmp_path / "store", problem="cc")
    svc.load_graph(g)
    svc.label([0])
    again = ProblemService(tmp_path / "store", problem="cc")
    again.load_graph(g)  # must be a cache hit, not a re-solve
    assert again.store.stats()["hits"] == 1
    assert svc.metrics.summary()["queries"]["label"]["count"] == 1


def test_load_artifact_offline(g, tmp_path):
    svc = ProblemService(problem="sssp", mode="loop", source=0)
    artifact = svc.load_graph(g)
    path = save_npz_artifact(artifact, tmp_path / "a.npz")

    offline = ProblemService(problem="sssp")
    loaded = offline.load_artifact(path)
    assert loaded.fingerprint == artifact.fingerprint
    assert offline.dist(7) == svc.dist(7)

    wrong = ProblemService(problem="cc")
    with pytest.raises(ServiceError, match="service hosts"):
        wrong.load_artifact(path)


def test_queries_before_load_fail_cleanly():
    svc = ProblemService(problem="cc")
    with pytest.raises(ServiceError, match="no graph or artifact loaded"):
        svc.label([0])


def test_invalidate_rebuilds_from_graph(g):
    svc = ProblemService(problem="cc")
    svc.load_graph(g)
    before = svc.label(0)
    svc.invalidate()
    assert svc.label(0) == before


def test_async_front_end_serves_problem_service(g):
    # The coalescing tier admits kinds via service.query_kinds, so the
    # problem service slots in where MSTService does.
    svc = ProblemService(problem="cc")
    svc.load_graph(g)
    ora_labels = svc.label(list(range(g.n_vertices)))

    async def main():
        async with AsyncMSTService(svc, max_batch=16) as srv:
            return await asyncio.gather(
                *(srv.query("label", v) for v in range(10)),
                srv.query("same", 0, 1),
            )

    *labels, same = asyncio.run(main())
    assert labels == [int(x) for x in ora_labels[:10]]
    assert same == bool(ora_labels[0] == ora_labels[1])


def test_async_front_end_rejects_foreign_kind(g):
    svc = ProblemService(problem="sssp")
    svc.load_graph(g)

    async def main():
        async with AsyncMSTService(svc) as srv:
            with pytest.raises(ServiceError):
                await srv.query("label", 0)

    asyncio.run(main())


def test_same_component_on_disconnected_pair():
    g = _graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    svc = ProblemService(problem="cc")
    svc.load_graph(g)
    assert svc.same_component(0, 1) is True
    assert svc.same_component(1, 2) is False
    assert np.array_equal(svc.component_size([0, 2]), np.array([2, 2]))
