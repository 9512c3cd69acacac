"""Mutations through the service equal from-scratch recomputation.

Satellite requirement: on ≥20 random graphs (including disconnected
ones), every insert/delete applied through :class:`MSTService` must
leave the served forest identical to running Kruskal on the mutated
graph from scratch.
"""

import numpy as np
import pytest

from repro.checking.faults import _same_content
from repro.errors import ServiceError
from repro.graphs.generators import gnm_random_graph
from repro.mst.kruskal import kruskal
from repro.service.artifacts import ArtifactStore, solve_artifact
from repro.service.core import MSTService

# 24 cases: (n, m, seed); the sparse ones (m < n - 1) are disconnected.
CASES = [(20 + 3 * s, m, s) for s in range(12) for m in (12 + s, 60 + 4 * s)]


def _assert_matches_recompute(svc):
    """Served forest == Kruskal on the service's current graph snapshot."""
    fresh = kruskal(svc.graph)
    art = svc.artifact
    assert art.total_weight == pytest.approx(fresh.total_weight)
    assert art.n_components == fresh.n_components
    assert art.n_forest_edges == fresh.n_edges
    # connectivity answers agree everywhere
    n = art.n_vertices
    us = np.repeat(np.arange(n), 1)
    vs = np.roll(us, 1)
    engine = svc.ensure_ready()
    from repro.graphs.components import components_union_find

    comp = components_union_find(svc.graph)
    assert np.array_equal(engine.connected_many(us, vs), comp[us] == comp[vs])


def _assert_kruskals_forest_arrays(svc):
    """The served forest arrays are Kruskal's on the current graph."""
    oracle = solve_artifact(svc.graph, "mst", "auto", algorithm="kruskal")
    for name in ("msf_edge_ids", "msf_u", "msf_v", "msf_w"):
        assert np.array_equal(getattr(svc.artifact, name), getattr(oracle, name)), name
    assert svc.artifact.total_weight == oracle.total_weight
    assert svc.artifact.n_components == oracle.n_components


@pytest.mark.parametrize("n,m,seed", CASES)
def test_random_mutation_sequence_matches_recompute(tmp_path, n, m, seed):
    g = gnm_random_graph(n, m, seed=seed)
    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(g)
    rng = np.random.default_rng(1000 + seed)
    for step in range(8):
        if rng.random() < 0.5 and svc.graph.n_edges > 0:
            eid = int(rng.integers(0, svc.graph.n_edges))
            u, v = svc.graph.edge_endpoints(eid)
            w = svc.graph.edge_weight(eid)
            svc.delete_edge(int(u), int(v), float(w))
        else:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            svc.insert_edge(u, v, float(np.round(rng.uniform(0.01, 2.0), 6)))
        _assert_matches_recompute(svc)


def test_insert_bridges_disconnected_graph(tmp_path):
    # two separate triangles; an inserted bridge must join them
    from repro.graphs.builder import from_edges

    edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0),
             (3, 4, 1.0), (4, 5, 2.0), (3, 5, 3.0)]
    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(from_edges(edges))
    assert svc.artifact.n_components == 2
    assert not svc.connected(0, 5)
    svc.insert_edge(2, 3, 0.25)
    assert svc.artifact.n_components == 1
    assert svc.connected(0, 5)
    assert svc.total_weight() == pytest.approx(1 + 2 + 1 + 2 + 0.25)
    _assert_matches_recompute(svc)


def test_delete_disconnects_and_promotes_replacement(tmp_path):
    from repro.graphs.builder import from_edges

    # square with one diagonal: deleting an MSF edge promotes the diagonal
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 5.0), (0, 2, 2.0)]
    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(from_edges(edges))
    assert svc.total_weight() == pytest.approx(3.0)
    svc.delete_edge(1, 2)
    _assert_matches_recompute(svc)
    assert svc.total_weight() == pytest.approx(1.0 + 1.0 + 2.0)
    # deleting the last path between 3 and the rest splits the graph
    svc.delete_edge(2, 3)
    svc.delete_edge(3, 0)
    assert not svc.connected(0, 3)
    _assert_matches_recompute(svc)


def test_delete_missing_edge_raises(tmp_path):
    from repro.graphs.builder import from_edges

    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(from_edges([(0, 1, 1.0)]))
    with pytest.raises(ServiceError, match="no live edge"):
        svc.delete_edge(0, 1, 9.0)  # weight mismatch
    svc.delete_edge(0, 1)
    with pytest.raises(ServiceError, match="no live edge"):
        svc.delete_edge(0, 1)  # already gone


def test_mutations_require_loaded_graph(tmp_path):
    svc = MSTService(ArtifactStore(tmp_path))
    with pytest.raises(ServiceError):
        svc.insert_edge(0, 1, 1.0)
    with pytest.raises(ServiceError):
        svc.delete_edge(0, 1)


def test_mutated_artifact_is_cached_for_next_load(tmp_path):
    """After a mutation, loading the mutated graph elsewhere is a warm hit."""
    g = gnm_random_graph(30, 60, seed=5)
    store = ArtifactStore(tmp_path)
    svc = MSTService(store)
    svc.load_graph(g)
    svc.insert_edge(0, 17, 0.123)
    snapshot = svc.graph
    other = MSTService(ArtifactStore(tmp_path))
    other.load_graph(snapshot)
    assert other.metrics.artifact_hits >= 1
    assert other.total_weight() == pytest.approx(svc.total_weight())


@pytest.mark.parametrize("seed", range(20))
def test_mutated_artifact_is_the_fresh_solve_of_its_graph(tmp_path, seed):
    """Edge ids, weight order and the total's last bits, field for field."""
    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(gnm_random_graph(200, 800, seed=seed))
    u, v = svc.graph.edge_endpoints(0)
    svc.delete_edge(int(u), int(v))
    svc.insert_edge(0, 199, 0.001)
    fresh = solve_artifact(svc.graph, "mst", "auto", algorithm=svc.algorithm)
    assert _same_content(svc.artifact, fresh)
    assert np.array_equal(svc.graph.edge_u[svc.artifact.msf_edge_ids], fresh.msf_u)
    _assert_kruskals_forest_arrays(svc)


@pytest.mark.parametrize("seed", range(20))
def test_mutated_artifact_is_the_fresh_solve_under_ties(tmp_path, seed):
    """With every weight tied the repair keeps the fresh solve's forest."""
    from repro.graphs.csr import CSRGraph
    from repro.graphs.edgelist import EdgeList

    g = gnm_random_graph(60, 200, seed=seed)
    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(CSRGraph.from_edgelist(EdgeList.from_arrays(
        g.n_vertices, g.edge_u, g.edge_v, np.ones(g.n_edges)
    )))
    u, v = svc.graph.edge_endpoints(0)
    svc.delete_edge(int(u), int(v))
    svc.insert_edge(0, 59, 1.0)
    fresh = solve_artifact(svc.graph, "mst", "auto", algorithm=svc.algorithm)
    assert _same_content(svc.artifact, fresh)
    assert np.array_equal(svc.artifact.msf_edge_ids, fresh.msf_edge_ids)
    _assert_kruskals_forest_arrays(svc)


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_mutations_run_no_solver(tmp_path, monkeypatch, op):
    """The first mutation seeds its repair from the served artifact."""
    import importlib

    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(gnm_random_graph(50, 150, seed=7))

    def no_solve(*args, **kwargs):
        raise AssertionError("a mutation ran a solver")

    for module, name in (("repro.mst.kruskal", "kruskal"),
                         ("repro.mst.registry", "get_algorithm")):
        monkeypatch.setattr(importlib.import_module(module), name, no_solve)
    if op == "insert":
        svc.insert_edge(0, 49, 0.001)
    else:
        u, v = svc.graph.edge_endpoints(0)
        svc.delete_edge(int(u), int(v))
    served = svc.total_weight()
    monkeypatch.undo()
    assert served == pytest.approx(kruskal(svc.graph).total_weight)


def test_offline_artifact_rejects_mutations(tmp_path):
    g = gnm_random_graph(20, 40, seed=8)
    svc = MSTService(ArtifactStore(tmp_path / "a"))
    svc.load_graph(g)
    path = tmp_path / "dump.json"
    svc.save_artifact_json(path)
    offline = MSTService(ArtifactStore(tmp_path / "b"))
    offline.load_artifact(path)
    assert offline.total_weight() == pytest.approx(svc.total_weight())
    with pytest.raises(ServiceError):
        offline.insert_edge(0, 1, 0.5)
