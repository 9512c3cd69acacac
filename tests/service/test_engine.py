"""Batched query engine vs brute-force recomputation."""

import numpy as np
import pytest

from repro.errors import GraphError, ServiceError
from repro.graphs.builder import from_edges
from repro.graphs.components import components_union_find
from repro.graphs.generators import gnm_random_graph
from repro.mst.kruskal import kruskal
from repro.runtime.simulated import SimulatedBackend
from repro.service.artifacts import solve_artifact
from repro.service.engine import QUERY_KINDS, QueryEngine


def _brute_bottleneck(g, msf_edge_ids):
    """Dict-BFS minimax path weight over the MSF (the slow reference)."""
    adj = {v: [] for v in range(g.n_vertices)}
    for e in msf_edge_ids:
        u, v = g.edge_endpoints(int(e))
        w = g.edge_weight(int(e))
        adj[u].append((v, w))
        adj[v].append((u, w))

    def query(a, b):
        if a == b:
            return 0.0
        best = {a: 0.0}
        stack = [a]
        while stack:
            x = stack.pop()
            for y, w in adj[x]:
                cand = max(best[x], w)
                if y not in best or cand < best[y]:
                    best[y] = cand
                    stack.append(y)
        return best.get(b, np.inf)

    return query


@pytest.fixture(scope="module", params=[0, 1, 2])
def engine_case(request):
    """Random graphs, two of them disconnected (m << n log n)."""
    seed = request.param
    n = 120 + 40 * seed
    m = [300, 150, 90][seed]  # seed 1, 2 leave isolated pieces
    g = gnm_random_graph(n, m, seed=seed)
    return g, QueryEngine(solve_artifact(g, algorithm="kruskal"))


def test_connected_matches_union_find(engine_case):
    g, engine = engine_case
    comp = components_union_find(g)
    rng = np.random.default_rng(5)
    us = rng.integers(0, g.n_vertices, 400)
    vs = rng.integers(0, g.n_vertices, 400)
    assert np.array_equal(engine.connected_many(us, vs), comp[us] == comp[vs])


def test_component_id_and_size_match_union_find(engine_case):
    g, engine = engine_case
    comp = components_union_find(g)
    sizes = {label: int((comp == label).sum()) for label in np.unique(comp)}
    vs = np.arange(g.n_vertices)
    got_ids = engine.component_id_many(vs)
    got_sizes = engine.component_size_many(vs)
    assert np.array_equal(got_ids, comp)  # both label by least vertex id
    for v in range(g.n_vertices):
        assert got_sizes[v] == sizes[comp[v]]


def test_bottleneck_matches_brute_force(engine_case):
    g, engine = engine_case
    brute = _brute_bottleneck(g, kruskal(g).edge_ids)
    rng = np.random.default_rng(6)
    us = rng.integers(0, g.n_vertices, 150)
    vs = rng.integers(0, g.n_vertices, 150)
    got = engine.bottleneck_many(us, vs)
    for i in range(us.size):
        assert got[i] == pytest.approx(brute(int(us[i]), int(vs[i])))


def test_replacement_matches_recompute(engine_case):
    """The cycle-replacement oracle agrees with literally re-running Kruskal."""
    g, engine = engine_case
    base = kruskal(g)
    rng = np.random.default_rng(7)
    us = rng.integers(0, g.n_vertices, 60)
    vs = rng.integers(0, g.n_vertices, 60)
    ws = np.round(rng.uniform(0.0, 1.5, 60), 6)
    got = engine.replacement_many(us, vs, ws)
    for i in range(us.size):
        u, v, w = int(us[i]), int(vs[i]), float(ws[i])
        if u == v:
            assert not got[i]
            continue
        edges = [(u, v, w)] + [
            (int(a), int(b), float(c))
            for a, b, c in zip(g.edge_u, g.edge_v, g.edge_w)
        ]
        new = kruskal(from_edges(edges, n_vertices=g.n_vertices))
        # the candidate was inserted first, so on exact weight ties the
        # incumbent (later id) loses in this recompute; the service
        # breaks ties the other way — avoid generating exact ties instead
        changed = new.total_weight < base.total_weight - 1e-12 or (
            new.n_components < base.n_components
        )
        assert bool(got[i]) == changed, (u, v, w)


def test_bottleneck_endpoint_conventions(engine_case):
    _, engine = engine_case
    out = engine.bottleneck_many([0, 0], [0, 0])
    assert out.tolist() == [0.0, 0.0]


def test_total_weight_matches_kruskal(engine_case):
    g, engine = engine_case
    assert engine.total_weight() == pytest.approx(kruskal(g).total_weight)


def test_engine_charges_backend_trace():
    g = gnm_random_graph(60, 140, seed=9)
    backend = SimulatedBackend(4)
    engine = QueryEngine(solve_artifact(g, algorithm="kruskal"), backend=backend)
    before = backend.trace.total_work
    engine.bottleneck_many(np.zeros(100, dtype=np.int64),
                           np.full(100, 5, dtype=np.int64))
    engine.connected_many([0, 1], [2, 3])
    assert backend.trace.total_work > before
    assert backend.trace.n_rounds >= 2


def test_execute_dispatch_and_unknown_kind():
    g = from_edges([(0, 1, 1.0), (1, 2, 2.0)])
    engine = QueryEngine(solve_artifact(g, algorithm="kruskal"))
    assert set(QUERY_KINDS) >= {"connected", "bottleneck", "replacement"}
    assert engine.execute("connected", [0], [2]).tolist() == [True]
    assert engine.execute("weight", [0], [0], [0.0])[0] == pytest.approx(3.0)
    with pytest.raises(ServiceError, match="unknown query kind"):
        engine.execute("nope", [0], [0])


def test_engine_rejects_out_of_range():
    g = from_edges([(0, 1, 1.0)])
    engine = QueryEngine(solve_artifact(g, algorithm="kruskal"))
    with pytest.raises(GraphError):
        engine.connected_many([0], [9])
    with pytest.raises(GraphError):
        engine.component_id_many([-1])
    with pytest.raises(GraphError):
        engine.replacement_many([0], [1], [1.0, 2.0])


def test_empty_graph_engine():
    g = from_edges([], n_vertices=0)
    engine = QueryEngine(solve_artifact(g, algorithm="kruskal"))
    assert engine.total_weight() == 0.0
    assert engine.connected_many([], []).size == 0
    assert engine.bottleneck_many([], []).size == 0


def test_warm_index_equals_fresh_build(tmp_path):
    """Answers from a reloaded artifact equal those of the cold one."""
    from repro.service.artifacts import ArtifactStore

    g = gnm_random_graph(90, 180, seed=11)
    store = ArtifactStore(tmp_path)
    cold, _ = store.get_or_compute(g)
    warm = store.load(store.path_for(cold.fingerprint))
    rng = np.random.default_rng(12)
    us = rng.integers(0, 90, 200)
    vs = rng.integers(0, 90, 200)
    a = QueryEngine(cold).bottleneck_many(us, vs)
    b = QueryEngine(warm).bottleneck_many(us, vs)
    assert np.array_equal(a, b)
