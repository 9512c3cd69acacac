"""MSTResult assembly and the verifier (must reject corrupted forests)."""

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.checking.families import family_names, iter_cases
from repro.checking.oracle import classify_result
from repro.errors import AlgorithmError
from repro.graphs.builder import from_edges
from repro.graphs.generators import gnm_random_graph, road_network
from repro.mst.base import MSTResult, result_from_edge_ids
from repro.mst.kruskal import kruskal
from repro.mst.verify import (
    verify_minimum,
    verify_minimum_cycle_property,
    verify_spanning_forest,
)


@pytest.fixture
def graph():
    return gnm_random_graph(30, 80, seed=5)


@pytest.fixture
def good(graph):
    return kruskal(graph)


def test_result_from_edge_ids_computes_aggregates(graph, good):
    rebuilt = result_from_edge_ids(graph, good.edge_ids)
    assert rebuilt.total_weight == pytest.approx(good.total_weight)
    assert rebuilt.n_components == good.n_components
    assert rebuilt.weight_of(graph) == pytest.approx(good.total_weight)


def test_result_rejects_bad_edge_ids(graph):
    with pytest.raises(AlgorithmError):
        result_from_edge_ids(graph, np.array([0, 0]))
    with pytest.raises(AlgorithmError):
        result_from_edge_ids(graph, np.array([graph.n_edges]))
    with pytest.raises(AlgorithmError):
        result_from_edge_ids(graph, np.array([-1]))


def test_verify_accepts_correct_forest(graph, good):
    verify_spanning_forest(graph, good)
    verify_minimum(graph, good)


def test_verify_rejects_cycle(graph, good):
    # add a non-tree edge: creates a cycle
    extra = next(e for e in range(graph.n_edges) if e not in good.edge_set())
    bad_ids = np.append(good.edge_ids, extra)
    bad = MSTResult(
        edge_ids=np.sort(bad_ids),
        total_weight=float(graph.edge_w[bad_ids].sum()),
        n_components=good.n_components,
    )
    with pytest.raises(AlgorithmError):
        verify_spanning_forest(graph, bad)


def test_verify_rejects_non_spanning(graph, good):
    bad = result_from_edge_ids(graph, good.edge_ids[:-1])
    with pytest.raises(AlgorithmError):
        verify_spanning_forest(graph, bad)


def test_verify_rejects_wrong_weight(graph, good):
    bad = MSTResult(
        edge_ids=good.edge_ids,
        total_weight=good.total_weight + 1.0,
        n_components=good.n_components,
    )
    with pytest.raises(AlgorithmError):
        verify_spanning_forest(graph, bad)


def test_verify_rejects_wrong_component_count(graph, good):
    bad = MSTResult(
        edge_ids=good.edge_ids,
        total_weight=good.total_weight,
        n_components=good.n_components + 1,
    )
    with pytest.raises(AlgorithmError):
        verify_spanning_forest(graph, bad)


def test_verify_minimum_rejects_spanning_but_not_minimal():
    g = road_network(7, 7, seed=6)
    mst = kruskal(g)
    # swap one tree edge for a non-tree edge that keeps it spanning
    tree = set(mst.edge_set())
    for e in range(g.n_edges):
        if e in tree:
            continue
        u, v = g.edge_endpoints(e)
        # find the tree edge on the cycle: try removing each tree edge
        for t in list(tree):
            candidate = (tree - {t}) | {e}
            try:
                alt = result_from_edge_ids(g, np.array(sorted(candidate)))
                verify_spanning_forest(g, alt)
            except AlgorithmError:
                continue
            # alt spans but differs from the MST; must be rejected
            with pytest.raises(AlgorithmError):
                verify_minimum(g, alt)
            return
    pytest.skip("no spanning swap found")


def test_verify_empty_result():
    g = from_edges([], n_vertices=3)
    r = result_from_edge_ids(g, np.array([], dtype=np.int64))
    verify_spanning_forest(g, r)
    verify_minimum(g, r)


def test_edge_set_and_n_edges(good):
    assert len(good.edge_set()) == good.n_edges


def test_cycle_property_verifier_accepts_all_algorithms(graph):
    from repro.mst.registry import available_algorithms, get_algorithm
    from repro.runtime.simulated import SimulatedBackend

    for name in available_algorithms():
        result = get_algorithm(name)(graph, backend=SimulatedBackend(2))
        verify_minimum_cycle_property(graph, result)


def test_cycle_property_verifier_rejects_non_minimal():
    g = road_network(7, 7, seed=6)
    mst = kruskal(g)
    tree = set(mst.edge_set())
    for e in range(g.n_edges):
        if e in tree:
            continue
        for t in list(tree):
            candidate = (tree - {t}) | {e}
            try:
                alt = result_from_edge_ids(g, np.array(sorted(candidate)))
                verify_spanning_forest(g, alt)
            except AlgorithmError:
                continue
            with pytest.raises(AlgorithmError):
                verify_minimum_cycle_property(g, alt)
            return
    pytest.skip("no spanning swap found")


def test_cycle_property_verifier_forest_input():

    g = from_edges([(0, 1, 1.0), (1, 2, 5.0), (0, 2, 3.0), (3, 4, 2.0)], n_vertices=6)
    verify_minimum_cycle_property(g, kruskal(g))


def _claim(ids, like: MSTResult) -> MSTResult:
    """A result claiming ``ids`` with ``like``'s bookkeeping, unvalidated."""
    return MSTResult(np.asarray(ids, dtype=np.int64), like.total_weight, like.n_components)


def _heaviest_on_cycle(g, ids, e) -> int:
    """The rank-greatest forest edge on the cycle ``e`` closes (plain BFS)."""
    adj = defaultdict(list)
    for t in ids.tolist():
        adj[int(g.edge_u[t])].append((int(g.edge_v[t]), t))
        adj[int(g.edge_v[t])].append((int(g.edge_u[t]), t))
    u, v = int(g.edge_u[e]), int(g.edge_v[e])
    via = {u: None}
    queue = [u]
    for x in queue:
        for y, t in adj[x]:
            if y not in via:
                via[y] = (x, t)
                queue.append(y)
    path = []
    while v != u:
        v, t = via[v]
        path.append(t)
    return max(path, key=lambda t: int(g.ranks[t]))


def _seeded_wrong_forests(g, good: MSTResult) -> dict:
    """Wrong results derived from ``g``'s MSF, by name.

    A swap replaces the heaviest tree edge on a non-tree edge's cycle
    with that edge, so the forest stays spanning: ``swap`` uses the least
    non-tree edge, ``tied-swap`` the least one whose swap keeps the
    forest's weight.
    """
    ids = good.edge_ids
    off = np.setdiff1d(np.arange(g.n_edges), ids)
    wrong = {"out-of-range": _claim(np.append(ids, g.n_edges), good)}
    if ids.size:
        wrong["dropped"] = result_from_edge_ids(g, ids[1:])
        wrong["repeated"] = _claim(np.append(ids, ids[0]), good)

    def swap(e, t):
        return result_from_edge_ids(g, np.append(ids[ids != t], e))

    if off.size:
        wrong["extra"] = result_from_edge_ids(g, np.append(ids, off[0]))
        wrong["swap"] = swap(off[0], _heaviest_on_cycle(g, ids, off[0]))
    for e in off.tolist():
        t = _heaviest_on_cycle(g, ids, e)
        if g.edge_w[t] == g.edge_w[e]:
            wrong["tied-swap"] = swap(e, t)
            break
    return wrong


def test_seeded_wrong_forests_fail_on_every_family():
    verdicts, families, tied = Counter(), set(), set()
    for case in iter_cases(0, 200, max_size=20):
        g, good = case.graph, kruskal(case.graph)
        families.add(case.family)
        for verify in (verify_spanning_forest, verify_minimum, verify_minimum_cycle_property):
            verify(g, good)
        verdicts["kruskal", classify_result(g, good, good) or "ok"] += 1
        for name, bad in _seeded_wrong_forests(g, good).items():
            if name.endswith("swap"):
                verify_spanning_forest(g, bad)
                for verify in (verify_minimum, verify_minimum_cycle_property):
                    with pytest.raises(AlgorithmError):
                        verify(g, bad)
            else:
                with pytest.raises(AlgorithmError):
                    verify_spanning_forest(g, bad)
            if name == "tied-swap":
                tied.add(case.family)
            verdict = classify_result(g, bad, good)
            verdicts[name, verdict[0] if verdict else "ok"] += 1
    assert families == set(family_names())
    assert {"all-equal-weights", "few-distinct-weights", "parallel-edges"} <= tied
    # Counted with a union-find structural check, independent of the index.
    assert verdicts == {
        ("kruskal", "ok"): 200,
        ("out-of-range", "invalid-forest"): 200,
        ("dropped", "invalid-forest"): 164,
        ("repeated", "invalid-forest"): 164,
        ("extra", "invalid-forest"): 143,
        ("swap", "not-minimum"): 104,
        ("swap", "tie-divergence"): 39,
        ("tied-swap", "tie-divergence"): 87,
    }
