"""Dynamic MSF maintenance vs recompute-from-scratch."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.mst.dynamic import DynamicMSF
from repro.mst.kruskal import kruskal


def _static_weight(d: DynamicMSF) -> float:
    return kruskal(d.snapshot()).total_weight


def _static_forest(d: DynamicMSF) -> list:
    """Kruskal's forest of the snapshot as sorted ``(u, v, w)`` triples."""
    g = d.snapshot()
    ids = kruskal(g).edge_ids
    return sorted(zip(g.edge_u[ids].tolist(), g.edge_v[ids].tolist(), g.edge_w[ids].tolist()))


def test_insert_builds_tree():
    d = DynamicMSF(4)
    d.insert_edge(0, 1, 1.0)
    d.insert_edge(1, 2, 2.0)
    d.insert_edge(2, 3, 3.0)
    assert d.n_tree_edges == 3
    assert d.n_components == 1
    assert d.total_weight() == pytest.approx(6.0)


def test_heavier_cycle_edge_stays_out():
    d = DynamicMSF(3)
    d.insert_edge(0, 1, 1.0)
    d.insert_edge(1, 2, 2.0)
    d.insert_edge(0, 2, 9.0)  # closes a cycle, heavier
    assert d.n_tree_edges == 2
    assert d.total_weight() == pytest.approx(3.0)


def test_lighter_cycle_edge_swaps_in():
    d = DynamicMSF(3)
    d.insert_edge(0, 1, 5.0)
    d.insert_edge(1, 2, 2.0)
    d.insert_edge(0, 2, 1.0)  # lighter than the path max (5)
    assert d.total_weight() == pytest.approx(3.0)
    pairs = {(u, v) for u, v, _ in d.tree_edges()}
    assert (0, 1) not in pairs


def test_delete_non_tree_edge_is_free():
    d = DynamicMSF(3)
    d.insert_edge(0, 1, 1.0)
    d.insert_edge(1, 2, 2.0)
    heavy = d.insert_edge(0, 2, 9.0)
    d.delete_edge(heavy)
    assert d.total_weight() == pytest.approx(3.0)
    assert d.n_edges == 2


def test_delete_tree_edge_promotes_replacement():
    d = DynamicMSF(3)
    light = d.insert_edge(0, 1, 1.0)
    d.insert_edge(1, 2, 2.0)
    d.insert_edge(0, 2, 9.0)  # non-tree backup
    d.delete_edge(light)
    assert d.n_components == 1
    assert d.total_weight() == pytest.approx(11.0)


def test_delete_tree_edge_without_replacement_splits():
    d = DynamicMSF(3)
    e = d.insert_edge(0, 1, 1.0)
    d.insert_edge(1, 2, 2.0)
    d.delete_edge(e)
    assert d.n_components == 2
    assert not d.connected(0, 1)
    assert d.connected(1, 2)


def test_parallel_edges_kept_lightest_in_tree():
    d = DynamicMSF(2)
    a = d.insert_edge(0, 1, 5.0)
    b = d.insert_edge(0, 1, 2.0)
    assert d.total_weight() == pytest.approx(2.0)
    d.delete_edge(b)
    assert d.total_weight() == pytest.approx(5.0)
    assert d.n_tree_edges == 1
    del a


def test_validation():
    d = DynamicMSF(3)
    with pytest.raises(GraphError):
        d.insert_edge(0, 0, 1.0)
    with pytest.raises(GraphError):
        d.insert_edge(0, 9, 1.0)
    with pytest.raises(GraphError):
        d.insert_edge(0, 1, float("nan"))
    with pytest.raises(GraphError):
        d.delete_edge(42)
    with pytest.raises(GraphError):
        DynamicMSF(-1)


def test_connected_and_iter():
    d = DynamicMSF(4)
    d.insert_edge(0, 1, 1.0)
    assert d.connected(0, 1)
    assert d.connected(2, 2)
    assert not d.connected(0, 3)
    assert len(list(d)) == 1


def test_snapshot_collapses_parallel_edges():
    d = DynamicMSF(2)
    d.insert_edge(0, 1, 5.0)
    d.insert_edge(0, 1, 2.0)
    g = d.snapshot()
    assert g.n_edges == 1
    assert g.edge_w[0] == 2.0


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 4)),
        max_size=60,
    )
)
# The 6th-8th inserts draw weight 0: a tied triangle inserted out of (u, v) order.
@example(ops=[(5, 6, 1), (6, 7, 1), (7, 8, 1), (8, 9, 1), (4, 5, 1),
              (1, 2, 1), (0, 1, 1), (0, 2, 1)])
@settings(max_examples=40, deadline=None)
def test_matches_recompute_under_random_ops(ops):
    """Random insert/delete stream: the maintained forest is Kruskal's, ties included."""
    n = 10
    d = DynamicMSF(n)
    live: list[int] = []
    rng = np.random.default_rng(0)
    for a, b, action in ops:
        if action == 0 and live:
            # delete a pseudo-random live edge (deterministic pick)
            eid = live.pop((a * 7 + b) % len(live))
            d.delete_edge(eid)
        elif a != b:
            w = float(rng.integers(0, 5))  # deliberate ties
            live.append(d.insert_edge(a, b, w))
        # invariant: maintained forest weight equals the static optimum
        assert d.total_weight() == pytest.approx(_static_weight(d))
        assert d.tree_edges() == _static_forest(d)
        assert d.n_components == n - d.n_tree_edges


def test_large_random_stream_unique_weights():
    rng = np.random.default_rng(3)
    n = 30
    d = DynamicMSF(n)
    ids = []
    for i in range(200):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        ids.append(d.insert_edge(int(u), int(v), float(rng.random())))
    for eid in rng.choice(ids, size=60, replace=False):
        d.delete_edge(int(eid))
        ids.remove(int(eid))
    assert d.total_weight() == pytest.approx(_static_weight(d))


def test_from_graph_matches_incremental_load():
    from repro.graphs.generators import road_network
    from repro.mst.dynamic import DynamicMSF

    g = road_network(7, 8, seed=11)
    fast = DynamicMSF.from_graph(g, kruskal(g).edge_ids)
    slow = DynamicMSF(g.n_vertices)
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
        slow.insert_edge(int(u), int(v), float(w))
    assert fast.total_weight() == pytest.approx(slow.total_weight())
    assert fast.tree_edges() == slow.tree_edges()
    assert fast.n_edges == g.n_edges


def test_from_graph_then_mutate():
    from repro.graphs.generators import grid_graph
    from repro.mst.dynamic import DynamicMSF

    g = grid_graph(4, 4, seed=12)
    d = DynamicMSF.from_graph(g, kruskal(g).edge_ids)
    # delete a tree edge: the forest must repair itself exactly
    tree_edge = int(kruskal(g).edge_ids[0])
    d.delete_edge(tree_edge)
    assert d.total_weight() == pytest.approx(_static_weight(d))


def test_from_graph_rejects_a_bad_forest():
    from repro.graphs.builder import from_edges

    # triangle 0-1-2 (edge ids 0, 1, 2 in (u, v) order) plus edge 3-4
    g = from_edges([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (3, 4, 1.0)])
    assert DynamicMSF.from_graph(g, [0, 1, 3]).total_weight() == pytest.approx(4.0)
    for ids in ([0, 1, 4], [-1, 0, 3], [0, 1, 2, 3], [0, 1]):
        # out of range, out of range, a cycle, not spanning
        with pytest.raises(GraphError):
            DynamicMSF.from_graph(g, ids)
