"""Sequential MST algorithms: Prim, lazy Prim, LLP-Prim, Boruvka, Kruskal —
per-algorithm behaviour and edge cases."""

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError
from repro.graphs.builder import from_edges
from repro.graphs.generators import path_graph, star_graph
from repro.mst.boruvka import boruvka
from repro.mst.kruskal import kruskal
from repro.mst.llp_prim import llp_prim
from repro.mst.prim import prim
from repro.mst.prim_lazy import prim_lazy

from tests.conftest import FIG1_EDGES, FIG1_MST_WEIGHTS, mst_edge_oracle

SEQUENTIAL = [
    ("prim", prim),
    ("prim_lazy", prim_lazy),
    ("llp_prim", llp_prim),
    ("llp_prim_noearly", lambda g: llp_prim(g, early_fixing=False)),
    ("boruvka", boruvka),
    ("boruvka_vec", lambda g: boruvka(g, mode="vectorized")),
    ("kruskal", kruskal),
]
IDS = [s[0] for s in SEQUENTIAL]


@pytest.mark.parametrize("name,algo", SEQUENTIAL, ids=IDS)
class TestSequentialContract:
    def test_fig1_worked_example(self, name, algo, fig1_graph):
        """The paper's running example: MST edges have weights {2,3,4,7}."""
        result = algo(fig1_graph)
        weights = {fig1_graph.edge_weight(int(e)) for e in result.edge_ids}
        assert weights == FIG1_MST_WEIGHTS
        assert result.total_weight == pytest.approx(16.0)
        assert result.n_components == 1

    def test_matches_oracle_on_all_morphologies(self, name, algo, any_graph):
        result = algo(any_graph)
        assert result.edge_set() == mst_edge_oracle(any_graph)

    def test_empty_graph(self, name, algo):
        g = from_edges([], n_vertices=0)
        result = algo(g)
        assert result.n_edges == 0
        assert result.total_weight == 0.0

    def test_single_vertex(self, name, algo):
        g = from_edges([], n_vertices=1)
        result = algo(g)
        assert result.n_edges == 0
        assert result.n_components == 1

    def test_isolated_vertices_forest(self, name, algo):
        g = from_edges([(0, 1, 1.0), (3, 4, 2.0)], n_vertices=6)
        result = algo(g)
        assert result.n_edges == 2
        assert result.n_components == 4

    def test_two_vertices_one_edge(self, name, algo):
        g = from_edges([(0, 1, 3.5)])
        result = algo(g)
        assert result.n_edges == 1
        assert result.total_weight == pytest.approx(3.5)

    def test_tree_input_returns_all_edges(self, name, algo):
        g = path_graph(10, seed=4)
        result = algo(g)
        assert result.n_edges == 9
        assert result.edge_set() == frozenset(range(9))


# --------------------------------------------------------------- Prim-family
@pytest.mark.parametrize(
    "algo", [prim, prim_lazy, llp_prim], ids=["prim", "lazy", "llp"]
)
def test_msf_false_raises_on_disconnected(algo):
    g = from_edges([(0, 1, 1.0)], n_vertices=3)
    with pytest.raises(DisconnectedGraphError):
        algo(g, msf=False)


@pytest.mark.parametrize(
    "algo", [prim, prim_lazy, llp_prim], ids=["prim", "lazy", "llp"]
)
def test_parent_array_is_rooted_tree(algo, fig1_graph):
    result = algo(fig1_graph)
    parent = result.parent
    assert parent[0] == -1  # default root
    # walking parents always reaches the root
    for v in range(1, 5):
        seen = set()
        x = v
        while x != 0:
            assert x not in seen
            seen.add(x)
            x = int(parent[x])


@pytest.mark.parametrize(
    "algo", [prim, prim_lazy, llp_prim], ids=["prim", "lazy", "llp"]
)
def test_alternative_root(algo, fig1_graph):
    result = algo(fig1_graph, root=3)
    assert result.parent[3] == -1
    weights = {fig1_graph.edge_weight(int(e)) for e in result.edge_ids}
    assert weights == FIG1_MST_WEIGHTS


def test_prim_heap_stats_present(fig1_graph):
    st = prim(fig1_graph).stats
    assert st["heap_pops"] >= 4
    assert st["edges_scanned"] == 14  # both directions of all 7 edges


def test_prim_lazy_duplicate_entry_accounting(any_graph):
    st = prim_lazy(any_graph).stats
    # every push is eventually popped (fresh or stale) or drained at the end
    assert st["heap_pops"] <= st["heap_pushes"]
    assert st["stale_pops"] <= st["heap_pops"]
    # lazy insertion does at least as many pushes as there are fixed
    # non-root vertices
    assert st["heap_pushes"] >= 1


# ------------------------------------------------------------------ LLP-Prim
def test_llp_prim_saves_heap_operations(any_graph):
    """The paper's headline mechanism: early fixing cuts heap traffic."""
    base = prim(any_graph).stats
    llp = llp_prim(any_graph).stats
    base_ops = base["heap_pushes"] + base["heap_pops"]
    llp_ops = llp["heap_pushes"] + llp["heap_pops"]
    assert llp_ops <= base_ops
    if any_graph.n_edges > 4:
        assert llp["mwe_fixes"] > 0


def test_llp_prim_fix_counts_add_up(any_graph):
    g = any_graph
    st = llp_prim(g).stats
    from repro.graphs.components import count_components

    n_roots = count_components(g)
    assert st["mwe_fixes"] + st["heap_fixes"] + n_roots == g.n_vertices


def test_llp_prim_no_early_fixing_matches_prim_heap_profile(fig1_graph):
    st = llp_prim(fig1_graph, early_fixing=False).stats
    assert st["mwe_fixes"] == 0
    assert st["heap_fixes"] == 4


def test_llp_prim_fig1_narrative(fig1_graph):
    """Section V-A walks Fig 1: c, b, e fix early; only d uses the heap."""
    st = llp_prim(fig1_graph, root=0).stats
    assert st["mwe_fixes"] == 3  # c (mwe of a), b (mwe of b/c), e (mwe of d/e)
    assert st["heap_fixes"] == 1  # d


# ------------------------------------------------------------------- Boruvka
def test_boruvka_round_count_logarithmic():
    g = path_graph(64, seed=2)
    st = boruvka(g).stats
    assert st["rounds"] <= 8  # components at least halve per round


def test_boruvka_star_single_round():
    g = star_graph(20, seed=1)
    st = boruvka(g).stats
    assert st["rounds"] == 1


def test_boruvka_vectorized_equals_loop(any_graph):
    a = boruvka(any_graph)
    b = boruvka(any_graph, mode="vectorized")
    assert a.edge_set() == b.edge_set()


# ------------------------------------------------------------------- Kruskal
def test_kruskal_early_exit():
    g = from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    st = kruskal(g).stats
    assert st["edges_scanned"] == 2  # stops after n-1 unions
