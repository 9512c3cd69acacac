"""Loop-vs-vectorized equivalence property tests.

Every algorithm with a ``mode="vectorized"`` array-kernel fast path must
produce *exactly* the MSF of its loop-mode reference — same edge-id set,
same total weight — on every graph.  Unique weight ranks make the MSF
unique, so set equality is the right oracle (no tie wiggle room).
"""

from __future__ import annotations

import pytest

from repro.graphs.builder import from_edges
from repro.graphs.generators import gnm_random_graph, grid_graph, rmat_graph
from repro.mst.kruskal import kruskal
from repro.mst.llp_boruvka import llp_boruvka
from repro.mst.registry import (
    PARALLEL_ALGORITHMS,
    get_algorithm,
    list_algorithm_info,
)
from repro.runtime.sequential import SequentialBackend
from repro.runtime.simulated import SimulatedBackend
from repro.runtime.threads import ThreadBackend

MODE_ALGOS = [info.name for info in list_algorithm_info() if info.has_vectorized]

# >= 20 seeded random graphs; the sparse ones (m < n - 1) are forcibly
# disconnected, exercising the MSF (multi-component) path.
RANDOM_CASES = [(40 + 3 * s, m, s) for s, m in enumerate(
    [10, 25, 38, 44, 60, 75, 90, 105, 120, 150,
     12, 30, 42, 55, 70, 85, 100, 130, 160, 200]
)]


def _graphs():
    for n, m, seed in RANDOM_CASES:
        yield f"gnm-{n}-{m}-s{seed}", gnm_random_graph(n, m, seed=seed)
    yield "grid-7x8", grid_graph(7, 8, seed=21)
    yield "rmat-7", rmat_graph(7, 6, seed=22)


def test_mode_algos_discovered():
    assert set(MODE_ALGOS) == {
        "prim", "boruvka", "llp-boruvka", "parallel-boruvka", "sharded"
    }


@pytest.mark.slow
@pytest.mark.parametrize("algo_name", MODE_ALGOS)
def test_vectorized_matches_loop_everywhere(algo_name):
    loop = get_algorithm(algo_name, mode="loop")
    vec = get_algorithm(algo_name, mode="vectorized")
    for label, g in _graphs():
        oracle = kruskal(g)
        r_loop = loop(g)
        r_vec = vec(g)
        assert r_loop.edge_set() == oracle.edge_set(), (algo_name, label)
        assert r_vec.edge_set() == oracle.edge_set(), (algo_name, label)
        assert r_vec.total_weight == pytest.approx(r_loop.total_weight), (
            algo_name, label,
        )


@pytest.mark.slow
@pytest.mark.parametrize("compact", [True, False])
def test_llp_boruvka_modes_agree_for_both_compact_settings(compact):
    for label, g in _graphs():
        oracle = kruskal(g).edge_set()
        r_loop = llp_boruvka(g, compact=compact)
        r_vec = llp_boruvka(g, compact=compact, mode="vectorized")
        assert r_loop.edge_set() == oracle, (label, compact)
        assert r_vec.edge_set() == oracle, (label, compact)
        assert r_vec.total_weight == pytest.approx(r_loop.total_weight)


@pytest.mark.slow
@pytest.mark.parametrize(
    "algo_name", [n for n in MODE_ALGOS if n in PARALLEL_ALGORITHMS]
)
def test_vectorized_parallel_algos_on_every_backend(algo_name):
    vec = get_algorithm(algo_name, mode="vectorized")
    g = gnm_random_graph(60, 150, seed=33)
    sparse = gnm_random_graph(50, 30, seed=34)  # disconnected MSF case
    for graph in (g, sparse):
        oracle = kruskal(graph).edge_set()
        assert vec(graph, backend=SequentialBackend()).edge_set() == oracle
        assert vec(graph, backend=SimulatedBackend(4)).edge_set() == oracle
        with ThreadBackend(3) as tb:
            assert vec(graph, backend=tb).edge_set() == oracle


def test_vectorized_quick_smoke_fig1():
    g = from_edges([
        (0, 2, 4.0), (1, 2, 3.0), (0, 1, 5.0), (1, 3, 7.0),
        (2, 3, 9.0), (3, 4, 2.0), (2, 4, 11.0),
    ])
    oracle = kruskal(g).edge_set()
    for name in MODE_ALGOS:
        assert get_algorithm(name, mode="vectorized")(g).edge_set() == oracle, name
