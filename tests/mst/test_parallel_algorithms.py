"""Parallel MST algorithms across all backends."""

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError
from repro.graphs.builder import from_edges
from repro.graphs.generators import gnm_random_graph, rmat_graph, road_network
from repro.mst.llp_boruvka import llp_boruvka
from repro.mst.llp_prim_parallel import llp_prim_parallel
from repro.mst.parallel_boruvka import parallel_boruvka
from repro.runtime.sequential import SequentialBackend
from repro.runtime.simulated import SimulatedBackend
from repro.runtime.threads import ThreadBackend

from tests.conftest import FIG1_MST_WEIGHTS, mst_edge_oracle

PARALLEL = [
    ("llp_prim_parallel", lambda g, b: llp_prim_parallel(g, backend=b)),
    ("parallel_boruvka", parallel_boruvka),
    ("llp_boruvka", llp_boruvka),
]
IDS = [p[0] for p in PARALLEL]


@pytest.mark.parametrize("name,algo", PARALLEL, ids=IDS)
class TestParallelContract:
    def test_fig1(self, name, algo, fig1_graph):
        result = algo(fig1_graph, SequentialBackend())
        weights = {fig1_graph.edge_weight(int(e)) for e in result.edge_ids}
        assert weights == FIG1_MST_WEIGHTS

    def test_matches_oracle_on_all_morphologies(self, name, algo, any_graph):
        result = algo(any_graph, SimulatedBackend(4))
        assert result.edge_set() == mst_edge_oracle(any_graph)

    def test_worker_count_does_not_change_output(self, name, algo):
        g = road_network(8, 9, seed=11)
        oracle = mst_edge_oracle(g)
        for p in (1, 3, 8):
            assert algo(g, SimulatedBackend(p)).edge_set() == oracle

    def test_thread_backend_output(self, name, algo):
        g = rmat_graph(7, 5, seed=12)
        oracle = mst_edge_oracle(g)
        with ThreadBackend(4) as tb:
            assert algo(g, tb).edge_set() == oracle

    def test_thread_backend_repeated_runs_consistent(self, name, algo):
        """Schedule nondeterminism must never leak into the result."""
        g = gnm_random_graph(40, 120, seed=13)
        oracle = mst_edge_oracle(g)
        for _ in range(3):
            with ThreadBackend(3) as tb:
                assert algo(g, tb).edge_set() == oracle

    def test_empty_and_trivial(self, name, algo):
        assert algo(from_edges([], n_vertices=0), SequentialBackend()).n_edges == 0
        r = algo(from_edges([], n_vertices=3), SequentialBackend())
        assert r.n_edges == 0
        assert r.n_components == 3

    def test_disconnected_msf(self, name, algo):
        g = from_edges([(0, 1, 1.0), (2, 3, 2.0), (3, 4, 0.5)], n_vertices=6)
        r = algo(g, SimulatedBackend(2))
        assert r.n_edges == 3
        assert r.n_components == 3

    def test_trace_is_produced(self, name, algo):
        g = road_network(6, 6, seed=14)
        b = SimulatedBackend(4)
        algo(g, b)
        assert b.trace.total_work > 0
        assert b.modelled_time() > 0


def test_llp_prim_parallel_msf_false_raises():
    g = from_edges([(0, 1, 1.0)], n_vertices=3)
    with pytest.raises(DisconnectedGraphError):
        llp_prim_parallel(g, backend=SequentialBackend(), msf=False)


def test_llp_prim_parallel_pipelined_heap_work():
    g = road_network(8, 8, seed=15)
    b = SimulatedBackend(4)
    llp_prim_parallel(g, backend=b)
    assert b.trace.pipelined_units > 0  # heap runs on the coordinator stream
    async_rounds = [r for r in b.trace.rounds if not r.barrier]
    assert async_rounds  # bag regions are asynchronous


def test_llp_prim_parallel_matches_sequential_llp_prim():
    from repro.mst.llp_prim import llp_prim

    g = road_network(9, 9, seed=16)
    seq = llp_prim(g)
    par = llp_prim_parallel(g, backend=SequentialBackend())
    assert par.edge_set() == seq.edge_set()
    assert par.stats["mwe_fixes"] == seq.stats["mwe_fixes"]


def test_parallel_boruvka_round_count_logarithmic():
    g = road_network(10, 10, seed=17)
    r = parallel_boruvka(g, SequentialBackend())
    assert r.stats["rounds"] <= 12


def test_parallel_boruvka_all_rounds_are_barriers():
    g = road_network(6, 7, seed=18)
    b = SimulatedBackend(4)
    parallel_boruvka(g, b)
    assert all(rec.barrier for rec in b.trace.rounds)


def test_llp_boruvka_levels_and_jumps():
    g = road_network(10, 10, seed=19)
    r = llp_boruvka(g, SimulatedBackend(4))
    assert 1 <= r.stats["levels"] <= 12
    assert r.stats["jump_rounds"] >= 1


def test_llp_boruvka_compact_vs_multiedge_identical_forest(any_graph):
    a = llp_boruvka(any_graph, compact=True)
    b = llp_boruvka(any_graph, compact=False)
    assert a.edge_set() == b.edge_set()


def test_llp_boruvka_uses_async_jump_regions():
    g = road_network(8, 8, seed=20)
    b = SimulatedBackend(4)
    llp_boruvka(g, b)
    kinds = {rec.barrier for rec in b.trace.rounds}
    assert kinds == {True, False}  # barrier phases + async pointer jumping


def test_llp_boruvka_work_less_than_parallel_boruvka():
    """The measured mechanism behind Figs 3-4: no union-find, no atomics."""
    g = road_network(12, 12, seed=21)
    b1, b2 = SimulatedBackend(8), SimulatedBackend(8)
    llp_boruvka(g, b1)
    parallel_boruvka(g, b2)
    assert b1.trace.total_work < b2.trace.total_work
