"""Cross-algorithm agreement: every algorithm must return the unique MSF.

This is the central correctness property of the reproduction: with
distinct weight ranks the MSF is unique, so eleven independent
implementations (four of them parallel, one distributed, one sharded
multiprocess) must produce the identical edge set, which in turn must
match networkx.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.builder import from_edges
from repro.graphs.edgelist import EdgeList
from repro.graphs.csr import CSRGraph
from repro.mst.registry import available_algorithms, get_algorithm
from repro.mst.verify import verify_minimum, verify_spanning_forest
from repro.runtime.simulated import SimulatedBackend

from tests.conftest import mst_weight_oracle


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 24))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(0, min(max_m, 60)))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    if m:
        pairs = set()
        while len(pairs) < m:
            a, b = rng.integers(0, n, size=2)
            if a != b:
                pairs.add((min(int(a), int(b)), max(int(a), int(b))))
        u, v = np.array(sorted(pairs)).T
        w = rng.uniform(0, 100, size=len(pairs))
    else:
        u = v = np.empty(0, dtype=np.int64)
        w = np.empty(0)
    return CSRGraph.from_edgelist(EdgeList.from_arrays(n, u, v, w))


ALL = available_algorithms()


@given(g=random_graphs())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_all_algorithms_agree_and_match_networkx(g):
    backend_needed = {"llp-prim-parallel", "parallel-boruvka", "llp-boruvka"}
    reference = None
    for name in ALL:
        algo = get_algorithm(name)
        backend = SimulatedBackend(3) if name in backend_needed else None
        result = algo(g, backend=backend)
        verify_spanning_forest(g, result)
        if reference is None:
            reference = result.edge_set()
            assert result.total_weight == pytest.approx(mst_weight_oracle(g))
        assert result.edge_set() == reference, f"{name} disagrees"


@given(g=random_graphs())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_duplicate_weights_still_unique_forest(g):
    """Rank tie-breaking: collapse all weights to 3 distinct values; every
    algorithm must still agree on one forest (the rank-canonical one)."""
    w = np.round(np.asarray(g.edge_w) % 3.0)
    g2 = CSRGraph.from_edgelist(g.to_edgelist().with_weights(w))
    ref = None
    for name in ("prim", "llp-prim", "kruskal", "boruvka"):
        result = get_algorithm(name)(g2)
        verify_spanning_forest(g2, result)
        if ref is None:
            ref = result.edge_set()
        assert result.edge_set() == ref, f"{name} disagrees under ties"


def test_registry_lists_and_rejects():
    from repro.errors import BenchmarkError

    names = available_algorithms()
    assert "prim" in names and "llp-boruvka" in names and "sharded" in names
    assert len(names) == 11
    for name in ("nope", "filter-kruskal", "parallel-filter-kruskal"):
        with pytest.raises(BenchmarkError, match="unknown algorithm"):
            get_algorithm(name)


def test_llp_prim_has_no_vectorized_mode():
    from repro.errors import BenchmarkError

    with pytest.raises(BenchmarkError, match="no 'vectorized' mode; supported: loop$"):
        get_algorithm("llp-prim", mode="vectorized")


def test_registry_adapters_run(fig1_graph):
    for name in available_algorithms():
        result = get_algorithm(name)(fig1_graph, backend=SimulatedBackend(2))
        verify_minimum(fig1_graph, result)
