"""repro — reproduction of "Parallel Minimum Spanning Tree Algorithms via
Lattice Linear Predicate Detection" (Alves & Garg, 2022).

Public API tour:

* :mod:`repro.graphs` — graph construction, generators (road / RMAT), I/O.
* :mod:`repro.mst` — the MST algorithms: ``prim``, ``llp_prim``,
  ``boruvka``, ``parallel_boruvka``, ``llp_boruvka``, ``kruskal`` and the
  verifier.
* :mod:`repro.llp` — the generic LLP engine and the related-work problem
  instantiations.
* :mod:`repro.runtime` — the pluggable parallel backends, including the
  work-depth simulated machine used for the speedup studies.
* :mod:`repro.bench` — dataset registry and the experiment harness that
  regenerates the paper's tables and figures.

Quickstart::

    from repro.graphs.generators import road_network
    from repro.mst import llp_prim, verify_minimum

    g = road_network(64, 64, seed=7)
    result = llp_prim(g)
    verify_minimum(g, result)
    print(result.n_edges, result.total_weight)
"""

from repro._version import __version__
from repro.graphs import CSRGraph, EdgeList, GraphBuilder, from_edges
from repro.mst import (
    MSTResult,
    boruvka,
    kruskal,
    llp_boruvka,
    llp_prim,
    llp_prim_parallel,
    parallel_boruvka,
    prim,
    prim_lazy,
    verify_minimum,
    verify_spanning_forest,
)
from repro.runtime import (
    CostModel,
    SequentialBackend,
    SimulatedBackend,
    ThreadBackend,
)

__all__ = [
    "__version__",
    "CSRGraph",
    "EdgeList",
    "GraphBuilder",
    "from_edges",
    "MSTResult",
    "prim",
    "prim_lazy",
    "llp_prim",
    "llp_prim_parallel",
    "boruvka",
    "parallel_boruvka",
    "llp_boruvka",
    "kruskal",
    "verify_minimum",
    "verify_spanning_forest",
    "CostModel",
    "SequentialBackend",
    "SimulatedBackend",
    "ThreadBackend",
]
