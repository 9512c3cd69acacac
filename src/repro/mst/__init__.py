"""Minimum spanning tree / forest algorithms.

Baselines (Section IV): :func:`~repro.mst.prim.prim` (indexed heap),
:func:`~repro.mst.prim_lazy.prim_lazy` (lazy-deletion heap of the
complexity analysis), :func:`~repro.mst.boruvka.boruvka` (BFS component
labelling), :func:`~repro.mst.kruskal.kruskal` (sort + union-find; also
the correctness oracle), :func:`~repro.mst.kkt.kkt` (the randomized
linear-time Karger-Klein-Tarjan algorithm the paper plans to compare
against), and the GBBS-style
:func:`~repro.mst.parallel_boruvka.parallel_boruvka`.

Contributions (Sections V-VI): :func:`~repro.mst.llp_prim.llp_prim`
(early-fixing Algorithm 5) with a parallel variant in
:mod:`repro.mst.llp_prim_parallel`, and
:func:`~repro.mst.llp_boruvka.llp_boruvka` (Algorithm 6: mwe selection,
LLP pointer jumping, contraction).

All functions return :class:`~repro.mst.base.MSTResult`; with distinct
weights every algorithm returns the identical edge set.
"""

from repro.mst.base import MSTResult, result_from_edge_ids
from repro.mst.prim import prim
from repro.mst.prim_lazy import prim_lazy
from repro.mst.llp_prim import llp_prim
from repro.mst.llp_prim_parallel import llp_prim_parallel
from repro.mst.boruvka import boruvka
from repro.mst.parallel_boruvka import parallel_boruvka
from repro.mst.llp_boruvka import llp_boruvka
from repro.mst.kruskal import kruskal
from repro.mst.kkt import kkt
from repro.mst.ghs import ghs
from repro.mst.dynamic import DynamicMSF
from repro.mst.verify import (
    verify_spanning_forest,
    verify_minimum,
    verify_minimum_cycle_property,
)
from repro.mst.registry import get_algorithm, available_algorithms

__all__ = [
    "MSTResult",
    "result_from_edge_ids",
    "prim",
    "prim_lazy",
    "llp_prim",
    "llp_prim_parallel",
    "boruvka",
    "parallel_boruvka",
    "llp_boruvka",
    "kruskal",
    "kkt",
    "ghs",
    "DynamicMSF",
    "verify_spanning_forest",
    "verify_minimum",
    "verify_minimum_cycle_property",
    "get_algorithm",
    "available_algorithms",
]
