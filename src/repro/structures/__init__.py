"""Core data structures: heaps, union-find, bags.

These are the sequential and concurrent building blocks the MST algorithms
rest on: Prim needs an addressable heap with ``insert_or_adjust`` (the
paper's ``H.insertOrAdjust``); Kruskal and the verifier need union-find;
LLP-Prim's ``R`` set is a bag; LLP-Boruvka's parallel rounds use an
atomic-min-capable union-find.
"""

from repro.structures.indexed_heap import IndexedBinaryHeap
from repro.structures.dary_heap import IndexedDaryHeap
from repro.structures.pairing_heap import PairingHeap
from repro.structures.lazy_heap import LazyHeap
from repro.structures.union_find import UnionFind
from repro.structures.concurrent_union_find import ConcurrentUnionFind
from repro.structures.bag import Bag

__all__ = [
    "IndexedBinaryHeap",
    "IndexedDaryHeap",
    "PairingHeap",
    "LazyHeap",
    "UnionFind",
    "ConcurrentUnionFind",
    "Bag",
]
