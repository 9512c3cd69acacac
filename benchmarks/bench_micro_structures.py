"""Micro-benchmarks of the data-structure substrate."""

import numpy as np
import pytest

from repro.structures.bag import Bag
from repro.structures.dary_heap import IndexedDaryHeap
from repro.structures.indexed_heap import IndexedBinaryHeap
from repro.structures.lazy_heap import LazyHeap
from repro.structures.pairing_heap import PairingHeap
from repro.structures.union_find import UnionFind

N = 5000
RNG = np.random.default_rng(1)
KEYS = RNG.permutation(N * 4)[:N].tolist()
PAIRS = RNG.integers(0, N, size=(3 * N, 2)).tolist()

HEAPS = {
    "binary": lambda: IndexedBinaryHeap(N),
    "4-ary": lambda: IndexedDaryHeap(N, d=4),
    "pairing": lambda: PairingHeap(N),
    "lazy": lambda: LazyHeap(),
}


@pytest.mark.parametrize("kind", list(HEAPS), ids=list(HEAPS))
def test_heap_push_pop_throughput(benchmark, kind):
    benchmark.group = "micro-heap"

    def run():
        h = HEAPS[kind]()
        for i, k in enumerate(KEYS):
            h.push(i, int(k))
        out = 0
        while h:
            out ^= h.pop()[0]
        return out

    benchmark(run)


def test_heap_decrease_key_throughput(benchmark):
    benchmark.group = "micro-heap"

    def run():
        h = IndexedBinaryHeap(N)
        for i, k in enumerate(KEYS):
            h.push(i, int(k) + N * 8)
        for i, k in enumerate(KEYS):
            h.decrease_key(i, int(k))
        return len(h)

    benchmark(run)


def test_union_find_throughput(benchmark):
    benchmark.group = "micro-dsu"

    def run():
        uf = UnionFind(N)
        for a, b in PAIRS:
            uf.union(a, b)
        return uf.n_sets

    benchmark(run)


def test_bag_drain_throughput(benchmark):
    benchmark.group = "micro-bag"

    def run():
        b = Bag()
        b.extend(range(N))
        return b.drain().size

    benchmark(run)


def test_dynamic_msf_insert_throughput(benchmark):
    benchmark.group = "micro-dynamic"
    import numpy as np

    from repro.mst.dynamic import DynamicMSF

    rng = np.random.default_rng(2)
    n_v = 200
    edges = [(int(a), int(b), float(w)) for (a, b), w in zip(
        rng.integers(0, n_v, size=(600, 2)), rng.random(600)) if a != b]

    def run():
        d = DynamicMSF(n_v)
        for u, v, w in edges:
            d.insert_edge(u, v, w)
        return d.total_weight()

    benchmark(run)


def test_forest_path_max_queries(benchmark):
    benchmark.group = "micro-tree-queries"
    import numpy as np

    from repro.graphs.tree_queries import ForestPathMax

    n = 2000
    fu = np.arange(n - 1)
    fv = np.arange(1, n)
    fr = np.random.default_rng(1).permutation(n - 1)
    oracle = ForestPathMax(n, fu, fv, fr)
    qs = np.random.default_rng(2).integers(0, n, size=(500, 2))

    def run():
        return int(oracle.query_many(qs[:, 0], qs[:, 1]).sum())

    benchmark(run)
