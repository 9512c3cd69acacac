"""Benchmarks of the sharded multiprocess solver vs single-process solvers.

Three groups:

* ``shard-partition`` — the three partition strategies over one large
  edge set (pure assignment cost);
* ``shard-solve`` — :func:`repro.shard.sharded_mst` at 1/2/4 shards
  (serial and process executors) against the fastest single-process
  solvers on the same graph;
* ``shard-merge`` — the binary merge tree over pre-solved shard forests.

``tools/bench_shard_report.py`` runs the wall-clock comparison at the
ISSUE target size (>=100k edges) across 1/2/4/8 shards and writes
``BENCH_shard.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import gnm_random_graph
from repro.mst.registry import get_algorithm
from repro.shard import (
    PARTITION_STRATEGIES,
    merge_tree,
    partition_edges,
    shard_assignment,
    sharded_mst,
    solve_shard_local,
)


@pytest.fixture(scope="module")
def shard_graph():
    """A dense random graph, big enough for process workers to pay off."""
    g = gnm_random_graph(3_000, 60_000, seed=9)
    g.py_adjacency
    g.min_rank_per_vertex
    g.edge_by_rank
    return g


# ----------------------------------------------------------------------
# Partition assignment cost
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
def test_partition_assignment(benchmark, shard_graph, strategy):
    benchmark.group = "shard-partition"
    g = shard_graph
    out = benchmark(
        lambda: shard_assignment(g.n_vertices, g.edge_u, g.edge_v, 4, strategy, 0)
    )
    assert out.shape == (g.n_edges,)


# ----------------------------------------------------------------------
# End-to-end solve: sharded vs single-process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards,executor", [
    (1, "serial"), (2, "serial"), (4, "serial"), (2, "process"), (4, "process"),
])
def test_sharded_solve(benchmark, shard_graph, n_shards, executor):
    benchmark.group = "shard-solve"
    g = shard_graph
    result = benchmark(
        lambda: sharded_mst(g, n_shards=n_shards, executor=executor)
    )
    assert result.n_edges == g.n_vertices - 1


@pytest.mark.parametrize("name,mode", [
    ("kruskal", None), ("boruvka", "vectorized"),
    ("parallel-boruvka", "vectorized"), ("llp-boruvka", "vectorized"),
])
def test_single_process_baseline(benchmark, shard_graph, name, mode):
    benchmark.group = "shard-solve"
    algo = get_algorithm(name, mode=mode)
    result = benchmark(lambda: algo(shard_graph))
    assert result.n_edges == shard_graph.n_vertices - 1


# ----------------------------------------------------------------------
# Merge-tree reduction cost
# ----------------------------------------------------------------------
def test_merge_tree_reduction(benchmark, shard_graph):
    benchmark.group = "shard-merge"
    g = shard_graph
    plan = partition_edges(g, 4, "hash")
    forests = [
        solve_shard_local(g.n_vertices, g.edge_u, g.edge_v, g.edge_w,
                          plan.edge_ids(s))
        for s in range(4)
    ]
    merged = benchmark(lambda: merge_tree(g, forests))
    assert merged.size == g.n_vertices - 1
