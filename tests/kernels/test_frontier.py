"""Frontier-sparse kernels: batched CSR slicing.

The reference semantics are the per-vertex loop the kernel replaces: the
gather of a frontier batch must list exactly the half-edge positions of
its vertices' slices, in frontier order.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import frontier_edges


def test_frontier_edges_matches_per_vertex_slices(any_graph):
    g = any_graph
    rng = np.random.default_rng(0)
    for size in (0, 1, max(1, g.n_vertices // 2), g.n_vertices):
        frontier = np.sort(rng.choice(g.n_vertices, size=size, replace=False))
        pos, src = frontier_edges(g.indptr, frontier.astype(np.int64))
        want_pos, want_src = [], []
        for j in frontier.tolist():
            for p in range(int(g.indptr[j]), int(g.indptr[j + 1])):
                want_pos.append(p)
                want_src.append(j)
        assert pos.tolist() == want_pos
        assert src.tolist() == want_src
