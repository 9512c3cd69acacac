"""Classic Boruvka's algorithm (Algorithm 3) with BFS component labelling.

Each iteration: (1) label every vertex's component with its least member
vertex by BFS over the tree edges chosen so far, (2) sweep *all* graph
edges to find each component's minimum-weight outgoing edge, (3) add those
edges.  This is the paper's single-threaded baseline formulation — the
per-round full relabel plus full edge sweep is what makes it ~3x slower
than Prim in one thread (Fig 2), while the component-parallel structure is
what the parallel variants exploit.

The default implementation performs the sweep and BFS as explicit Python
loops, the same iteration idiom as the Prim-family baselines, so Fig 2's
relative constants compare algorithmic work.  ``mode="vectorized"``
switches to a NumPy bulk sweep built on the :mod:`repro.kernels`
scatter-min primitive (identical output, much faster in this runtime) for
users who just want the forest.

The loop exits when an iteration adds no edge, which happens exactly when
every remaining component is isolated — so disconnected graphs yield the
minimum spanning forest.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.csr import CSRGraph
from repro.mst.base import MSTResult, result_from_edge_ids

__all__ = ["boruvka"]

_INF = 1 << 60


def boruvka(g: CSRGraph, *, mode: str = "loop") -> MSTResult:
    """Boruvka's algorithm; returns the MSF of ``g``.

    ``mode`` ("loop" / "vectorized") is the uniform kernel-mode switch
    shared with the other algorithms.
    """
    if mode not in ("loop", "vectorized"):
        raise AlgorithmError(
            f"unknown boruvka mode {mode!r}; use 'loop' or 'vectorized'"
        )
    vectorized = mode == "vectorized"
    n, m = g.n_vertices, g.n_edges
    chosen: list[int] = []
    rounds = 0
    edges_swept = 0
    bfs_visits = 0

    if vectorized:
        from repro.kernels import minimum_edge_per_vertex

        eu_np, ev_np, ranks_np = g.edge_u, g.edge_v, g.ranks
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    ranks = g.ranks.tolist()
    rank_to_edge = [0] * m
    for e in range(m):
        rank_to_edge[ranks[e]] = e

    # Adjacency of the growing tree, maintained incrementally: Algorithm 3
    # rebuilds component ids by BFS over (V, T) each round.
    tree_adj: list[list[int]] = [[] for _ in range(n)]
    tree_mark = bytearray(m)

    while True:
        rounds += 1
        # ---- Component labelling by BFS over the tree edges.
        cid = [-1] * n
        for i in range(n):
            if cid[i] >= 0:
                continue
            cid[i] = i
            stack = [i]
            while stack:
                x = stack.pop()
                bfs_visits += 1
                for y in tree_adj[x]:
                    if cid[y] < 0:
                        cid[y] = i
                        stack.append(y)

        # ---- Per-component minimum outgoing edge (dist/mwe of Alg. 3).
        if vectorized:
            cid_np = np.asarray(cid, dtype=np.int64)
            cu, cv = cid_np[eu_np], cid_np[ev_np]
            cross = np.flatnonzero(cu != cv)
            edges_swept += m
            if cross.size == 0:
                break
            # Per-component minimum outgoing edge as one scatter-min pass;
            # mutual picks surface twice, deduplicated by np.unique.
            _to, cand_eid, _key = minimum_edge_per_vertex(
                n, cu[cross], cv[cross], ranks_np[cross], cross
            )
            new_edges = np.unique(cand_eid[cand_eid >= 0]).tolist()
        else:
            best = [_INF] * n
            edges_swept += m
            for e in range(m):
                a = cid[eu[e]]
                b = cid[ev[e]]
                if a == b:
                    continue
                r = ranks[e]
                if r < best[a]:
                    best[a] = r
                if r < best[b]:
                    best[b] = r
            picked = {r for r in best if r < _INF}
            if not picked:
                break
            new_edges = sorted(rank_to_edge[r] for r in picked)
            if not new_edges:
                break

        added = False
        for e in new_edges:
            if not tree_mark[e]:
                tree_mark[e] = 1
                chosen.append(e)
                a, b = eu[e], ev[e]
                tree_adj[a].append(b)
                tree_adj[b].append(a)
                added = True
        if not added or len(chosen) >= n - 1:
            break

    stats = {
        "rounds": rounds,
        "edges_swept": edges_swept,
        "bfs_visits": bfs_visits,
    }
    return result_from_edge_ids(g, np.asarray(chosen, dtype=np.int64), stats=stats)
