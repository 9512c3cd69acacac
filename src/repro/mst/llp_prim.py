"""LLP-Prim: the early-fixing algorithm (Algorithm 5 / "MST1").

Prim's sequential bottleneck is that exactly one vertex is fixed per heap
pop.  LLP-Prim derives from the LLP formulation (Algorithm 4) two extra
ways a vertex ``k`` may be fixed the moment a fixed vertex ``j`` scans the
edge ``(j, k)``:

* the edge is the minimum-weight edge (MWE) of ``j`` or of ``k`` — with
  distinct weights every vertex's MWE belongs to the MST (cut property),
  and its other endpoint ``j`` is already fixed, so ``k``'s parent edge is
  final;
* transitively, vertices whose proposed edges lead to newly fixed vertices.

Fixed vertices accumulate in the unordered bag ``R`` and are explored
without heap traffic; non-MWE relaxations are staged in ``Q`` and only
flushed into the heap once ``R`` drains, and only for vertices that are
still unfixed — this is where the saved ``insertOrAdjust`` calls (the
paper's 21-27% single-thread win) come from.  The heap is consulted only
when ``R`` is empty, popping the nearest non-fixed vertex exactly as Prim
does.

This module is the sequential semantics; the bag is drained in LIFO order
using the same list-based iteration idiom as the other single-thread
baselines.  :mod:`repro.mst.llp_prim_parallel` processes ``R`` in
asynchronous parallel regions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DisconnectedGraphError
from repro.graphs.csr import CSRGraph
from repro.mst.base import MSTResult, result_from_edge_ids
from repro.structures.indexed_heap import IndexedBinaryHeap

__all__ = ["llp_prim"]

_INF = 1 << 60


def llp_prim(
    g: CSRGraph,
    root: int = 0,
    *,
    msf: bool = True,
    early_fixing: bool = True,
) -> MSTResult:
    """LLP-Prim from ``root``; see the module docstring.

    ``early_fixing=False`` disables the MWE rule (every fix goes through
    the heap), which reduces the algorithm to Prim with deferred
    insertions — the ablation of DESIGN.md experiment A1.
    """
    n = g.n_vertices
    heap = IndexedBinaryHeap(n)
    adj_n, adj_r, adj_e = g.py_adjacency
    min_rank = g.min_rank_per_vertex.tolist()
    d = [_INF] * n
    fixed = bytearray(n)
    parent = [-1] * n
    parent_edge = [-1] * n
    chosen: list[int] = []

    R: list[int] = []  # the bag (LIFO here; any order is correct)
    Q: list[int] = []
    staged = bytearray(n)  # membership flag for Q
    edges_scanned = 0
    mwe_fixes = 0
    heap_fixes = 0
    bag_pops = 0
    n_fixed = 0

    roots = [root] if n else []
    next_probe = 0
    while roots:
        r = roots.pop()
        if fixed[r]:
            continue
        d[r] = -1
        fixed[r] = 1
        n_fixed += 1
        R.append(r)
        while True:
            # Drain the bag: explore every fixed-but-unexplored vertex.
            while R:
                bag_pops += 1
                j = R.pop()
                nbrs = adj_n[j]
                ranks = adj_r[j]
                eids = adj_e[j]
                edges_scanned += len(nbrs)
                mr_j = min_rank[j]
                for idx in range(len(nbrs)):
                    k = nbrs[idx]
                    if fixed[k]:
                        continue
                    rk = ranks[idx]
                    if early_fixing and (rk == mr_j or rk == min_rank[k]):
                        # processEdge1: the edge is an MWE, k is fixed now.
                        eid = eids[idx]
                        d[k] = rk
                        fixed[k] = 1
                        n_fixed += 1
                        parent[k] = j
                        parent_edge[k] = eid
                        chosen.append(eid)
                        mwe_fixes += 1
                        R.append(k)
                    elif rk < d[k]:
                        d[k] = rk
                        parent[k] = j
                        parent_edge[k] = eids[idx]
                        if not staged[k]:
                            staged[k] = 1
                            Q.append(k)
            # Flush staged relaxations for vertices that stayed unfixed.
            for k in Q:
                staged[k] = 0
                if not fixed[k]:
                    heap.insert_or_adjust(k, d[k])
            Q.clear()
            # Fall back to the heap for the nearest non-fixed vertex.
            j = -1
            while heap:
                cand, _key = heap.pop()
                if not fixed[cand]:
                    j = cand
                    break
            if j < 0:
                break
            fixed[j] = 1
            n_fixed += 1
            chosen.append(parent_edge[j])
            heap_fixes += 1
            R.append(j)
        if n_fixed < n:
            if not msf:
                raise DisconnectedGraphError(
                    "graph is disconnected; rerun with msf=True for a forest"
                )
            while next_probe < n and fixed[next_probe]:
                next_probe += 1
            if next_probe < n:
                roots.append(next_probe)

    stats = {
        "heap_pushes": heap.n_pushes,
        "heap_pops": heap.n_pops,
        "heap_adjusts": heap.n_adjusts,
        "edges_scanned": edges_scanned,
        "mwe_fixes": mwe_fixes,
        "heap_fixes": heap_fixes,
        "bag_pops": bag_pops,
    }
    return result_from_edge_ids(
        g,
        np.asarray(chosen, dtype=np.int64),
        parent=np.asarray(parent, dtype=np.int64),
        stats=stats,
    )
