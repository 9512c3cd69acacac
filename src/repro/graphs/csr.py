"""Compressed-sparse-row adjacency for undirected weighted graphs.

A :class:`CSRGraph` stores each undirected edge as two directed half-edges.
Four contiguous NumPy arrays hold the structure (structure-of-arrays, cache
friendly, zero per-edge Python objects):

``indptr``
    ``indptr[v] .. indptr[v+1]`` delimits the half-edges out of ``v``.
``indices``
    Neighbor vertex of each half-edge.
``weights``
    Weight of each half-edge (duplicated across the two directions).
``edge_ids``
    Index of the *undirected* edge in the originating
    :class:`~repro.graphs.edgelist.EdgeList`; the two half-edges of an edge
    share the id.  MST outputs are expressed as sets of these ids.

The paper assumes all edge weights are distinct ("they can be made unique by
incorporating identities of its endpoints").  We realise that rule once, at
construction: :attr:`ranks` assigns every undirected edge a unique ``int64``
rank obtained by sorting on ``(weight, edge_id)``.  Algorithms compare ranks
— a strict total order consistent with the weights — so ties never arise,
while reported tree weights use the original ``weights``.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.edgelist import EdgeList, check_pair_word_limit, pair_word
from repro.graphs.spill import anonymous_memmap
from repro.graphs.weights import weight_order_ranks
from repro.obs.trace import span as _obs_span

__all__ = ["CSRGraph"]

# Above this edge count the one-shot build's peak of about 8
# half-edge-sized arrays (doubled endpoints, pair words, sort order,
# the three outputs, the ranks) starts to dominate peak RSS, and
# from_edgelist switches to the chunked counting-sort build
# automatically.  4M edges keeps every test-scale graph on the
# exhaustively-tested direct path.
_DIRECT_BUILD_MAX_EDGES = 1 << 22

# Edges per chunk of the chunked build: 2M edges = 4M half-edges, about
# 32 MB per int64 temporary.
_DEFAULT_CHUNK_EDGES = 1 << 21


class CSRGraph:
    """Immutable CSR adjacency view of an undirected weighted graph."""

    __slots__ = (
        "n_vertices",
        "n_edges",
        "indptr",
        "indices",
        "weights",
        "edge_ids",
        "half_ranks",
        "edge_u",
        "edge_v",
        "edge_w",
        "ranks",
        "__dict__",
    )

    def __init__(
        self,
        n_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        edge_ids: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_w: np.ndarray,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.n_edges = int(edge_u.size)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.edge_ids = edge_ids
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_w = edge_w
        # Unique total order over undirected edges (weight, then edge id).
        # The zero-edge graph takes one explicit branch so that both rank
        # arrays are always int64 and always defined — every construction
        # path (edgelist, io loaders, subgraph extraction) funnels through
        # here, so this is the single guard the MST algorithms rely on.
        if self.n_edges:
            self.ranks = weight_order_ranks(edge_w)
            self.half_ranks = self.ranks[edge_ids]
        else:
            self.ranks = np.empty(0, dtype=np.int64)
            self.half_ranks = np.empty(0, dtype=np.int64)
        for arr in (indptr, indices, weights, edge_ids, edge_u, edge_v, edge_w):
            arr.setflags(write=False)
        self.ranks.setflags(write=False)
        self.half_ranks.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_edgelist(
        edges: EdgeList,
        *,
        chunk_edges: Optional[int] = None,
        memmap_dir: Optional[Union[str, Path]] = None,
    ) -> "CSRGraph":
        """Build the CSR view of an :class:`EdgeList`.

        Small graphs take the one-shot path (one stable sort of the
        doubled half-edges' :func:`~repro.graphs.edgelist.pair_word`
        keys).  Past :data:`_DIRECT_BUILD_MAX_EDGES` — or whenever
        ``chunk_edges`` / ``memmap_dir`` is given — the build switches
        to a chunked counting sort whose transient
        allocations are bounded by the chunk size instead of the graph,
        optionally writing ``indices`` / ``weights`` / ``edge_ids`` into
        anonymous disk-backed memmaps.  Both paths produce byte-identical
        arrays (covered by tests over the adversarial checking families).
        Raises :class:`~repro.errors.GraphError` before any per-vertex
        allocation when the vertex count passes
        :data:`~repro.graphs.edgelist.MAX_PAIR_WORD_VERTICES`.
        """
        with _obs_span(
            "csr:build", "graphs", n_vertices=edges.n_vertices, n_edges=edges.n_edges
        ):
            if (
                chunk_edges is None
                and memmap_dir is None
                and edges.n_edges <= _DIRECT_BUILD_MAX_EDGES
            ):
                return CSRGraph._from_edgelist_direct(edges)
            return CSRGraph._from_edgelist_chunked(
                edges, chunk_edges or _DEFAULT_CHUNK_EDGES, memmap_dir
            )

    @staticmethod
    def _from_edgelist_direct(edges: EdgeList) -> "CSRGraph":
        n = edges.n_vertices
        m = edges.n_edges
        # Half-edge slot i < m is edge i's u -> v, slot m + i its v -> u.
        # One stable sort of the slots' pair words orders them by
        # (source, neighbor) and keeps parallel half-edges in edge-id
        # order.
        src = np.concatenate([edges.u, edges.v])
        dst = np.concatenate([edges.v, edges.u])
        slot = np.argsort(pair_word(src, dst, n), kind="stable")
        eid = slot % max(m, 1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return CSRGraph(
            n, indptr, dst[slot], edges.w[eid], eid, edges.u, edges.v, edges.w
        )

    @staticmethod
    def _from_edgelist_chunked(
        edges: EdgeList,
        chunk_edges: int,
        memmap_dir: Optional[Union[str, Path]],
    ) -> "CSRGraph":
        """Bounded-peak-memory CSR build: two passes of counting sort.

        Pass 1 accumulates degrees chunk by chunk.  Pass 2 places each
        chunk's half-edges at per-vertex write cursors after a stable
        in-chunk sort by source, so every vertex block fills in chunk
        order.  A final chunked pass stably sorts each vertex block by
        neighbor (one stable sort of the (vertex, neighbor) pair words),
        which reproduces the one-shot build's order exactly: within one
        vertex block, equal-neighbor runs are parallel edges whose
        half-edges all come from the *same* side of the doubled array
        (canonical ``u < v`` makes cross-side ties impossible), and both
        placement and the stable sorts keep those runs in
        ascending-edge-id order — the one-shot order.
        """
        n = edges.n_vertices
        check_pair_word_limit(n)  # before pass 1 allocates per-vertex counts
        m = edges.n_edges
        h = 2 * m
        step = max(int(chunk_edges), 1)

        def alloc(size: int, dtype) -> np.ndarray:
            if memmap_dir is not None and size:
                return anonymous_memmap(size, dtype, memmap_dir)
            return np.empty(size, dtype)

        # Pass 1: degrees -> indptr.
        counts = np.zeros(n, dtype=np.int64)
        for s in range(0, m, step):
            e = min(s + step, m)
            counts += np.bincount(edges.u[s:e], minlength=n)
            counts += np.bincount(edges.v[s:e], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        del counts

        indices = alloc(h, np.int64)
        weights = alloc(h, edges.w.dtype)
        eids = alloc(h, np.int64)

        # Pass 2: cursor placement, chunk by chunk.
        cursor = indptr[:-1].copy()
        for s in range(0, m, step):
            e = min(s + step, m)
            ce = np.arange(s, e, dtype=np.int64)
            hs = np.concatenate([edges.u[s:e], edges.v[s:e]])
            hd = np.concatenate([edges.v[s:e], edges.u[s:e]])
            hw = np.concatenate([edges.w[s:e], edges.w[s:e]])
            he = np.concatenate([ce, ce])
            order = np.argsort(hs, kind="stable")
            hs, hd, hw, he = hs[order], hd[order], hw[order], he[order]
            run_start = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
            run_len = np.diff(np.r_[run_start, hs.size])
            offset = np.arange(hs.size, dtype=np.int64) - np.repeat(run_start, run_len)
            pos = cursor[hs] + offset
            indices[pos] = hd
            weights[pos] = hw
            eids[pos] = he
            cursor[hs[run_start]] += run_len
        del cursor

        # Pass 3: stable neighbor sort per vertex block, over vertex
        # ranges sized to ~one chunk of half-edges (a single vertex whose
        # degree exceeds the chunk is taken whole — correctness first).
        target = 2 * step
        v0 = 0
        while v0 < n:
            v1 = int(np.searchsorted(indptr, indptr[v0] + target, side="right")) - 1
            v1 = min(max(v1, v0 + 1), n)
            s, e = int(indptr[v0]), int(indptr[v1])
            if e > s:
                seg = np.repeat(
                    np.arange(v0, v1, dtype=np.int64), np.diff(indptr[v0 : v1 + 1])
                )
                d, w_, i_ = indices[s:e], weights[s:e], eids[s:e]
                order = np.argsort(pair_word(seg, d, n), kind="stable")
                indices[s:e] = d[order]
                weights[s:e] = w_[order]
                eids[s:e] = i_[order]
            v0 = v1
        return CSRGraph(n, indptr, indices, weights, eids, edges.u, edges.v, edges.w)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor vertices of ``v`` (sorted)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights of the half-edges out of ``v`` (parallel to neighbors)."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_edge_ids(self, v: int) -> np.ndarray:
        """Undirected edge ids of half-edges out of ``v``."""
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_ranks(self, v: int) -> np.ndarray:
        """Unique weight-ranks of half-edges out of ``v``."""
        return self.half_ranks[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex."""
        d = np.diff(self.indptr)
        d.setflags(write=False)
        return d

    @cached_property
    def min_rank_per_vertex(self) -> np.ndarray:
        """For each vertex, the rank of its minimum-weight incident edge.

        Vertices with no incident edge get ``n_edges`` (an impossible rank,
        larger than any real one).  This is the ``mwe(v)`` oracle that both
        LLP-Prim (the MWE early-fixing rule) and LLP-Boruvka (per-vertex
        minimum edge selection) rely on; the paper notes it "can be computed
        when the graph is input".
        """
        from repro.kernels import segmented_min

        out = segmented_min(self.half_ranks, self.indptr, empty=self.n_edges)
        out.setflags(write=False)
        return out

    @cached_property
    def min_edge_per_vertex(self) -> np.ndarray:
        """For each vertex, the undirected edge id of its MWE (or -1)."""
        out = np.full(self.n_vertices, -1, dtype=np.int64)
        mre = self.min_rank_per_vertex
        has = mre < self.n_edges
        if has.any():
            out[has] = self.edge_by_rank[mre[has]]
        out.setflags(write=False)
        return out

    @cached_property
    def edge_by_rank(self) -> np.ndarray:
        """Inverse of :attr:`ranks`: edge id holding each rank."""
        inv = np.empty(self.n_edges, dtype=np.int64)
        inv[self.ranks] = np.arange(self.n_edges, dtype=np.int64)
        inv.setflags(write=False)
        return inv

    @cached_property
    def py_adjacency(self) -> tuple[list, list, list]:
        """Adjacency as nested Python lists: (neighbors, ranks, edge_ids).

        The sequential MST algorithms iterate edges in tight Python loops;
        indexing Python lists is several times faster than scalar-indexing
        NumPy arrays, and all single-thread comparisons (Fig 2) must share
        the same iteration idiom for their relative constants to reflect
        algorithmic work.  Built once per graph and cached.
        """
        nbrs: list = []
        ranks: list = []
        eids: list = []
        ind = self.indptr.tolist()
        all_nbrs = self.indices.tolist()
        all_ranks = self.half_ranks.tolist()
        all_eids = self.edge_ids.tolist()
        for v in range(self.n_vertices):
            s, e = ind[v], ind[v + 1]
            nbrs.append(all_nbrs[s:e])
            ranks.append(all_ranks[s:e])
            eids.append(all_eids[s:e])
        return nbrs, ranks, eids

    @cached_property
    def half_edge_sources(self) -> np.ndarray:
        """Source vertex of each half-edge (expanded from ``indptr``)."""
        src = np.repeat(
            np.arange(self.n_vertices, dtype=np.int64), np.diff(self.indptr)
        )
        src.setflags(write=False)
        return src

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        """Endpoints ``(u, v)`` with ``u < v`` of an undirected edge."""
        return int(self.edge_u[edge_id]), int(self.edge_v[edge_id])

    def edge_weight(self, edge_id: int) -> float:
        """Weight of an undirected edge."""
        return float(self.edge_w[edge_id])

    def other_endpoint(self, edge_id: int, v: int) -> int:
        """The endpoint of ``edge_id`` that is not ``v``."""
        u, w = self.edge_endpoints(edge_id)
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {edge_id}")

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate undirected edges as ``(u, v, w)`` triples."""
        for i in range(self.n_edges):
            yield int(self.edge_u[i]), int(self.edge_v[i]), float(self.edge_w[i])

    def to_edgelist(self) -> EdgeList:
        """Round-trip back to an :class:`EdgeList`."""
        return EdgeList.from_arrays(
            self.n_vertices, self.edge_u, self.edge_v, self.edge_w, dedup=False
        )

    @property
    def total_weight(self) -> float:
        """Sum of all undirected edge weights."""
        return float(self.edge_w.sum()) if self.n_edges else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n_vertices}, m={self.n_edges})"
