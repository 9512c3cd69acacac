"""Incremental graph construction helpers.

:class:`GraphBuilder` accumulates edges in Python lists and converts to the
canonical NumPy-backed :class:`~repro.graphs.edgelist.EdgeList` /
:class:`~repro.graphs.csr.CSRGraph` representations at the end — the usual
HPC pattern of building in a flexible container and freezing into
structure-of-arrays for the compute kernels.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList, pair_word

__all__ = ["GraphBuilder", "from_edges", "complete_graph_edges", "pair_rank_weights"]


class GraphBuilder:
    """Accumulates undirected weighted edges and freezes them into a graph."""

    def __init__(self, n_vertices: int = 0) -> None:
        if n_vertices < 0:
            raise GraphError("n_vertices must be >= 0")
        self._n = int(n_vertices)
        self._u: list[int] = []
        self._v: list[int] = []
        self._w: list[float] = []

    @property
    def n_vertices(self) -> int:
        """Current number of vertices."""
        return self._n

    @property
    def n_staged_edges(self) -> int:
        """Number of edges added so far (before dedup)."""
        return len(self._u)

    def add_vertex(self) -> int:
        """Add a new isolated vertex; returns its id."""
        self._n += 1
        return self._n - 1

    def ensure_vertices(self, n: int) -> "GraphBuilder":
        """Grow the vertex count to at least ``n``."""
        self._n = max(self._n, int(n))
        return self

    def add_edge(self, u: int, v: int, w: float) -> "GraphBuilder":
        """Add one undirected edge; endpoints grow the vertex set if needed."""
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex id in edge ({u}, {v})")
        self._n = max(self._n, u + 1, v + 1)
        self._u.append(u)
        self._v.append(v)
        self._w.append(float(w))
        return self

    def add_edges(self, edges: Iterable[Tuple[int, int, float]]) -> "GraphBuilder":
        """Add many ``(u, v, w)`` triples."""
        for u, v, w in edges:
            self.add_edge(u, v, w)
        return self

    def to_edgelist(self, *, dedup: bool = True) -> EdgeList:
        """Freeze into a canonical :class:`EdgeList`."""
        return EdgeList.from_arrays(
            self._n,
            np.asarray(self._u, dtype=np.int64),
            np.asarray(self._v, dtype=np.int64),
            np.asarray(self._w, dtype=np.float64),
            dedup=dedup,
        )

    def to_csr(self, *, dedup: bool = True) -> CSRGraph:
        """Freeze into a :class:`CSRGraph`."""
        return CSRGraph.from_edgelist(self.to_edgelist(dedup=dedup))


def from_edges(
    edges: Sequence[Tuple[int, int, float]], n_vertices: int | None = None
) -> CSRGraph:
    """One-shot CSR construction from ``(u, v, w)`` triples."""
    b = GraphBuilder(n_vertices or 0)
    b.add_edges(edges)
    if n_vertices is not None:
        b.ensure_vertices(n_vertices)
    return b.to_csr()


def pair_rank_weights(iu: np.ndarray, iv: np.ndarray, n: int) -> np.ndarray:
    """Exact ``int64`` pair ranks ``u * n + v`` — unique per ``(u, v)``.

    The obvious ``iu.astype(float64) * n + iv`` collides once ranks pass
    2**53: float64 cannot represent every integer beyond that, so
    distinct pairs silently merge and the unique-weight invariant the
    MST algorithms rely on breaks.  Computing in ``int64`` is exact for
    every materialisable graph (these are the pair words of
    :func:`~repro.graphs.edgelist.pair_word`, which refuses an ``n``
    whose words would overflow); :class:`~repro.graphs.edgelist.EdgeList`
    preserves integer weights as ``int64`` end to end.
    """
    return pair_word(np.asarray(iu, dtype=np.int64), np.asarray(iv, dtype=np.int64), n)


def complete_graph_edges(n: int, weight_fn=None) -> EdgeList:
    """Edge list of the complete graph K_n.

    ``weight_fn(u, v)`` supplies weights; defaults to the exact int64
    pair rank ``u * n + v``, which is unique per edge (see
    :func:`pair_rank_weights`).
    """
    if n < 0:
        raise GraphError("n must be >= 0")
    iu, iv = np.triu_indices(n, k=1)
    if weight_fn is None:
        w = pair_rank_weights(iu, iv, n)
    else:
        w = np.asarray([weight_fn(int(a), int(b)) for a, b in zip(iu, iv)], np.float64)
    return EdgeList.from_arrays(n, iu.astype(np.int64), iv.astype(np.int64), w)
