"""Dynamic MSF maintenance under edge insertions and deletions.

A library feature downstream users of an MST package expect: keep the
minimum spanning forest of a changing graph current without recomputing.
Reference semantics, exact at every step:

* **insert** — if the endpoints are in different trees, the edge joins the
  forest; otherwise it replaces the heaviest edge on the tree path between
  them when it is lighter (cycle property), else becomes a non-tree edge.
* **delete** — removing a non-tree edge is free; removing a tree edge
  splits its tree, and the lightest surviving edge across the split (cut
  property) is promoted, if any.

The live edges are NumPy arrays in id order plus a forest mask; tree-path
and cut questions go to a :class:`~repro.graphs.tree_queries.ForestPathMax`
over the forest, which also holds the forest's ids in key order.  A write
costs O(m) NumPy work (one slot appended or dropped, one mask over the
live edges) and an insert one O(log n) path query.  The index is rebuilt
(O(n log n) pointer jumping) only after the forest changed: once per
forest-changing insert, and once or twice per tree-edge delete (the
forest without the edge, then with its replacement).  A write that
leaves the forest alone builds none, and :meth:`forest_arrays` reads the
forest off the index with no sort.  The poly-log structures of Holm-de
Lichtenberg-Thorup are out of scope.

Edges are totally ordered by ``(weight, min endpoint, max endpoint, id)``,
the paper's unique weights made by "incorporating identities of its
endpoints" (§V-A).  :meth:`edges` (and the :meth:`snapshot` built from
it) numbers the edges in ``(u, v)`` order, so there the key is the
``(weight, edge id)`` order :attr:`CSRGraph.ranks` gives every static
solver, and the maintained forest is the static MSF of the live edges
even under ties.  A forest holds no parallel edges, so on it the key is
the snapshot's rank order: :meth:`forest_arrays` lists the forest in the
order an artifact of the snapshot stores it.  Weights keep
the loaded graph's dtype: int64 weights stay exact (float64 would tie
distinct values beyond 2**53 and break that order).

:meth:`from_graph` starts from the forest the caller already holds.  A
served graph whose edge ids are not in ``(u, v)`` order can only come
from an ``.npz`` written out of order and read with ``dedup=False``;
seeded from such a graph's forest, the repair stays minimum but may keep
other tied edges than a fresh solve of the snapshot.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError, WeightError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.graphs.tree_queries import DISCONNECTED, ForestPathMax

__all__ = ["DynamicMSF"]


class DynamicMSF:
    """Exact minimum spanning forest of a mutable edge set."""

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 0:
            raise GraphError("n_vertices must be >= 0")
        self.n_vertices = int(n_vertices)
        # Live edges by ascending id, endpoints as inserted; weights in the
        # loaded graph's dtype (float64 if none).  _tree marks the forest.
        self._ids = np.empty(0, dtype=np.int64)
        self._u = np.empty(0, dtype=np.int64)
        self._v = np.empty(0, dtype=np.int64)
        self._w = np.empty(0, dtype=np.float64)
        self._tree = np.empty(0, dtype=bool)
        self._next_id = 0
        # Path-max index over the forest in key order and the forest's ids
        # by rank; None once the forest changed.
        self._index: Optional[Tuple[ForestPathMax, np.ndarray]] = None

    @classmethod
    def from_graph(cls, g: CSRGraph, forest_edge_ids) -> "DynamicMSF":
        """Load ``g`` with its MSF; dynamic edge ids equal the graph's edge ids.

        ``forest_edge_ids`` names a minimum spanning forest of ``g`` (a
        served artifact's ``msf_edge_ids``), so no solver runs.  Ids out of
        range, or edges that are not a spanning forest of ``g``, raise
        :class:`~repro.errors.GraphError`.
        """
        fids = np.asarray(forest_edge_ids, dtype=np.int64)
        if fids.size and (fids.min() < 0 or fids.max() >= g.n_edges):
            raise GraphError("forest edge id out of range")
        msf = cls(g.n_vertices)
        msf._next_id = g.n_edges
        msf._ids = np.arange(g.n_edges, dtype=np.int64)
        msf._u, msf._v, msf._w = g.edge_u, g.edge_v, g.edge_w
        msf._tree = np.zeros(g.n_edges, dtype=bool)
        msf._tree[fids] = True
        comp = msf._path_index()[0].comp  # raises on a cycle
        if (comp[msf._u] != comp[msf._v]).any():
            raise GraphError("forest does not span the graph")
        return msf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of live edges."""
        return int(self._ids.size)

    @property
    def n_tree_edges(self) -> int:
        """Number of forest edges."""
        return int(np.count_nonzero(self._tree))

    @property
    def n_components(self) -> int:
        """Number of trees in the maintained forest."""
        return self.n_vertices - self.n_tree_edges

    def total_weight(self) -> float:
        """Weight of the maintained forest (exact for int64 weights)."""
        return sum(self._w[self._tree].tolist())

    def tree_edges(self) -> List[Tuple[int, int, float]]:
        """The forest as sorted ``(u, v, w)`` triples."""
        u, v = self._u[self._tree], self._v[self._tree]
        return sorted(zip(
            np.minimum(u, v).tolist(), np.maximum(u, v).tolist(),
            self._w[self._tree].tolist(),
        ))

    def connected(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` are in the same tree."""
        self._check_vertex(u)
        self._check_vertex(v)
        comp = self._path_index()[0].comp
        return bool(comp[u] == comp[v])

    def forest_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Forest edges as ``(u, v, w, edge_id)`` arrays in key order.

        Sorted by the ``(weight, min endpoint, max endpoint, id)`` key the
        forest is maintained under, so position doubles as the
        forest-local rank — the layout the MSF query service's artifacts
        use directly.  Read off :meth:`path_index`, which keeps the
        forest's ids in that order: no sort runs.
        """
        ids = self._path_index()[1]
        p = np.searchsorted(self._ids, ids)
        return self._u[p], self._v[p], self._w[p], ids

    def path_index(self) -> ForestPathMax:
        """The forest's path-max index, ranks in key order.

        Built on demand and kept until the forest changes or
        :meth:`drop_index` frees it, so a write that leaves the forest
        alone reuses it.  Its ranks are positions in
        :meth:`forest_arrays`, the rank order of an artifact of
        :meth:`snapshot`: a query engine serving that artifact can take
        this index as its own.
        """
        return self._path_index()[0]

    def drop_index(self) -> None:
        """Free the path-max index; the next path question rebuilds it."""
        self._index = None

    def find_edge(self, u: int, v: int, w: float | None = None) -> int | None:
        """Id of a live edge with endpoints ``{u, v}`` (and weight ``w``).

        Among multiple matches the smallest key wins; ``None`` when no
        live edge matches.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        match = ((self._u == u) & (self._v == v)) | ((self._u == v) & (self._v == u))
        if w is not None:
            try:
                match &= self._w == self._exact_weight(w)
            except WeightError:
                return None  # the dtype cannot hold w, so no live weight equals it
        pos = np.flatnonzero(match)
        return int(self._ids[pos[self._order(pos)[0]]]) if pos.size else None

    def __iter__(self) -> Iterator[Tuple[int, Tuple[int, int, float]]]:
        return zip(self._ids.tolist(), zip(
            self._u.tolist(), self._v.tolist(), self._w.tolist()
        ))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int, w: float) -> int:
        """Add an edge; returns its id.  The forest is updated in place.

        Raises :class:`~repro.errors.WeightError` when the weight dtype
        cannot hold ``w`` exactly (``2.5`` on an int64 graph, ``2**53 + 1``
        on a float64 one).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError("self loops are not allowed")
        if not np.isfinite(w):
            raise GraphError("weight must be finite")
        u, v, w = int(u), int(v), self._exact_weight(w)
        index, forest_ids = self._path_index()
        rank = index.path_max(u, v)
        eid = self._next_id
        self._next_id += 1
        self._ids = np.append(self._ids, eid)
        self._u = np.append(self._u, u)
        self._v = np.append(self._v, v)
        self._w = np.append(self._w, self._w.dtype.type(w))
        self._tree = np.append(self._tree, rank == DISCONNECTED)  # joins two trees
        if rank != DISCONNECTED:
            # Same tree: the new edge replaces the path's key-greatest edge
            # when its own key is smaller.
            p = self._position(int(forest_ids[rank]))
            if self._order(np.array([p, -1]))[0] == 0:
                return eid
            self._tree[p] = False
            self._tree[-1] = True
        self._index = None
        return eid

    def delete_edge(self, eid: int) -> None:
        """Remove an edge by id, repairing the forest if needed."""
        p = self._position(eid)
        was_tree = self._tree[p]
        self._ids, self._u, self._v, self._w, self._tree = (
            np.delete(a, p) for a in (self._ids, self._u, self._v, self._w, self._tree)
        )
        if not was_tree:
            return
        # In the forest without it, the two halves are the only trees a
        # live non-tree edge can join: promote the key-least such edge.
        self._index = None
        comp = self._path_index()[0].comp
        cross = np.flatnonzero(~self._tree & (comp[self._u] != comp[self._v]))
        if cross.size:
            self._tree[cross[self._order(cross)[0]]] = True
            self._index = None

    # ------------------------------------------------------------------
    # Export / verification hooks
    # ------------------------------------------------------------------
    def edges(self) -> EdgeList:
        """The live edge set as a canonical :class:`EdgeList`.

        Parallel edges are collapsed to their minimum and the rest are
        numbered in ``(u, v)`` order: the edge arrays of :meth:`snapshot`,
        with no adjacency built.
        """
        return EdgeList.from_arrays(self.n_vertices, self._u, self._v, self._w)

    def snapshot(self) -> CSRGraph:
        """The live edge set as a static :class:`CSRGraph`.

        Parallel edges are collapsed to their minimum (CSR canonical
        form), matching how the static algorithms would see this graph.
        """
        return CSRGraph.from_edgelist(self.edges())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _exact_weight(self, w):
        """``w`` as a Python scalar of the weight dtype, or WeightError."""
        if isinstance(w, np.generic):
            w = w.item()  # compare as Python numbers: exact across int/float
        try:
            cast = self._w.dtype.type(w).item()
        except (OverflowError, TypeError, ValueError):
            cast = None
        if cast is None or cast != w:
            raise WeightError(
                f"weight {w!r} is not exactly representable as {self._w.dtype}"
            )
        return cast

    def _order(self, pos: np.ndarray) -> np.ndarray:
        """Argsort of the live positions ``pos`` by the one edge key."""
        u, v = self._u[pos], self._v[pos]
        return np.lexsort(
            (self._ids[pos], np.maximum(u, v), np.minimum(u, v), self._w[pos])
        )

    def _forest(self) -> np.ndarray:
        """Live positions of the forest edges in key order."""
        f = np.flatnonzero(self._tree)
        return f[self._order(f)]

    def _path_index(self) -> Tuple[ForestPathMax, np.ndarray]:
        """The forest's path-max index (ranks in key order), built on demand."""
        if self._index is None:
            f = self._forest()
            self._index = (
                ForestPathMax(self.n_vertices, self._u[f], self._v[f], np.arange(f.size)),
                self._ids[f],
            )
        return self._index

    def _position(self, eid: int) -> int:
        p = int(np.searchsorted(self._ids, eid))
        if p == self._ids.size or self._ids[p] != eid:
            raise GraphError(f"edge {eid} does not exist")
        return p

    def _check_vertex(self, x: int) -> None:
        if not (0 <= x < self.n_vertices):
            raise GraphError(f"vertex {x} out of range")
