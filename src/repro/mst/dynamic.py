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

Costs are O(n) per insert (tree path walk) and O(n + m) per delete
(replacement scan) — the honest reference implementation, verified
exhaustively against recomputation; the poly-log structures of Holm-de
Lichtenberg-Thorup are out of scope.  Weights are totally ordered by
``(weight, insertion sequence)``, the same endpoint-identity tie-break the
static algorithms use, so the maintained forest always equals the static
MSF of the live edges.  Weights keep the loaded graph's dtype: int64
weights stay exact Python ints (float64 would tie distinct values beyond
2**53 and break that order).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.errors import GraphError, WeightError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList

__all__ = ["DynamicMSF"]


class DynamicMSF:
    """Exact minimum spanning forest of a mutable edge set."""

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 0:
            raise GraphError("n_vertices must be >= 0")
        self.n_vertices = int(n_vertices)
        # edge store: id -> (u, v, w); alive edges only.  w is an exact
        # Python scalar of _w_dtype (the loaded graph's; float64 if none).
        self._edges: Dict[int, Tuple[int, int, float]] = {}
        self._w_dtype = np.dtype(np.float64)
        self._next_id = 0
        self._tree: Set[int] = set()  # ids of forest edges
        # forest adjacency: vertex -> {neighbor: edge id}
        self._adj: List[Dict[int, int]] = [dict() for _ in range(self.n_vertices)]

    @classmethod
    def from_graph(cls, g: CSRGraph) -> "DynamicMSF":
        """Load a static graph; dynamic edge ids equal the graph's edge ids.

        Seeds the forest with a precomputed MSF (one Kruskal run) instead
        of n insert-path walks, so loading is O(m α + n).
        """
        from repro.mst.kruskal import kruskal

        msf = cls(g.n_vertices)
        msf._w_dtype = g.edge_w.dtype
        msf._edges = dict(enumerate(zip(
            g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()
        )))
        msf._next_id = len(msf._edges)
        for eid in kruskal(g).edge_ids:
            msf._link(int(eid))
        return msf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of live edges."""
        return len(self._edges)

    @property
    def n_tree_edges(self) -> int:
        """Number of forest edges."""
        return len(self._tree)

    @property
    def n_components(self) -> int:
        """Number of trees in the maintained forest."""
        return self.n_vertices - len(self._tree)

    def total_weight(self) -> float:
        """Weight of the maintained forest."""
        return sum(self._edges[e][2] for e in self._tree)

    def tree_edges(self) -> List[Tuple[int, int, float]]:
        """The forest as sorted ``(u, v, w)`` triples."""
        return sorted(
            (min(u, v), max(u, v), w)
            for u, v, w in (self._edges[e] for e in self._tree)
        )

    def connected(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` are in the same tree."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._tree_path(u, v) is not None if u != v else True

    def forest_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Forest edges as ``(u, v, w, edge_id)`` arrays in weight order.

        Sorted by the ``(weight, insertion id)`` total order the forest is
        maintained under, so position doubles as the forest-local rank —
        the layout the MSF query service's artifacts use directly.
        """
        ids = sorted(self._tree, key=self._key)
        u = np.array([self._edges[e][0] for e in ids], dtype=np.int64)
        v = np.array([self._edges[e][1] for e in ids], dtype=np.int64)
        w = np.array([self._edges[e][2] for e in ids], dtype=self._w_dtype)
        return u, v, w, np.array(ids, dtype=np.int64)

    def find_edge(self, u: int, v: int, w: float | None = None) -> int | None:
        """Id of a live edge with endpoints ``{u, v}`` (and weight ``w``).

        Among multiple matches the smallest ``(weight, id)`` key wins;
        ``None`` when no live edge matches.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        ends = {u, v}
        best = None
        for eid, (a, b, ew) in self._edges.items():
            if {a, b} != ends:
                continue
            if w is not None and ew != w:
                continue
            if best is None or self._key(eid) < self._key(best):
                best = eid
        return best

    def __iter__(self) -> Iterator[Tuple[int, Tuple[int, int, float]]]:
        return iter(sorted(self._edges.items()))

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
        w = self._exact_weight(w)
        eid = self._next_id
        self._next_id += 1
        self._edges[eid] = (int(u), int(v), w)

        path = self._tree_path(u, v)
        if path is None:
            self._link(eid)  # joins two trees
            return eid
        # Same tree: replace the heaviest path edge if the new one is
        # lighter (ties break toward the earlier-inserted edge).
        heaviest = max(path, key=lambda e: self._key(e))
        if self._key(eid) < self._key(heaviest):
            self._cut(heaviest)
            self._link(eid)
        return eid

    def delete_edge(self, eid: int) -> None:
        """Remove an edge by id, repairing the forest if needed."""
        if eid not in self._edges:
            raise GraphError(f"edge {eid} does not exist")
        was_tree = eid in self._tree
        if was_tree:
            self._cut(eid)
        u, v, _ = self._edges.pop(eid)
        if not was_tree:
            return
        # Find the lightest live edge reconnecting the two halves.
        side = self._component_of(u)
        best = None
        for cand, (a, b, _) in self._edges.items():
            if cand in self._tree:
                continue
            if (a in side) != (b in side):
                if best is None or self._key(cand) < self._key(best):
                    best = cand
        if best is not None:
            self._link(best)

    # ------------------------------------------------------------------
    # Export / verification hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """The live edge set as a static :class:`CSRGraph`.

        Parallel edges are collapsed to their minimum (CSR canonical
        form), matching how the static algorithms would see this graph.
        """
        items = sorted(self._edges.items())
        u = np.array([e[1][0] for e in items], dtype=np.int64)
        v = np.array([e[1][1] for e in items], dtype=np.int64)
        w = np.array([e[1][2] for e in items], dtype=self._w_dtype)
        return CSRGraph.from_edgelist(EdgeList.from_arrays(self.n_vertices, u, v, w))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _exact_weight(self, w):
        """``w`` as a Python scalar of the weight dtype, or WeightError."""
        if isinstance(w, np.generic):
            w = w.item()  # compare as Python numbers: exact across int/float
        try:
            cast = self._w_dtype.type(w).item()
        except (OverflowError, TypeError, ValueError):
            cast = None
        if cast is None or cast != w:
            raise WeightError(
                f"weight {w!r} is not exactly representable as {self._w_dtype}"
            )
        return cast

    def _key(self, eid: int) -> Tuple[float, int]:
        # weight with insertion-order tie-break: a strict total order
        return (self._edges[eid][2], eid)

    def _check_vertex(self, x: int) -> None:
        if not (0 <= x < self.n_vertices):
            raise GraphError(f"vertex {x} out of range")

    def _link(self, eid: int) -> None:
        u, v, _ = self._edges[eid]
        self._tree.add(eid)
        self._adj[u][v] = eid
        self._adj[v][u] = eid

    def _cut(self, eid: int) -> None:
        u, v, _ = self._edges[eid]
        self._tree.discard(eid)
        self._adj[u].pop(v, None)
        self._adj[v].pop(u, None)

    def _tree_path(self, u: int, v: int) -> List[int] | None:
        """Edge ids on the forest path ``u .. v`` (None when disconnected)."""
        if u == v:
            return []
        parent: Dict[int, Tuple[int, int]] = {u: (-1, -1)}
        stack = [u]
        while stack:
            x = stack.pop()
            for y, eid in self._adj[x].items():
                if y in parent:
                    continue
                parent[y] = (x, eid)
                if y == v:
                    path = []
                    cur = v
                    while cur != u:
                        px, pe = parent[cur]
                        path.append(pe)
                        cur = px
                    return path
                stack.append(y)
        return None

    def _component_of(self, u: int) -> Set[int]:
        """Vertices in ``u``'s tree."""
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen
