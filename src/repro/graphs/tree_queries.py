"""Forest path queries: LCA and path-maximum via binary lifting.

The substrate for MST *verification* and for the F-light edge filter of
the Karger-Klein-Tarjan randomized MST: given a weighted forest ``F`` and
query pairs ``(u, v)``, report the maximum edge weight-rank on the tree
path between them (or "disconnected").  Preprocessing O(n log n), queries
O(log n) — not the O(m alpha) of Komlos-style verifiers, but comfortably
inside the sampling analysis's needs and simple enough to trust.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.obs.trace import span as _obs_span

__all__ = ["ForestPathMax", "DISCONNECTED"]

DISCONNECTED = -1  # sentinel returned for queries across components


def _list_rank(G: np.ndarray) -> np.ndarray:
    """Steps from each node to the end of its list (Wyllie list ranking).

    ``G`` is a successor array whose lists end at self-loops.  Each sweep
    is the paper's ``advance(j): G[j] := G[G[j]]`` over the whole array,
    adding the skipped steps, until ``G`` reaches its fixed point.
    """
    dist = (G != np.arange(G.size)).astype(np.int64)
    while True:
        GG = G[G]
        if np.array_equal(GG, G):
            return dist
        dist += dist[G]
        G = GG


class ForestPathMax:
    """Path-maximum oracle over a rank-weighted forest.

    Parameters
    ----------
    n:
        Number of vertices.
    fu, fv, frank:
        Forest edges (must be acyclic) with integer rank weights.

    Each tree is rooted at its least vertex, which ``comp`` reports as the
    tree's label.  The build is whole-array pointer jumping: O(log n)
    NumPy sweeps, no Python loop over vertices or edges.
    """

    def __init__(self, n: int, fu: np.ndarray, fv: np.ndarray, frank: np.ndarray) -> None:
        with _obs_span("index:build", "graphs", n_vertices=int(n), n_edges=len(fu)):
            fu = np.asarray(fu, dtype=np.int64)
            fv = np.asarray(fv, dtype=np.int64)
            frank = np.asarray(frank, dtype=np.int64)
            if not (fu.shape == fv.shape == frank.shape):
                raise GraphError("forest edge arrays must have identical shape")
            if fu.size >= n and n > 0:
                raise GraphError("too many edges for a forest")
            n = self.n = int(n)
            m = fu.size
            if m and (min(fu.min(), fv.min()) < 0 or max(fu.max(), fv.max()) >= n):
                raise GraphError("forest edge endpoint out of range")
            vertices = np.arange(n, dtype=np.int64)

            # Euler tours: arc a < m runs fu[a] -> fv[a], arc a + m the reverse.
            # Sorted by tail, the arcs form each vertex's cyclic arc list; the
            # tour successor of x -> y is the arc after y -> x in y's list.
            src = np.concatenate([fu, fv])
            twin = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
            order = np.argsort(src)
            deg = np.bincount(src, minlength=n)
            start = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=start[1:])
            has_arc = deg > 0
            nxt = np.arange(1, 2 * m + 1)
            nxt[start[1:][has_arc] - 1] = start[:-1][has_arc]
            after = np.empty(2 * m, dtype=np.int64)
            after[order] = order[nxt]
            succ = after[twin]

            # Each tour starts at its least arc in that sorted order: the first
            # arc of its least vertex, the tree's root.  Min-doubling along the
            # tour (G := G[G], ceil(log2 2m) sweeps) gives every arc the sorted
            # position of that first arc (high bits) and the steps to it (low).
            sweeps = max(2 * m - 1, 0).bit_length()
            pos = np.empty(2 * m, dtype=np.int64)
            pos[order] = np.arange(2 * m)
            best = (pos[succ] << (sweeps + 1)) + 1
            for k in range(sweeps):
                best = np.minimum(best, best[succ] + (1 << k))
                succ = succ[succ]
            label = src[order][best >> (sweeps + 1)]
            comp = vertices.copy()
            comp[has_arc] = label[order[start[:-1][has_arc]]]
            # A forest has n - m trees; a cycle only splits tours, so it leaves
            # more self-labelled vertices than that.
            if m != n - int(np.count_nonzero(comp == vertices)):
                raise GraphError("edge set contains a cycle; not a forest")

            # The arc farther ahead of its tour's first arc comes earlier: it
            # runs parent -> child.
            ahead = best & ((2 << sweeps) - 1)
            down = ahead[:m] > ahead[m:]
            child = np.where(down, fv, fu)
            parent = np.full(n, -1, dtype=np.int64)
            parent[child] = np.where(down, fu, fv)
            pedge = np.full(n, -1, dtype=np.int64)
            pedge[child] = frank
            depth = _list_rank(np.where(parent >= 0, parent, vertices))

            self.depth = depth
            self.comp = comp
            max_depth = int(depth.max()) if n else 0
            levels = max(1, int(np.ceil(np.log2(max(max_depth, 1) + 1))) + 1)
            up = np.full((levels, n), -1, dtype=np.int64)
            mx = np.full((levels, n), -1, dtype=np.int64)
            # up[k][v] = 2^k-th ancestor of v (-1 when fewer ancestors exist);
            # mx[k][v] = max edge rank on that 2^k-edge path (valid iff up >= 0).
            up[0] = parent
            mx[0] = pedge
            for k in range(1, levels):
                prev_up, prev_mx = up[k - 1], mx[k - 1]
                has_mid = np.flatnonzero(prev_up >= 0)
                mid = prev_up[has_mid]
                full = has_mid[prev_up[mid] >= 0]  # both halves exist
                mid_full = prev_up[full]
                up[k, full] = prev_up[mid_full]
                mx[k, full] = np.maximum(prev_mx[full], prev_mx[mid_full])
            self._up = up
            self._mx = mx
            self._levels = levels

    # ------------------------------------------------------------------
    @property
    def levels(self) -> int:
        """Number of binary-lifting levels (the per-query work factor)."""
        return self._levels

    def connected(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` share a tree."""
        return self.comp[u] == self.comp[v]

    def path_max(self, u: int, v: int) -> int:
        """Maximum edge rank on the tree path ``u .. v``.

        Returns :data:`DISCONNECTED` when the endpoints are in different
        components, and -1 when ``u == v`` (empty path).
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError("query vertex out of range")
        if self.comp[u] != self.comp[v]:
            return DISCONNECTED
        if u == v:
            return -1
        up, mx, depth = self._up, self._mx, self.depth
        best = -1
        # Lift the deeper endpoint.
        if depth[u] < depth[v]:
            u, v = v, u
        diff = int(depth[u] - depth[v])
        k = 0
        while diff:
            if diff & 1:
                best = max(best, int(mx[k, u]))
                u = int(up[k, u])
            diff >>= 1
            k += 1
        if u == v:
            return best
        # Lift both until just below the LCA.
        for k in range(self._levels - 1, -1, -1):
            if up[k, u] != up[k, v] and up[k, u] >= 0 and up[k, v] >= 0:
                best = max(best, int(mx[k, u]), int(mx[k, v]))
                u = int(up[k, u])
                v = int(up[k, v])
        best = max(best, int(mx[0, u]), int(mx[0, v]))
        return best

    def query_many(self, qu: np.ndarray, qv: np.ndarray) -> np.ndarray:
        """Batched :meth:`path_max` over whole query arrays.

        The documented vectorized entry point: all queries advance through
        the binary-lifting levels together as whole-array NumPy operations,
        so a batch of ``q`` queries costs O(q log n) array work with no
        Python-level per-query loop.  Returns an ``int64`` array aligned
        with the inputs: the maximum edge rank on each tree path,
        :data:`DISCONNECTED` for endpoints in different components, and
        ``-1`` for ``u == v``.
        """
        qu = np.asarray(qu, dtype=np.int64).ravel()
        qv = np.asarray(qv, dtype=np.int64).ravel()
        if qu.shape != qv.shape:
            raise GraphError("query arrays must have identical shape")
        if qu.size == 0:
            return np.empty(0, dtype=np.int64)
        if ((qu < 0) | (qu >= self.n) | (qv < 0) | (qv >= self.n)).any():
            raise GraphError("query vertex out of range")
        out = np.full(qu.size, -1, dtype=np.int64)
        disc = self.comp[qu] != self.comp[qv]
        out[disc] = DISCONNECTED
        active = np.flatnonzero(~disc & (qu != qv))
        if active.size == 0:
            return out
        up, mx, depth = self._up, self._mx, self.depth
        u = qu[active].copy()
        v = qv[active].copy()
        # Orient the deeper endpoint into u.
        swap = depth[u] < depth[v]
        u[swap], v[swap] = v[swap], u[swap]
        best = np.full(active.size, -1, dtype=np.int64)
        # Lift u by the depth difference, one bit per level.
        diff = depth[u] - depth[v]
        for k in range(self._levels):
            hasbit = np.flatnonzero((diff >> k) & 1)
            if hasbit.size:
                lifted = u[hasbit]
                best[hasbit] = np.maximum(best[hasbit], mx[k, lifted])
                u[hasbit] = up[k, lifted]
        # Lift both endpoints to just below the LCA.
        neq = u != v
        for k in range(self._levels - 1, -1, -1):
            uk = up[k, u]
            vk = up[k, v]
            move = np.flatnonzero(neq & (uk != vk) & (uk >= 0) & (vk >= 0))
            if move.size:
                best[move] = np.maximum(
                    best[move], np.maximum(mx[k, u[move]], mx[k, v[move]])
                )
                u[move] = uk[move]
                v[move] = vk[move]
        last = np.flatnonzero(neq)
        if last.size:
            best[last] = np.maximum(
                best[last], np.maximum(mx[0, u[last]], mx[0, v[last]])
            )
        out[active] = best
        return out

    def connected_many(self, qu: np.ndarray, qv: np.ndarray) -> np.ndarray:
        """Batched :meth:`connected`: boolean array aligned with the inputs."""
        qu = np.asarray(qu, dtype=np.int64).ravel()
        qv = np.asarray(qv, dtype=np.int64).ravel()
        if qu.shape != qv.shape:
            raise GraphError("query arrays must have identical shape")
        if qu.size and ((qu < 0) | (qu >= self.n) | (qv < 0) | (qv >= self.n)).any():
            raise GraphError("query vertex out of range")
        return self.comp[qu] == self.comp[qv]
