"""Batched MSF query engine: whole-array answers over a solved artifact.

One engine wraps one :class:`~repro.service.artifacts.MSFArtifact` and
answers five query families, all vectorized (NumPy whole-array lookups for
thousands of pairs per call, in the style of the sparse-kernel batch
semiring queries of Baer et al.):

``connected``
    Same-tree test — one gather and compare per pair.
``component`` / ``component_size``
    Component label (least vertex id in the tree) and tree size.
``bottleneck``
    Minimax path weight: the maximum edge weight on the forest path
    (``0.0`` for ``u == v``, ``inf`` across components) — the classic
    minimax-path/bottleneck semantics of the cycle property.
``replacement``
    "Would inserting ``(u, v, w)`` change the MSF?" — yes when the
    endpoints are disconnected (cut property) or when ``w`` beats the
    path bottleneck strictly (cycle property; ties lose to the incumbent,
    matching the library-wide insertion-order tie-break).
``weight``
    Total forest weight (a constant-time artifact lookup).

Every batch charges its work/span through an optional backend exactly
like the :mod:`repro.kernels` fast paths, so service traffic composes
with the modelled-time accounting.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, ServiceError
from repro.graphs.tree_queries import ForestPathMax
from repro.obs.trace import span as _obs_span
from repro.service.artifacts import MSFArtifact

__all__ = ["QueryEngine", "QUERY_KINDS"]

QUERY_KINDS = (
    "connected",
    "component",
    "component_size",
    "bottleneck",
    "replacement",
    "weight",
)


class QueryEngine:
    """Vectorized query layer over one solved-MSF artifact.

    ``oracle`` is the artifact's path-max index when the caller already
    holds one over the same forest in the same rank order (the service's
    write path hands over :meth:`DynamicMSF.path_index
    <repro.mst.dynamic.DynamicMSF.path_index>`); by default the engine
    builds it from the artifact.
    """

    def __init__(
        self, artifact: MSFArtifact, *, backend=None, oracle: ForestPathMax | None = None
    ) -> None:
        self.artifact = artifact
        self.backend = backend
        self._oracle = oracle if oracle is not None else artifact.oracle()
        # Component label = least vertex id in the tree (BFS root order);
        # sizes indexed by that label.
        comp = self._oracle.comp
        self._sizes = (
            np.bincount(comp, minlength=artifact.n_vertices)
            if artifact.n_vertices
            else np.zeros(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Vertex count of the served graph."""
        return self.artifact.n_vertices

    def _charge(self, work: int, n_tasks: int) -> None:
        """Account one batch as a balanced parallel pass (PR-1 kernel rule)."""
        if self.backend is not None and work > 0:
            self.backend.charge_parallel(int(work), n_tasks=max(int(n_tasks), 1))

    @staticmethod
    def _pair(us, vs) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(us, dtype=np.int64).ravel(),
            np.asarray(vs, dtype=np.int64).ravel(),
        )

    # ------------------------------------------------------------------
    # Query families (all arrays in, arrays out)
    # ------------------------------------------------------------------
    def connected_many(self, us, vs) -> np.ndarray:
        """Boolean same-tree test per pair."""
        qu, qv = self._pair(us, vs)
        out = self._oracle.connected_many(qu, qv)
        self._charge(qu.size, qu.size)
        return out

    def component_id_many(self, vs) -> np.ndarray:
        """Component label (least vertex id in the tree) per vertex."""
        qv = np.asarray(vs, dtype=np.int64).ravel()
        if qv.size and ((qv < 0) | (qv >= self.n_vertices)).any():
            raise GraphError("query vertex out of range")
        self._charge(qv.size, qv.size)
        return self._oracle.comp[qv]

    def component_size_many(self, vs) -> np.ndarray:
        """Size of each queried vertex's tree."""
        labels = self.component_id_many(vs)
        return self._sizes[labels]

    def bottleneck_many(self, us, vs) -> np.ndarray:
        """Minimax (bottleneck) path weight per pair.

        ``0.0`` for ``u == v``; ``inf`` when the endpoints lie in
        different trees (no path exists, so every finite capacity fails).
        """
        qu, qv = self._pair(us, vs)
        ranks = self._oracle.query_many(qu, qv)
        # query_many folds "empty path" and "disconnected" into -1-valued
        # sentinels; disambiguate with the component labels.
        out = np.zeros(qu.size, dtype=np.float64)
        pos = ranks >= 0
        if pos.any():
            out[pos] = self.artifact.msf_w[ranks[pos]]
        disc = self._oracle.comp[qu] != self._oracle.comp[qv]
        out[disc] = np.inf
        self._charge(qu.size * max(self._oracle.levels, 1), qu.size)
        return out

    def replacement_many(self, us, vs, ws) -> np.ndarray:
        """Would inserting ``(u, v, w)`` change the MSF?  Boolean per triple.

        True when the edge would join two trees or strictly beat the
        bottleneck edge on the existing path; equal-weight candidates lose
        to the incumbent (insertion-order tie-break), and self loops never
        change the forest.
        """
        qu, qv = self._pair(us, vs)
        qw = np.asarray(ws, dtype=np.float64).ravel()
        if qw.shape != qu.shape:
            raise GraphError("weight array must match endpoint arrays")
        bottleneck = self.bottleneck_many(qu, qv)
        out = qw < bottleneck  # inf bottleneck (disconnected) always admits
        out[qu == qv] = False
        return out

    def total_weight(self) -> float:
        """Total weight of the served forest."""
        self._charge(1, 1)
        return float(self.artifact.total_weight)

    # ------------------------------------------------------------------
    def execute(self, kind: str, us=None, vs=None, ws=None):
        """Dispatch one batched query by kind name (server plumbing)."""
        n = np.asarray(us).size if us is not None else 1
        with _obs_span(f"engine:{kind}", "service", kind=kind, batch=int(n)):
            return self._execute(kind, us, vs, ws)

    def _execute(self, kind: str, us=None, vs=None, ws=None):
        if kind == "connected":
            return self.connected_many(us, vs)
        if kind == "component":
            return self.component_id_many(us)
        if kind == "component_size":
            return self.component_size_many(us)
        if kind == "bottleneck":
            return self.bottleneck_many(us, vs)
        if kind == "replacement":
            return self.replacement_many(us, vs, ws)
        if kind == "weight":
            n = np.asarray(us).size if us is not None else 1
            return np.full(max(n, 1), self.total_weight(), dtype=np.float64)
        raise ServiceError(
            f"unknown query kind {kind!r}; supported: {', '.join(QUERY_KINDS)}"
        )
