"""The compute-once/serve-many front doors and the lifecycle they share.

:class:`ArtifactService` is the lifecycle every artifact-backed query
service shares: the content-addressed
:class:`~repro.service.artifacts.ArtifactStore` (each artifact solved at
most once per graph content), offline artifact files, lazy rebuilds
after invalidation, and the
:class:`~repro.service.metrics.ServiceMetrics` recorder.  A subclass
names only its artifact recipe, its engine, and its typed queries.

:class:`MSTService` is the MST one: the vectorized
:class:`~repro.service.engine.QueryEngine` (batched answers) plus
incremental mutation via :class:`~repro.mst.dynamic.DynamicMSF` — an
edge insert or delete repairs the maintained forest, never re-solving
the MSF.  A write sorts the live edges once (their deduplicated edge
list, which the fingerprint hashes), packages the repaired forest
without building a CSR, saves it, and serves it through
:class:`DynamicMSF`'s own path-max index, rebuilt only when the forest
changed.  The snapshot's CSR is built on the first read of
:attr:`MSTService.graph`.
:class:`~repro.solve.service.ProblemService` is the same lifecycle for
the registered problems, and :func:`service_for` picks between them.

Typical use::

    from repro.service import MSTService

    svc = MSTService("artifact-cache/", algorithm="llp-boruvka", mode="vectorized")
    svc.load_graph(g)                    # cold: solve + persist; warm: read
    svc.connected([0, 4, 9], [7, 2, 1])  # batched, vectorized
    svc.bottleneck(0, 12)                # scalars work too
    svc.insert_edge(3, 8, 0.25)          # incremental forest repair
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.errors import ServiceError, WeightError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList, pair_word
from repro.mst.dynamic import DynamicMSF
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.obs.trace import span as _obs_span
from repro.service.artifacts import (
    MST,
    ArtifactStore,
    artifact_from_forest,
    load_json_artifact,
    load_npz_artifact,
    solve_artifact,
)
from repro.service.engine import QUERY_KINDS, QueryEngine
from repro.service.metrics import ServiceMetrics

__all__ = ["ArtifactService", "MSTService", "service_for"]


class ArtifactService:
    """Query service over one content-addressed artifact at a time.

    Subclasses set ``problem`` (the artifact kind they host),
    ``query_kinds`` (the async front-end's admission table) and
    ``_engine_type``, and return their solve recipe from :meth:`_recipe`
    — the keywords :meth:`ArtifactStore.get_or_compute` addresses and
    solves by.
    """

    problem: str
    query_kinds: Tuple[str, ...]
    _engine_type: type

    def __init__(
        self,
        store: ArtifactStore | str | Path | None,
        *,
        mode: str | None,
        backend,
        metrics: ServiceMetrics | None,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = ArtifactStore(store)
        self.store = store
        self.mode = mode
        self.backend = backend
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._engine = None
        self._graph: Optional[CSRGraph] = None

    def _recipe(self) -> dict:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_graph(self, g: CSRGraph):
        """Serve ``g``: reuse its cached artifact or solve once and persist.

        Without a store the solve always happens in process (the graceful
        no-persistence degradation); with one, a warm hit deserialises
        the artifact without touching a solver.  Either way the engine is
        built from the artifact (for MST, the path-max index from the
        forest).
        """
        with _obs_span(
            "service:load_graph", "service", problem=self.problem,
            n_vertices=g.n_vertices, n_edges=g.n_edges,
        ) as sp:
            recipe = self._recipe()
            if self.store is not None:
                artifact, hit = self.store.get_or_compute(
                    g, self.problem, self.mode, backend=self.backend, **recipe
                )
            else:
                artifact = solve_artifact(
                    g, self.problem, self.mode, backend=self.backend, **recipe
                )
                hit = False
            sp.set_attr("artifact_hit", hit)
            self.metrics.record_artifact(hit)
            self._serve(artifact, g)
            return artifact

    def load_artifact(self, path: str | Path):
        """Serve a saved artifact file (offline mode; no graph needed).

        Accepts the store's ``.npz`` files and the portable JSON written
        by ``repro mst --save``; a file solving another problem is
        refused by name.  Offline mode cannot rebuild or mutate: the
        graph is not part of an artifact.
        """
        path = Path(path)
        if path.suffix.lower() == ".json":
            artifact = load_json_artifact(path)
        else:
            artifact = load_npz_artifact(path)
        self._check_kind(artifact)
        self.metrics.record_artifact(True)
        self._serve(artifact, None)
        return artifact

    def _serve(self, artifact, graph: Optional[CSRGraph]) -> None:
        self._graph = graph
        self._engine = self._engine_type(artifact, backend=self.backend)

    def _check_kind(self, artifact) -> None:
        if artifact.problem != self.problem:
            raise ServiceError(
                f"artifact solves {artifact.problem!r}, service hosts "
                f"{self.problem!r}"
            )

    def ensure_ready(self):
        """The live engine, synchronously (re)building it when required.

        This is the degradation path the async front-end leans on: a
        query arriving after an artifact invalidation triggers an inline
        recompute instead of an error.
        """
        if self._engine is None:
            g = self.graph
            if g is None:
                raise ServiceError("no graph or artifact loaded; call load_graph first")
            self.load_graph(g)
        return self._engine

    @property
    def artifact(self):
        """The currently served artifact."""
        return self.ensure_ready().artifact

    @property
    def graph(self) -> Optional[CSRGraph]:
        """The currently served graph (``None`` in offline-artifact mode).

        This is what an evicted engine reloads for.
        """
        return self._graph

    def invalidate(self) -> None:
        """Drop the live engine (next query rebuilds via :meth:`ensure_ready`)."""
        self._engine = None

    # ------------------------------------------------------------------
    # Query plumbing — scalars or array-likes in, matching shape out
    # ------------------------------------------------------------------
    @staticmethod
    def _descalar(value, scalar: bool):
        return value[0].item() if scalar and np.ndim(value) else value

    def _timed(self, kind: str, fn):
        t0 = time.perf_counter()
        with _obs_span(f"query:{kind}", "service"):
            out = fn()
        self.metrics.record_query(kind, time.perf_counter() - t0)
        return out


class MSTService(ArtifactService):
    """Query service over precomputed minimum spanning forests."""

    problem = MST
    query_kinds = QUERY_KINDS
    _engine_type = QueryEngine

    def __init__(
        self,
        store: ArtifactStore | str | Path | None = None,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        mode: str | None = "auto",
        backend=None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        super().__init__(store, mode=mode, backend=backend, metrics=metrics)
        self.algorithm = algorithm
        self._dyn: Optional[DynamicMSF] = None
        # After a write: the snapshot's edge list, whose CSR ``graph``
        # builds on first read.
        self._edges: Optional[EdgeList] = None

    def _recipe(self) -> dict:
        return {"algorithm": self.algorithm}

    def _serve(self, artifact, graph: Optional[CSRGraph]) -> None:
        # A reload of the graph already served keeps the repair, whose
        # edge ids and parallel copies the snapshot's CSR does not hold.
        if graph is None or graph is not self._graph:
            self._dyn = None
        self._edges = None
        super()._serve(artifact, graph)

    def invalidate(self) -> None:
        """Drop the live engine and the path-max index the repair shares with it."""
        super().invalidate()
        if self._dyn is not None:
            self._dyn.drop_index()

    @property
    def graph(self) -> Optional[CSRGraph]:
        """The currently served graph (``None`` in offline-artifact mode).

        After ``insert_edge`` / ``delete_edge`` it is the snapshot of the
        mutated edge set.  A write builds no CSR: the snapshot is built
        on the first read and cached, so only the code that solves or
        reloads (an eviction reload, a store-less rebuild, ``tenant
        stats``) pays for the adjacency.
        """
        if self._graph is None and self._edges is not None:
            self._graph = CSRGraph.from_edgelist(self._edges)
        return self._graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def connected(self, us, vs):
        """Same-tree test; scalar in scalar out, batch in batch out."""
        scalar = np.ndim(us) == 0
        out = self._timed("connected", lambda: self.ensure_ready().connected_many(us, vs))
        return bool(out[0]) if scalar else out

    def component_id(self, vs):
        """Component label (least vertex id in the tree)."""
        scalar = np.ndim(vs) == 0
        out = self._timed("component", lambda: self.ensure_ready().component_id_many(vs))
        return self._descalar(out, scalar)

    def component_size(self, vs):
        """Number of vertices in each queried vertex's tree."""
        scalar = np.ndim(vs) == 0
        out = self._timed(
            "component_size", lambda: self.ensure_ready().component_size_many(vs)
        )
        return self._descalar(out, scalar)

    def bottleneck(self, us, vs):
        """Minimax path weight (``inf`` across components, ``0.0`` for u==v)."""
        scalar = np.ndim(us) == 0
        out = self._timed("bottleneck", lambda: self.ensure_ready().bottleneck_many(us, vs))
        return self._descalar(out, scalar)

    def would_change_msf(self, us, vs, ws):
        """Cycle-replacement test: would inserting ``(u, v, w)`` change the MSF?"""
        scalar = np.ndim(us) == 0
        out = self._timed(
            "replacement", lambda: self.ensure_ready().replacement_many(us, vs, ws)
        )
        return bool(out[0]) if scalar else out

    def total_weight(self) -> float:
        """Total weight of the served forest."""
        return self._timed("weight", lambda: self.ensure_ready().total_weight())

    # ------------------------------------------------------------------
    # Mutation — incremental artifact/index refresh via DynamicMSF
    # ------------------------------------------------------------------
    def _require_dynamic(self) -> DynamicMSF:
        if self._dyn is None:
            g = self.graph
            if g is None:
                raise ServiceError(
                    "mutations need the full edge set; load a graph (not an offline artifact)"
                )
            # Seeded with the served forest: no mutation runs a solver.
            self._dyn = DynamicMSF.from_graph(g, self.artifact.msf_edge_ids)
        return self._dyn

    def insert_edge(self, u: int, v: int, w: float) -> int:
        """Insert an edge; the forest and index update incrementally.

        Returns the edge's id in the dynamic edge store.  The maintained
        forest is repaired by one path-max query (cycle property swap) —
        the MSF is never re-solved — and the query index is rebuilt only
        when the edge joined the forest.  No CSR is built (see
        :attr:`graph`).  ``w`` keeps the graph's weight dtype; a weight
        that dtype cannot hold exactly raises
        :class:`~repro.errors.ServiceError`.
        """
        dyn = self._require_dynamic()
        try:
            eid = dyn.insert_edge(int(u), int(v), w)
        except WeightError as exc:
            raise ServiceError(str(exc)) from exc
        self._refresh_from_dynamic()
        return eid

    def delete_edge(self, u: int, v: int, w: float | None = None) -> None:
        """Delete a live edge by endpoints (and optional exact weight).

        Raises :class:`~repro.errors.ServiceError` when no live edge
        matches.  Tree-edge deletions promote the lightest replacement
        across the cut (cut property), again without re-solving.
        """
        dyn = self._require_dynamic()
        eid = dyn.find_edge(int(u), int(v), w)
        if eid is None:
            raise ServiceError(f"no live edge between {u} and {v}" +
                               (f" with weight {w}" if w is not None else ""))
        dyn.delete_edge(eid)
        self._refresh_from_dynamic()

    def _refresh_from_dynamic(self) -> None:
        """Package :attr:`_dyn`'s forest as the snapshot's artifact and serve it.

        No solve: the repaired forest is the snapshot's MSF under the
        ``(weight, edge id)`` order every solver uses, and it comes out
        of :meth:`DynamicMSF.forest_arrays` in that order, so
        :func:`artifact_from_forest` packages it as a fresh solve would
        with no CSR and no sort.  The engine serves :class:`DynamicMSF`'s
        own path-max index.
        """
        t0 = time.perf_counter()
        with _obs_span("service:mutation", "service"):
            dyn = self._dyn
            edges = dyn.edges()  # the one sort a write keeps
            self._edges, self._graph = edges, None
            fu, fv, _, _ = dyn.forest_arrays()
            # Snapshot edges are deduplicated (u < v) pairs in pair-word
            # order: one search maps the forest onto snapshot edge ids.
            n = edges.n_vertices
            eids = np.searchsorted(
                pair_word(edges.u, edges.v, n),
                pair_word(np.minimum(fu, fv), np.maximum(fu, fv), n),
            )
            artifact = artifact_from_forest(edges, eids, self.algorithm, self.mode)
            if self.store is not None:
                self.store.save(artifact)
            self._engine = QueryEngine(
                artifact, backend=self.backend, oracle=dyn.path_index()
            )
        self.metrics.record_query("mutation", time.perf_counter() - t0)

    # ------------------------------------------------------------------
    def save_artifact_json(self, path: str | Path) -> None:
        """Write the served artifact in the portable JSON form."""
        from repro.service.artifacts import save_json_artifact

        save_json_artifact(self.artifact, path)


def service_for(
    problem: str,
    store: ArtifactStore | str | Path | None = None,
    *,
    mode: str | None = "auto",
    metrics: ServiceMetrics | None = None,
    params: dict | None = None,
    algorithm: str = DEFAULT_ALGORITHM,
) -> ArtifactService:
    """The service hosting ``problem`` — the one place that picks it.

    ``"mst"`` gets an :class:`MSTService` solving with ``algorithm``
    (``"sharded"`` for the sharded coordinator); any registered problem
    gets a :class:`~repro.solve.service.ProblemService` solving with
    ``params``.  The option of the other kind is ignored.
    """
    if problem == MST:
        return MSTService(store, algorithm=algorithm, mode=mode, metrics=metrics)
    from repro.solve.service import ProblemService

    return ProblemService(
        store, problem=problem, mode=mode, metrics=metrics, **(params or {})
    )
