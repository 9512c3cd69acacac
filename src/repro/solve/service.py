"""`ProblemService` — the compute-once/serve-many front door per problem.

The :class:`~repro.service.core.MSTService` lifecycle
(:class:`~repro.service.core.ArtifactService`) hosting any registered
problem: the one content-addressed
:class:`~repro.service.artifacts.ArtifactStore` (each instance solved at
most once per graph content + parameters), a vectorized batch
:class:`ProblemQueryEngine` over the artifact's arrays, and the shared
:class:`~repro.service.metrics.ServiceMetrics` recorder.

Because the service exposes ``query_kinds`` and an engine with the batch
``execute(kind, us, vs, ws)`` entry point, the asyncio coalescing tier
(:class:`~repro.service.server.AsyncMSTService` — request batching, LRU
cache, backpressure, deadlines) wraps it unchanged::

    svc = ProblemService("cache/", problem="sssp", mode="auto", source=0)
    svc.load_graph(g)
    svc.dist([4, 9, 17])            # batched gather from the artifact
    async with AsyncMSTService(svc) as srv:
        await srv.query("dist", 4)

Query kinds
-----------
``sssp``: ``dist`` (float distance, ``inf`` if unreachable), ``parent``
(canonical tight-edge parent, ``-1`` for source/unreachable), ``reached``
(bool).  ``cc``: ``label`` (component-minimum vertex id), ``same``
(bool, one label test per ``(u, v)`` pair), ``component_size``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.service.artifacts import ArtifactStore, ProblemArtifact
from repro.service.core import ArtifactService
from repro.service.metrics import ServiceMetrics
from repro.solve.registry import problem_info

__all__ = ["ProblemQueryEngine", "ProblemService", "PROBLEM_QUERY_KINDS"]

# Admissible batch-query kinds per problem; the async front-end reads
# these through ProblemService.query_kinds.
PROBLEM_QUERY_KINDS: Dict[str, Tuple[str, ...]] = {
    "sssp": ("dist", "parent", "reached"),
    "cc": ("label", "same", "component_size"),
}


class ProblemQueryEngine:
    """Vectorized batch queries over one problem artifact's arrays."""

    def __init__(self, artifact: ProblemArtifact, *, backend=None) -> None:
        self.artifact = artifact
        self.backend = backend
        self.kinds = PROBLEM_QUERY_KINDS.get(artifact.problem, ())
        if not self.kinds:
            raise ServiceError(
                f"problem {artifact.problem!r} has no query kinds registered"
            )
        n = artifact.n_vertices
        if artifact.problem == "cc":
            labels = artifact.arrays["labels"]
            # Labels are component-minimum vertex ids, so one bincount
            # indexed by label answers every component_size query.
            self._sizes = (
                np.bincount(labels, minlength=n) if n else np.zeros(0, np.int64)
            )

    def _vertices(self, vs) -> np.ndarray:
        out = np.asarray(vs, dtype=np.int64)
        n = self.artifact.n_vertices
        if out.size and (out.min() < 0 or out.max() >= n):
            raise ServiceError(f"vertex id out of range for {n} vertices")
        return out

    def execute(self, kind: str, us, vs, ws) -> np.ndarray:
        """One vectorized batch: parallel ``us``/``vs``/``ws`` in, answers out."""
        if kind not in self.kinds:
            raise ServiceError(
                f"unknown query kind {kind!r} for problem "
                f"{self.artifact.problem!r}; supported: {', '.join(self.kinds)}"
            )
        arrays = self.artifact.arrays
        u = self._vertices(us)
        if kind == "dist":
            return arrays["dist"][u]
        if kind == "parent":
            return arrays["parent"][u]
        if kind == "reached":
            return np.isfinite(arrays["dist"][u])
        if kind == "label":
            return arrays["labels"][u]
        if kind == "same":
            v = self._vertices(vs)
            return arrays["labels"][u] == arrays["labels"][v]
        # component_size
        return self._sizes[arrays["labels"][u]]


class ProblemService(ArtifactService):
    """Query service over precomputed artifacts of one registered problem."""

    _engine_type = ProblemQueryEngine

    def __init__(
        self,
        store: ArtifactStore | str | Path | None = None,
        *,
        problem: str = "sssp",
        mode: str | None = "auto",
        backend=None,
        metrics: ServiceMetrics | None = None,
        **params,
    ) -> None:
        info = problem_info(problem)  # validates the name eagerly
        unknown = sorted(set(params) - set(info.params))
        if unknown:
            raise ServiceError(
                f"problem {problem!r} takes no parameter(s) {', '.join(unknown)}"
            )
        super().__init__(store, mode=mode, backend=backend, metrics=metrics)
        self.problem = problem
        self.params = dict(params)
        # Admissible kinds — the async front-end's admission table.
        self.query_kinds = PROBLEM_QUERY_KINDS.get(problem, ())

    def _recipe(self) -> dict:
        return {"params": self.params}

    # ------------------------------------------------------------------
    # Queries — scalars or array-likes in, matching shape out
    # ------------------------------------------------------------------
    def _query(self, kind: str, us, vs=None):
        scalar = np.ndim(us) == 0
        us_b = [us] if scalar else us
        vs_b = ([vs] if scalar else vs) if vs is not None else us_b
        out = self._timed(
            kind, lambda: self.ensure_ready().execute(kind, us_b, vs_b, None)
        )
        return self._descalar(out, scalar)

    def dist(self, vs):
        """Shortest-path distance from the solve source (``inf`` unreachable)."""
        return self._query("dist", vs)

    def parent(self, vs):
        """Canonical shortest-path-tree parent (``-1`` for source/unreachable)."""
        return self._query("parent", vs)

    def reached(self, vs):
        """Whether each vertex is reachable from the solve source."""
        return self._query("reached", vs)

    def label(self, vs):
        """Component label (minimum vertex id in the component)."""
        return self._query("label", vs)

    def same_component(self, us, vs):
        """Same-component test; scalar in scalar out, batch in batch out."""
        return self._query("same", us, vs)

    def component_size(self, vs):
        """Number of vertices in each queried vertex's component."""
        return self._query("component_size", vs)
