"""MST query service: compute once, serve many.

The serving layer the ROADMAP's production north star asks for — the
expensive LLP-Prim/LLP-Boruvka solve becomes a cached, content-addressed
artifact behind a batched query front-end:

* :mod:`repro.service.artifacts` — the one content-addressed artifact
  store, for MSFs and registered problems alike (SHA-256 of graph bytes +
  solve recipe; ``.npz`` persistence, MSFs as the forest alone;
  portable MSF JSON dumps).
* :mod:`repro.service.engine` — vectorized batch answers: connectivity,
  component id/size, forest weight, minimax-bottleneck paths, and
  cycle-replacement ("would this edge change the MSF?").
* :mod:`repro.service.core` — :class:`ArtifactService`, the service
  lifecycle shared with the problem services of :mod:`repro.solve`, and
  :class:`MSTService`, the scriptable MST API, with incremental
  mutations through the dynamic-MSF maintainer.
* :mod:`repro.service.server` — :class:`AsyncMSTService`, the asyncio
  front-end with request coalescing, an LRU result cache, and bounded-
  queue backpressure.
* :mod:`repro.service.metrics` — operational metrics (latency
  percentiles, batch histogram, hit rates).

CLI: ``python -m repro serve`` / ``python -m repro query``; see
``docs/service.md``.
"""

from repro.service.artifacts import (
    ArtifactStore,
    MSFArtifact,
    ProblemArtifact,
    graph_fingerprint,
    load_json_artifact,
    load_npz_artifact,
    problem_fingerprint,
    save_json_artifact,
    save_npz_artifact,
    solve_artifact,
)
from repro.service.core import ArtifactService, MSTService, service_for
from repro.service.engine import QUERY_KINDS, QueryEngine
from repro.service.metrics import ServiceMetrics
from repro.service.server import AsyncMSTService

__all__ = [
    "ArtifactService",
    "MSTService",
    "AsyncMSTService",
    "service_for",
    "ArtifactStore",
    "MSFArtifact",
    "ProblemArtifact",
    "QueryEngine",
    "QUERY_KINDS",
    "ServiceMetrics",
    "graph_fingerprint",
    "problem_fingerprint",
    "solve_artifact",
    "save_npz_artifact",
    "load_npz_artifact",
    "save_json_artifact",
    "load_json_artifact",
]
