"""`GraphPlatform` — many named graphs, many tenants, one artifact store.

The single-graph services (:class:`~repro.service.core.MSTService`,
:class:`~repro.solve.service.ProblemService`) promoted to a resident
platform: a registry maps ``tenant/graph`` names to content-addressed
artifacts and live service instances, and admission control enforces
each tenant's :class:`~repro.platform.quota.TenantQuota`.  A graph asks
for the sharded solver by name (``algorithm="sharded"``), like any
other.

Residency is two-tier, mirroring the artifact design: *registration*
(the entry, its graph arrays, its on-disk artifact) is bounded by the
hard ``max_graphs`` quota, while *residency* (the built query engine —
the expensive index) is bounded by the soft ``resident_budget`` and
managed LRU: the least-recently-used engine is dropped via
``invalidate()``, and the next query rebuilds it warm: from the store,
or, for a mutated entry, from the repair its service keeps.  Eviction
therefore never loses data and never rejects — it trades the evicted
tenant's next-query latency for everyone else's memory.

Mutations (MST entries only) are the service's inline
:class:`~repro.mst.dynamic.DynamicMSF` repair.  A write saves nothing:
the mutated version is packaged and saved to the store when something
reads its artifact or graph, and the store keeps at most one mutated
version per entry.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import QuotaExceededError, ServiceError
from repro.graphs.csr import CSRGraph
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.obs.trace import span as _obs_span
from repro.platform.quota import (
    DEFAULT_QUOTA,
    TenantQuota,
    TokenBucket,
    reject_graphs,
    reject_queue,
    reject_rate,
)
from repro.service.core import service_for
from repro.service.metrics import ServiceMetrics

__all__ = ["GraphEntry", "TenantState", "GraphPlatform"]


class GraphEntry:
    """One named graph's registration inside a tenant."""

    __slots__ = ("tenant", "name", "problem", "algorithm", "mode",
                 "params", "source", "service", "last_used")

    def __init__(self, tenant: str, name: str, *, problem: str,
                 algorithm: str, mode: Optional[str],
                 params: dict, source: Optional[dict], service) -> None:
        self.tenant = tenant
        self.name = name
        self.problem = problem
        self.algorithm = algorithm
        self.mode = mode
        self.params = params
        self.source = source or {}
        self.service = service
        self.last_used = 0

    @property
    def graph(self) -> CSRGraph:
        """The served graph, including every mutation applied so far."""
        return self.service.graph

    @property
    def resident(self) -> bool:
        """Whether the entry's query engine is currently built."""
        return getattr(self.service, "_engine", None) is not None

    def to_dict(self) -> dict:
        """JSON-able row for ``repro tenant stats``."""
        return {
            "problem": self.problem,
            "n_vertices": int(self.graph.n_vertices),
            "n_edges": int(self.graph.n_edges),
            "resident": self.resident,
        }


class TenantState:
    """One tenant: its quota, token bucket, graphs, and counters."""

    def __init__(self, name: str, quota: TenantQuota, *, clock) -> None:
        self.name = name
        self.quota = quota
        self.bucket: TokenBucket = quota.make_bucket(clock=clock)
        self.graphs: Dict[str, GraphEntry] = {}
        self.metrics = ServiceMetrics()
        self.inflight = 0
        self.admitted = 0
        self.rejected_rate = 0
        self.rejected_queue = 0
        self.evictions = 0

    def to_dict(self) -> dict:
        """JSON-able summary for ``repro tenant stats``."""
        return {
            "quota": self.quota.to_dict(),
            "graphs": {name: e.to_dict() for name, e in sorted(self.graphs.items())},
            "inflight": self.inflight,
            "admitted": self.admitted,
            "rejected": {"rate": self.rejected_rate, "queue": self.rejected_queue},
            "evictions": self.evictions,
        }


class GraphPlatform:
    """The multi-tenant registry: named graphs over one artifact store.

    ``root`` is the platform's state directory — the one
    content-addressed artifact store lives at ``<root>/store/`` and holds
    every tenant's MSF and problem artifacts (two tenants registering
    byte-identical graphs share one artifact); ``None`` keeps everything
    in memory.  ``clock`` drives the tenants' token buckets.
    """

    def __init__(self, root: str | Path | None = None, *,
                 clock=time.monotonic) -> None:
        self.root = Path(root) if root is not None else None
        self._clock = clock
        self._lock = threading.RLock()
        self._tenants: Dict[str, TenantState] = {}
        self._seq = itertools.count(1)
        self._store = None
        if self.root is not None:
            from repro.service.artifacts import ArtifactStore

            self._store = ArtifactStore(self.root / "store")

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def add_tenant(self, name: str, quota: TenantQuota | None = None) -> TenantState:
        """Register a tenant; rejects duplicates and empty names."""
        if not name or "/" in name:
            raise ServiceError(f"invalid tenant name {name!r}")
        with self._lock:
            if name in self._tenants:
                raise ServiceError(f"tenant {name!r} already exists")
            state = TenantState(
                name, quota if quota is not None else DEFAULT_QUOTA,
                clock=self._clock,
            )
            self._tenants[name] = state
            return state

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant and every graph it registered."""
        with self._lock:
            if self._tenants.pop(name, None) is None:
                raise ServiceError(f"unknown tenant {name!r}")

    def tenant(self, name: str) -> TenantState:
        """Look up one tenant's state; unknown names raise."""
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                raise ServiceError(f"unknown tenant {name!r}")
            return state

    def tenants(self) -> List[str]:
        """Registered tenant names, sorted."""
        with self._lock:
            return sorted(self._tenants)

    # ------------------------------------------------------------------
    # Graphs
    # ------------------------------------------------------------------
    def add_graph(
        self,
        tenant: str,
        name: str,
        g: CSRGraph,
        *,
        problem: str = "mst",
        algorithm: str = DEFAULT_ALGORITHM,
        mode: Optional[str] = "auto",
        source_spec: Optional[dict] = None,
        **params,
    ) -> GraphEntry:
        """Register ``tenant/name`` and solve (or warm-load) its artifact.

        ``problem`` is ``"mst"`` or any registered problem name (the
        entry then serves that problem's query kinds); an MST entry
        solves with ``algorithm``.  Rejects past the
        tenant's ``max_graphs`` quota with a structured
        :class:`~repro.errors.QuotaExceededError`; within it, the solve
        runs immediately — cold builds are an *admin* operation, kept off
        the request path by design.
        """
        if not name or "/" in name:
            raise ServiceError(f"invalid graph name {name!r}")
        with self._lock:
            state = self.tenant(tenant)
            if name in state.graphs:
                raise ServiceError(f"graph {tenant}/{name} already exists")
            limit = state.quota.max_graphs
            if limit > 0 and len(state.graphs) >= limit:
                raise reject_graphs(tenant, len(state.graphs), limit)
            with _obs_span("platform:add_graph", "platform", tenant=tenant,
                           graph=name, problem=problem):
                service = service_for(
                    problem, self._store, mode=mode, metrics=state.metrics,
                    params=params, algorithm=algorithm,
                )
                service.load_graph(g)
            entry = GraphEntry(
                tenant, name, problem=problem, algorithm=algorithm,
                mode=mode, params=params, source=source_spec,
                service=service,
            )
            entry.last_used = next(self._seq)
            state.graphs[name] = entry
            self._enforce_residency_locked(state)
            return entry

    def remove_graph(self, tenant: str, name: str) -> None:
        """Drop one graph registration (its artifact file stays cached)."""
        with self._lock:
            state = self.tenant(tenant)
            if state.graphs.pop(name, None) is None:
                raise ServiceError(f"unknown graph {tenant}/{name}")

    def entry(self, tenant: str, name: str) -> GraphEntry:
        """Look up one graph entry; unknown names raise."""
        with self._lock:
            state = self.tenant(tenant)
            e = state.graphs.get(name)
            if e is None:
                raise ServiceError(f"unknown graph {tenant}/{name}")
            return e

    def get_service(self, tenant: str, name: str):
        """The live service for ``tenant/name`` (LRU-touched).

        An evicted entry re-materializes lazily: its next query rebuilds
        the engine warm from the content-addressed store via the
        service's own ``ensure_ready``.  Residency is re-enforced here so
        a reload can in turn evict someone else's least-recently-used
        engine.
        """
        with self._lock:
            e = self.entry(tenant, name)
            e.last_used = next(self._seq)
            self._enforce_residency_locked(self._tenants[tenant], keep=e)
            return e.service

    def _enforce_residency_locked(self, state: TenantState,
                                  keep: GraphEntry | None = None) -> None:
        """Evict LRU engines past the tenant's soft residency budget."""
        budget = state.quota.resident_budget
        if budget <= 0:
            return
        resident = [e for e in state.graphs.values() if e.resident]
        resident.sort(key=lambda e: e.last_used)
        while len(resident) > budget:
            victim = resident.pop(0)
            if victim is keep:
                continue
            victim.service.invalidate()
            state.evictions += 1

    # ------------------------------------------------------------------
    # Admission control (the request path)
    # ------------------------------------------------------------------
    def admit(self, tenant: str):
        """Admit one request for ``tenant``; returns a release callable.

        Raises the structured :class:`~repro.errors.QuotaExceededError`
        when the tenant's token bucket is drained (``reason="rate"``,
        with ``retry_after_s``) or its in-flight window is full
        (``reason="queue"``).  The caller must invoke the returned
        callable exactly once when the request finishes (any outcome).
        """
        with self._lock:
            state = self.tenant(tenant)
            retry = state.bucket.try_take()
            if retry is not None:
                state.rejected_rate += 1
                state.metrics.record_rejected()
                raise reject_rate(tenant, retry)
            depth = state.quota.max_queue_depth
            if depth > 0 and state.inflight >= depth:
                state.rejected_queue += 1
                state.metrics.record_rejected()
                raise reject_queue(tenant, state.inflight, depth)
            state.inflight += 1
            state.admitted += 1

        released = threading.Event()

        def release() -> None:
            if released.is_set():
                return
            released.set()
            with self._lock:
                state.inflight -= 1

        return release

    def admission(self, tenant: str):
        """Context-manager sugar over :meth:`admit`."""
        import contextlib

        @contextlib.contextmanager
        def _ctx():
            release = self.admit(tenant)
            try:
                yield
            finally:
                release()

        return _ctx()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def mutate(self, tenant: str, name: str, op: str, u: int, v: int,
               w: float | None = None):
        """Apply one edge mutation; returns the edge id of an insert.

        The service's incremental repair (``DynamicMSF``) serves the
        mutated graph at once; its artifact reaches the store, when the
        platform has one, on the first read of the entry's artifact or
        graph.  Mutations are an MST capability; problem entries reject
        them.
        """
        with self._lock:
            e = self.entry(tenant, name)
            if e.problem != "mst":
                raise ServiceError(
                    f"graph {tenant}/{name} serves {e.problem!r}; "
                    "mutations need an MST entry"
                )
            with _obs_span("platform:mutate", "platform", tenant=tenant,
                           graph=name, op=op):
                if op == "insert":
                    return e.service.insert_edge(int(u), int(v), w)
                if op == "delete":
                    e.service.delete_edge(int(u), int(v), w)
                    return None
                raise ServiceError(f"unknown mutation {op!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, tenant: str | None = None) -> dict:
        """JSON-able platform counters (one tenant, or all)."""
        with self._lock:
            if tenant is not None:
                return self.tenant(tenant).to_dict()
            return {
                "tenants": {n: s.to_dict() for n, s in sorted(self._tenants.items())},
            }

    def metrics_providers(self) -> dict:
        """Named obs providers, one per tenant.

        Register them on a :class:`~repro.obs.MetricsRegistry` (the CLI's
        ``--trace`` path does) so the flat metrics snapshot carries
        per-tenant serving percentiles next to the span timeline.
        """
        from repro.obs.registry import service_metrics_provider

        with self._lock:
            return {
                f"platform.tenant.{name}": service_metrics_provider(state.metrics)
                for name, state in sorted(self._tenants.items())
            }
