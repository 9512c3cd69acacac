"""Background rebuild scheduling — re-solve dirty graphs off the request path.

A mutated graph is served immediately by the incremental repair
(:class:`~repro.mst.dynamic.DynamicMSF` swaps one edge in O(n)), but the
repaired artifact's index was rebuilt inline and its provenance is the
mutation stream, not a from-scratch solve.  The platform therefore marks
the entry *dirty* and hands ``(tenant, graph, version)`` to the
:class:`RebuildScheduler`, which re-solves in a pool worker — billed to
the owning tenant under the same fair-share
:class:`~repro.platform.pool.WorkerPool` the sharded coordinator uses —
and installs the result through
:meth:`~repro.platform.registry.GraphPlatform.complete_rebuild`'s
version-checked atomic swap.

Coalescing is by identity: a second mutation while a rebuild for the
same ``tenant/graph`` is queued does not enqueue again — the pending job
picks up the *latest* snapshot when it actually starts, so a burst of
mutations costs one re-solve.  A mutation racing *past* a snapshot
already taken bumps the version instead, and the finished-but-stale
result is dropped at swap time.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Tuple

import numpy as np

__all__ = ["rebuild_artifact_job", "RebuildScheduler"]


def rebuild_artifact_job(spec: dict):
    """Re-solve one graph from raw arrays; runs inside a pool worker.

    ``spec`` carries the edge arrays plus the solve recipe
    (``problem``/``algorithm``/``mode``/``params``) captured by
    :meth:`~repro.platform.registry.GraphPlatform.snapshot_for_rebuild`.
    Returns the finished artifact from
    :func:`~repro.service.artifacts.solve_artifact`, the store's own
    solve.  Deliberately single-process inside: rebuilds are the
    *background* load, so they take one worker slot each rather than
    fanning out shards from within a shard-pool worker.
    """
    from repro.graphs.csr import CSRGraph
    from repro.graphs.edgelist import EdgeList
    from repro.service.artifacts import solve_artifact

    el = EdgeList.from_arrays(
        int(spec["n_vertices"]),
        np.asarray(spec["edge_u"]),
        np.asarray(spec["edge_v"]),
        np.asarray(spec["edge_w"]),
        dedup=False,
    )
    return solve_artifact(
        CSRGraph.from_edgelist(el), spec["problem"], spec["mode"],
        algorithm=spec["algorithm"], params=spec.get("params"),
    )


class RebuildScheduler:
    """Serialised background re-solver over the platform's worker pool.

    One daemon thread drains a deduplicated FIFO of dirty
    ``(tenant, graph)`` names; each job snapshots the entry's current
    arrays, solves in a pool worker (``tenant=`` billing keeps rebuilds
    inside the owner's fair share), and installs via the platform's
    version-checked swap.  Failures are counted, never raised — the
    entry simply stays dirty and the incremental artifact keeps serving.
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self._cv = threading.Condition()
        self._queue: deque[Tuple[str, str, int]] = deque()
        self._pending: set[Tuple[str, str]] = set()
        self._stats = {
            "scheduled": 0, "coalesced": 0, "swapped": 0, "persisted": 0,
            "stale": 0, "discarded": 0, "failed": 0,
        }
        self._stop = False
        self._idle = threading.Event()
        self._idle.set()
        self._thread = threading.Thread(
            target=self._run, name="rebuild-scheduler", daemon=True
        )
        self._thread.start()

    def schedule(self, tenant: str, name: str, version: int) -> bool:
        """Enqueue a re-solve; False when one is already pending (coalesced)."""
        key = (tenant, name)
        with self._cv:
            if self._stop:
                return False
            if key in self._pending:
                self._stats["coalesced"] += 1
                return False
            self._pending.add(key)
            self._queue.append((tenant, name, version))
            self._stats["scheduled"] += 1
            self._idle.clear()
            self._cv.notify()
            return True

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stop:
                    self._idle.set()
                    self._cv.wait()
                if self._stop:
                    self._idle.set()
                    return
                tenant, name, _version = self._queue.popleft()
                self._pending.discard((tenant, name))
            # Outside the lock: snapshot, solve, swap.  The snapshot's
            # version (not the scheduled one) guards the install, so the
            # coalesced "latest state" semantics hold.
            try:
                snap = self.platform.snapshot_for_rebuild(tenant, name)
                if snap is None:
                    outcome = "discarded"
                else:
                    spec, version = snap
                    fut = self.platform.pool.submit(
                        rebuild_artifact_job, spec, tenant=tenant,
                        label=f"rebuild:{tenant}/{name}",
                    )
                    artifact = fut.result()
                    outcome = self.platform.complete_rebuild(
                        tenant, name, version, artifact
                    )
            except Exception:
                outcome = "failed"
            with self._cv:
                self._stats[outcome] = self._stats.get(outcome, 0) + 1

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Block until the queue is empty and the worker idle (for tests)."""
        return self._idle.wait(timeout_s)

    def stats(self) -> dict:
        """Scheduling/outcome counters as a plain dict."""
        with self._cv:
            out = dict(self._stats)
            out["queued"] = len(self._queue)
            return out

    def stop(self) -> None:
        """Stop the scheduler thread; queued-but-unstarted work is dropped."""
        with self._cv:
            self._stop = True
            self._queue.clear()
            self._pending.clear()
            self._cv.notify_all()
        self._thread.join(timeout=10.0)
