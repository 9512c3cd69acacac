"""Per-shard solver: runs in a worker OS process over the shared arena.

A worker receives a small picklable :class:`ShardTask` (arena spec, shard
index, strategy, algorithm name) — never edge data.  It attaches the
shared arrays zero-copy, recomputes *its own* shard membership with the
same deterministic assignment function the coordinator used, builds the
shard subgraph in the **global vertex space**, solves it with any
registered algorithm × mode, and sends back only the global edge ids of
its local forest (at most ``n - 1`` int64 values).

Correctness note on local tie-breaking: the shard edge ids are taken in
ascending global order, so the shard subgraph's ``(weight, local index)``
ranks order edges exactly as the restriction of the global ``(weight,
edge id)`` order.  Each local forest is therefore the rank-canonical MSF
of its shard, which is what makes the merge tree reproduce the global
rank-canonical MSF edge for edge (see :mod:`repro.shard.merge`).

The same solve path is callable in process (:func:`solve_shard_local`) —
that is the coordinator's serial executor and its fallback when a worker
keeps dying.  Fault injection for the checking harness is explicit: a
:class:`ShardTask` may carry a fault that makes the worker ``os._exit``
or hang mid-solve on selected attempts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.shard.memory import ArenaSpec, attach_readonly, labels_view
from repro.shard.partition import shard_edge_ids

__all__ = [
    "ShardFault",
    "ShardTask",
    "solve_shard_local",
    "run_shard_task",
]

# Above this arena edge count a worker evaluates its shard membership in
# chunks (one full-size assignment array per worker would multiply the
# graph's footprint by the worker count); below it, one vectorized pass
# is cheaper.  Chunks of 2M edges keep each worker's transient memory in
# the tens of megabytes.
_MEMBERSHIP_FULL_SCAN_MAX_EDGES = 1 << 22
_MEMBERSHIP_CHUNK_EDGES = 1 << 21


@dataclass(frozen=True)
class ShardFault:
    """Deterministic worker fault for the checking harness.

    ``kind`` is ``"exit"`` (die with a nonzero status mid-solve) or
    ``"hang"`` (sleep past any reasonable timeout); the fault fires on
    ``shard`` for every attempt strictly below ``attempts`` — so
    ``attempts=1`` kills the first try and lets the retry succeed.
    """

    shard: int
    kind: str = "exit"
    attempts: int = 1


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, small enough to pickle cheaply.

    ``traced`` asks the worker to record observability spans and ship
    them back with its forest (a fourth tuple element); the coordinator
    adopts them into the caller's tracer so one timeline covers every
    process.
    """

    arena: ArenaSpec
    shard: int
    n_shards: int
    strategy: str
    seed: int
    algorithm: str
    mode: Optional[str]
    attempt: int = 0
    fault: Optional[ShardFault] = None
    traced: bool = False


def _shard_subgraph(
    n_vertices: int,
    eu: np.ndarray,
    ev: np.ndarray,
    w: np.ndarray,
) -> CSRGraph:
    """The shard's CSR subgraph in the global vertex space.

    ``eu``/``ev``/``w`` are the shard's own edges, already sliced in
    ascending-global-id order; ``dedup=False`` keeps parallel edges (each
    shard must solve exactly the edges it owns) and the slicing order
    aligns local weight ranks with the global total order.  The endpoints
    may already be contracted (label-space) — contraction labels are
    component roots in ``[0, n)``, so the global vertex space still fits.
    """
    edges = EdgeList.from_arrays(n_vertices, eu, ev, w, dedup=False)
    return CSRGraph.from_edgelist(edges)


def _kruskal_over_ids(
    n_vertices: int,
    eu: np.ndarray,
    ev: np.ndarray,
    w: np.ndarray,
    ids: np.ndarray,
) -> np.ndarray:
    """Kruskal over the shard's edges without building a shard subgraph.

    ``eu``/``ev``/``w`` are aligned positionally with ``ids``.  A stable
    sort of the shard's weights reproduces the restriction of the global
    ``(weight, edge_id)`` rank order (``ids`` is ascending), so this scans
    edges in exactly the order the full-graph oracle would — but skips
    the CSR construction a registry solver needs, which is most of a
    shard solve's cost.  Early-stops once the forest spans.
    """
    from repro.structures.union_find import UnionFind

    order = np.argsort(w, kind="stable")
    eu_l = eu[order].tolist()
    ev_l = ev[order].tolist()
    uf = UnionFind(int(n_vertices))
    chosen = []
    unions = 0
    target = int(n_vertices) - 1
    for i, e in enumerate(ids[order].tolist()):
        if uf.union(eu_l[i], ev_l[i]):
            chosen.append(e)
            unions += 1
            if unions == target:
                break
    return np.asarray(sorted(chosen), dtype=np.int64)


def solve_shard_local(
    n_vertices: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    ids: np.ndarray,
    algorithm: str = DEFAULT_ALGORITHM,
    mode: str | None = "auto",
    labels: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve one shard in the current process; global MSF-candidate ids.

    Shared by worker processes (over arena views) and the serial executor
    (over the graph's own arrays) so both paths are byte-identical.
    ``kruskal`` takes a subgraph-free fast path over the shard's ids;
    any other registered algorithm, the default included, runs over the
    shard's own CSR graph.

    ``labels`` (from the coordinator's
    :func:`~repro.shard.filter.boruvka_filter` pre-pass) contracts the
    solve: edges whose endpoints share a label are self-loops of the
    contracted graph — excluded from its MSF by the cycle property — and
    are dropped before any work; the survivors are solved over their
    label-space endpoints, so the local forest is bounded by the
    contracted component count rather than the shard's edge count.
    """
    if ids.size == 0:
        return np.empty(0, dtype=np.int64)
    eu, ev, w = edge_u[ids], edge_v[ids], edge_w[ids]
    if labels is not None:
        eu, ev = labels[eu], labels[ev]
        keep = eu != ev
        ids, eu, ev, w = ids[keep], eu[keep], ev[keep], w[keep]
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
    if algorithm == "kruskal" and mode in (None, "loop", "auto"):
        return _kruskal_over_ids(n_vertices, eu, ev, w, ids)
    from repro.mst.registry import get_algorithm

    local = _shard_subgraph(n_vertices, eu, ev, w)
    result = get_algorithm(algorithm, mode=mode)(local)
    return ids[np.asarray(result.edge_ids, dtype=np.int64)]


def _maybe_fault(task: ShardTask) -> None:
    """Fire the injected fault when this attempt is in its blast radius."""
    fault = task.fault
    if fault is None or fault.shard != task.shard or task.attempt >= fault.attempts:
        return
    if fault.kind == "hang":
        time.sleep(3600.0)
    # "exit": simulate a hard crash — no cleanup handlers, no exception.
    os._exit(87)


def run_shard_task(task: ShardTask):
    """Solve one :class:`ShardTask` in this process over its shared arena.

    The pool-callable job body: the coordinator submits exactly this
    function to the shared :class:`~repro.platform.pool.WorkerPool`, one
    call per shard attempt.  Returns ``(edge_ids, seconds, span_payload)``
    where ``span_payload`` is ``None`` unless ``task.traced`` — the
    coordinator adopts it into the caller's tracer so one timeline covers
    every process.  The arena is attached read-only and only *closed* on
    the way out — unlinking is the coordinator's job alone.
    """
    from repro.obs.trace import NULL_TRACER, Tracer, use_tracer

    tracer = Tracer() if task.traced else NULL_TRACER
    shm = None
    try:
        t0 = time.perf_counter()
        with use_tracer(tracer), tracer.span(
            f"shard:worker:{task.shard}", "shard",
            shard=task.shard, attempt=task.attempt, algorithm=task.algorithm,
        ):
            with tracer.span("shard:attach", "shard"):
                edge_u, edge_v, edge_w, shm = attach_readonly(task.arena)
                labels = labels_view(shm.buf, task.arena)
                if labels is not None:
                    labels.setflags(write=False)
                # Shard membership is over ALL edges (the deterministic
                # assignment the coordinator used); filter-dead edges are
                # dropped inside the solve, after the labels gather.
                ids = shard_edge_ids(
                    task.arena.n_vertices, edge_u, edge_v,
                    task.n_shards, task.shard, task.strategy, task.seed,
                    chunk_edges=(
                        _MEMBERSHIP_CHUNK_EDGES
                        if task.arena.n_edges > _MEMBERSHIP_FULL_SCAN_MAX_EDGES
                        else None
                    ),
                )
            _maybe_fault(task)
            with tracer.span("shard:solve", "shard", n_edges=int(ids.size)) as sp:
                forest = solve_shard_local(
                    task.arena.n_vertices, edge_u, edge_v, edge_w, ids,
                    task.algorithm, task.mode, labels,
                )
                sp.set_attr("forest_edges", int(forest.size))
        payload = tracer.to_payload() if task.traced else None
        return np.ascontiguousarray(forest), time.perf_counter() - t0, payload
    finally:
        if shm is not None:
            try:
                shm.close()
            except Exception:  # pragma: no cover - defensive
                pass
