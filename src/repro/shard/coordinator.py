"""Coordinator: partition → per-process local solves → merge tree.

:func:`sharded_mst` is the subsystem's front door and the first solver in
the repository that escapes the GIL: each shard is solved in a separate
OS process over the shared-memory arena (:mod:`repro.shard.memory`), and
the per-shard forests fold up the binary merge tree
(:mod:`repro.shard.merge`) into the exact rank-canonical global MSF.

The coordinator owns every failure mode so callers never see a hung or
half-done solve:

* **timeouts** — each worker gets ``timeout_s`` per attempt; an overdue
  worker is terminated and treated like a crash;
* **retry with respawn** — a worker that dies (nonzero exit, lost pipe,
  in-worker exception) is respawned up to ``max_retries`` times;
* **in-process fallback** — a shard that keeps failing is solved in this
  process with the same code path (:func:`~repro.shard.worker.solve_shard_local`),
  so the result is identical, just slower;
* **graceful degradation** — when process machinery itself is unavailable
  (no shared memory, fork refused), the whole solve falls back to the
  serial executor;
* **guaranteed cleanup** — the arena is unlinked and stray workers are
  killed in a ``finally``, so no shared-memory segment or zombie process
  survives the call, crash or no crash.

Executors: ``"process"`` forces worker processes, ``"serial"`` forces the
in-process path, and ``"auto"`` (default) uses processes only when the
graph is big enough (``>= min_process_edges`` edges) for the fork + IPC
cost to be worth escaping the GIL.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from repro.errors import BenchmarkError, ServiceError
from repro.graphs.csr import CSRGraph
from repro.mst.base import MSTResult, result_from_edge_ids
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.obs.trace import current_tracer
from repro.shard.filter import boruvka_filter
from repro.shard.memory import ARENA_BACKINGS, SharedEdgeArena
from repro.shard.merge import merge_tree
from repro.shard.partition import PARTITION_STRATEGIES, partition_edges
from repro.shard.worker import ShardFault, ShardTask, run_shard_task, solve_shard_local

__all__ = [
    "sharded_mst",
    "EXECUTORS",
    "DEFAULT_MIN_PROCESS_EDGES",
    "DEFAULT_FILTER_ROUNDS",
]

EXECUTORS = ("auto", "process", "serial")

# Below this edge count the fork + pipe round-trip dominates any
# parallelism win, so "auto" keeps tiny graphs (tests, the differential
# matrix) entirely in process.
DEFAULT_MIN_PROCESS_EDGES = 10_000

# Default Boruvka-filter rounds before partitioned solving; each round at
# least halves the component count, and two rounds typically contract a
# random graph to a few percent of n (see repro.shard.filter).
DEFAULT_FILTER_ROUNDS = 2


def sharded_mst(
    g: CSRGraph,
    *,
    n_shards: int = 4,
    partition: str = "hash",
    algorithm: str = DEFAULT_ALGORITHM,
    mode: str | None = "auto",
    seed: int = 0,
    executor: str = "auto",
    timeout_s: float = 120.0,
    max_retries: int = 2,
    min_process_edges: int = DEFAULT_MIN_PROCESS_EDGES,
    filter_rounds: int = DEFAULT_FILTER_ROUNDS,
    fault: ShardFault | None = None,
    max_concurrent: int | None = None,
    arena_backing: str = "auto",
    spool_dir: str | None = None,
) -> MSTResult:
    """Partition, solve shards (in processes where worthwhile), and merge.

    ``algorithm``/``mode`` name the registered local solver run on each
    shard.  The output is the exact rank-canonical MSF — identical edge
    ids to the Kruskal oracle — for every partition strategy, shard
    count, executor, and filter setting; those knobs only change *where*
    and *how much* work runs.

    ``filter_rounds`` Boruvka rounds run globally before partitioning
    (``0`` disables): the certain MSF edges they pick bypass the shards
    entirely and the contraction labels let every shard drop edges that
    are self-loops of the contracted graph, collapsing the merge's
    candidate volume from ~``m`` toward ~``n`` (see
    :mod:`repro.shard.filter`).

    A single shard *is* the whole graph, so ``n_shards=1`` dispatches the
    local solver directly — no partition, no arena, no merge (``fault``
    has no workers to hit and is ignored).  ``fault`` deterministically
    injects worker crashes/hangs and exists for the checking harness.

    ``max_concurrent`` streams the process executor: at most that many
    shard workers are alive at once, bounding resident memory to the
    arena plus O(m / n_shards) per live worker instead of all shards'
    working sets at once.  ``arena_backing`` picks where the shared edge
    arena lives — ``"shm"`` (/dev/shm), ``"file"`` (a spool file under
    ``spool_dir``, for arenas larger than shared memory), or ``"auto"``
    (file only when /dev/shm cannot hold the arena comfortably).
    """
    if algorithm == "sharded":
        raise BenchmarkError("sharded cannot recurse into itself as a local solver")
    if executor not in EXECUTORS:
        raise BenchmarkError(
            f"unknown executor {executor!r}; available: {', '.join(EXECUTORS)}"
        )
    if partition not in PARTITION_STRATEGIES:
        raise BenchmarkError(
            f"unknown partition strategy {partition!r}; "
            f"available: {', '.join(PARTITION_STRATEGIES)}"
        )
    if n_shards < 1:
        raise BenchmarkError(f"n_shards must be >= 1, got {n_shards}")
    if arena_backing not in ("auto",) + ARENA_BACKINGS:
        raise BenchmarkError(
            f"unknown arena backing {arena_backing!r}; available: "
            + ", ".join(("auto",) + ARENA_BACKINGS)
        )
    if max_concurrent is not None and max_concurrent < 1:
        raise BenchmarkError(f"max_concurrent must be >= 1, got {max_concurrent}")

    tracer = current_tracer()
    t0 = time.perf_counter()
    if n_shards == 1:
        return _solve_direct(g, algorithm, mode, partition, tracer, t0)
    with tracer.span(
        "sharded", "shard", n_shards=n_shards, partition=partition,
        executor=executor, algorithm=algorithm,
        n_vertices=g.n_vertices, n_edges=g.n_edges,
    ) as top:
        chosen_pre = np.empty(0, dtype=np.int64)
        labels = None
        if filter_rounds > 0:
            with tracer.span("shard:filter", "shard", rounds=filter_rounds) as fsp:
                chosen_pre, labels = boruvka_filter(g, filter_rounds)
                fsp.set_attr("chosen", int(chosen_pre.size))
        with tracer.span("shard:partition", "shard"):
            plan = partition_edges(g, n_shards, partition, seed)
        # "auto" only reaches for processes when the graph is big enough
        # to amortize fork/pickle AND the host has CPUs to run them on —
        # on a single-core machine workers just time-slice, so the
        # process overhead is pure loss.
        use_processes = executor == "process" or (
            executor == "auto"
            and g.n_edges >= min_process_edges
            and (os.cpu_count() or 1) > 1
        )

        stats: Dict[str, float] = {
            "shards": n_shards,
            "partition": partition,  # type: ignore[dict-item]
            "balance_ratio": round(plan.balance_ratio, 4),
            "replication_factor": round(plan.replication_factor, 4),
            "retries": 0,
            "fallback_shards": 0,
            "filter_rounds": int(filter_rounds),
            "filter_chosen": int(chosen_pre.size),
        }

        if use_processes:
            try:
                with tracer.span("shard:solve-processes", "shard"):
                    forests = _solve_in_processes(
                        g, plan, algorithm, mode, seed, labels,
                        timeout_s=timeout_s, max_retries=max_retries,
                        fault=fault, stats=stats,
                        max_concurrent=max_concurrent,
                        arena_backing=arena_backing, spool_dir=spool_dir,
                    )
                stats["executor"] = "process"  # type: ignore[assignment]
            except ServiceError:
                # Shared memory / fork unavailable: degrade to the in-process
                # executor rather than failing the solve.
                forests = None
                stats["executor"] = "serial-degraded"  # type: ignore[assignment]
        else:
            forests = None
            stats["executor"] = "serial"  # type: ignore[assignment]
        if forests is None:
            with tracer.span("shard:solve-serial", "shard"):
                forests = [
                    solve_shard_local(
                        g.n_vertices, g.edge_u, g.edge_v, g.edge_w,
                        plan.edge_ids(s), algorithm, mode, labels,
                    )
                    for s in range(n_shards)
                ]

        stats["candidate_edges"] = int(sum(f.size for f in forests))
        t_merge = time.perf_counter()
        with tracer.span("shard:merge", "shard",
                         candidate_edges=stats["candidate_edges"]):
            merged = merge_tree(g, forests, labels)
            # MSF(G) = filter-chosen ∪ MSF(G / labels); both halves are
            # sorted and disjoint, so one concat + sort restores the
            # rank-canonical ascending id order.
            if chosen_pre.size:
                msf = np.sort(np.concatenate([chosen_pre, merged]))
            else:
                msf = merged
        stats["merge_seconds"] = round(time.perf_counter() - t_merge, 6)
        stats["total_seconds"] = round(time.perf_counter() - t0, 6)
        top.set_attr("effective_executor", stats["executor"])
        return result_from_edge_ids(g, msf, stats=stats)


def _solve_direct(
    g: CSRGraph,
    algorithm: str,
    mode: str | None,
    partition: str,
    tracer,
    t0: float,
) -> MSTResult:
    """The ``n_shards=1`` fast path: one shard is just the local solver.

    Partitioning, the shared-memory arena, and the merge would each
    traverse the full edge list to reassemble the graph the caller
    already holds — measured at ~90 ms of pure overhead on the standard
    100k-edge bench — so the single-shard solve goes straight to the
    registry and re-labels the stats to the sharded shape.
    """
    from repro.mst.registry import get_algorithm

    with tracer.span(
        "sharded", "shard", n_shards=1, partition=partition,
        executor="direct", algorithm=algorithm,
        n_vertices=g.n_vertices, n_edges=g.n_edges,
    ) as top:
        with tracer.span("shard:solve-direct", "shard"):
            inner = get_algorithm(algorithm, mode=mode)(g)
        edge_ids = np.sort(np.asarray(inner.edge_ids, dtype=np.int64))
        stats: Dict[str, float] = {
            "shards": 1,
            "partition": partition,  # type: ignore[dict-item]
            "balance_ratio": 1.0,
            "replication_factor": 1.0,
            "retries": 0,
            "fallback_shards": 0,
            "filter_rounds": 0,
            "filter_chosen": 0,
            "executor": "direct",  # type: ignore[dict-item]
            "candidate_edges": int(edge_ids.size),
            "merge_seconds": 0.0,
            "total_seconds": round(time.perf_counter() - t0, 6),
        }
        top.set_attr("effective_executor", "direct")
        return result_from_edge_ids(g, edge_ids, stats=stats)


def _choose_backing(nbytes: int) -> str:
    """Resolve ``arena_backing="auto"``: shm while it comfortably fits.

    ``/dev/shm`` is RAM (typically capped at half of it); an arena taking
    more than half the *free* space there would crowd out everything else
    on the box, so past that the arena spools to an ordinary file and
    lets the page cache decide what stays resident.
    """
    try:
        st = os.statvfs("/dev/shm")
        free = st.f_bavail * st.f_frsize
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return "file"
    return "shm" if nbytes <= free // 2 else "file"


def _solve_in_processes(
    g: CSRGraph,
    plan,
    algorithm: str,
    mode: str | None,
    seed: int,
    labels: np.ndarray | None,
    *,
    timeout_s: float,
    max_retries: int,
    fault: ShardFault | None,
    stats: Dict[str, float],
    max_concurrent: int | None = None,
    arena_backing: str = "auto",
    spool_dir: str | None = None,
) -> List[np.ndarray]:
    """Run every shard as a worker-pool job; retry, time out, fall back.

    ``labels`` (Boruvka-filter contraction roots) ride in the arena so
    workers get them zero-copy alongside the edge arrays.  Raises
    :class:`~repro.errors.ServiceError` only when the process machinery
    itself is unusable — the pool cannot spawn workers or is saturated
    (caller degrades to serial); individual job failures are retried
    and, past ``max_retries``, solved in process so the solve always
    completes.

    Each solve runs its own :class:`~repro.platform.pool.WorkerPool`,
    sized to the concurrency limit and torn down around the solve.
    Retry accounting stays here, not in the pool: each attempt is
    submitted with the pool's retries off and an incremented
    :class:`~repro.shard.worker.ShardTask` attempt, which is what keeps
    the injected-fault semantics (``fault.attempts``) exact.

    ``max_concurrent`` caps in-flight shard jobs: remaining shards wait
    and are submitted as slots free up, so peak resident memory is the
    arena plus ``max_concurrent`` shard working sets — the streamed-solve
    mode paper-scale graphs need.
    """
    from collections import deque
    from concurrent.futures import FIRST_COMPLETED
    from concurrent.futures import wait as future_wait

    from repro.errors import PoolError, PoolUnavailableError
    from repro.platform.pool import WorkerPool

    tracer = current_tracer()
    backing = arena_backing
    if backing == "auto":
        payload = g.n_edges * 24 + (g.n_vertices * 8 if labels is not None else 0)
        backing = _choose_backing(payload)
    try:
        arena = SharedEdgeArena.publish(
            g.n_vertices, g.edge_u, g.edge_v, g.edge_w, labels,
            backing=backing, spool_dir=spool_dir,
        )
    except (ServiceError, OSError, ValueError) as exc:
        raise ServiceError(f"process executor unavailable: {exc}") from exc
    stats["arena_backing"] = backing  # type: ignore[assignment]

    limit = plan.n_shards if max_concurrent is None else max(1, int(max_concurrent))
    try:
        pool = WorkerPool(
            max_workers=min(limit, plan.n_shards),
            max_pending=plan.n_shards * (max_retries + 1) + 1,
            name="shard",
        )
    except OSError as exc:  # reactor thread refused
        arena.close()
        raise ServiceError(f"cannot start shard worker pool: {exc}") from exc
    forests: Dict[int, np.ndarray] = {}
    fallback: List[int] = []
    inflight: Dict[object, tuple] = {}  # future -> (shard, attempt)

    def _submit(shard: int, attempt: int) -> None:
        task = ShardTask(
            arena=arena.spec, shard=shard, n_shards=plan.n_shards,
            strategy=plan.strategy, seed=seed,
            algorithm=algorithm, mode=mode, attempt=attempt, fault=fault,
            traced=tracer.enabled,
        )
        future = pool.submit(
            run_shard_task, task, timeout_s=timeout_s,
            label=f"shard:{shard}:a{attempt}",
        )
        inflight[future] = (shard, attempt)

    def _failed(shard: int, attempt: int) -> None:
        stats["retries"] += 1
        if attempt + 1 <= max_retries:
            _submit(shard, attempt + 1)
        else:
            stats["retries"] -= 1  # the terminal failure is a fallback, not a retry
            stats["fallback_shards"] += 1
            fallback.append(shard)

    try:
        pending = deque(range(plan.n_shards))
        while pending and len(inflight) < limit:
            _submit(pending.popleft(), 0)
        while inflight:
            done, _ = future_wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                shard, attempt = inflight.pop(future)
                try:
                    forest, _seconds, span_payload = future.result()
                except PoolUnavailableError as exc:
                    # Machinery, not a job, failed: degrade the whole
                    # solve to the serial executor.
                    raise ServiceError(f"cannot run shard workers: {exc}") from exc
                except PoolError:
                    # Crash, hang-reap, or in-worker exception: this
                    # attempt failed; retry accounting decides what's next.
                    _failed(shard, attempt)
                    continue
                forests[shard] = np.asarray(forest, dtype=np.int64)
                # Workers running under tracing ship their span payload
                # back with the forest; merge it into this process's
                # timeline so one trace covers every process.
                if span_payload is not None:
                    tracer.adopt(span_payload)
            # Submit queued shards into freed slots (streamed mode).
            while pending and len(inflight) < limit:
                _submit(pending.popleft(), 0)
    except PoolError as exc:
        # submit() itself rejected (pool saturated): the solve still
        # completes, just without processes.
        raise ServiceError(f"shard worker pool unavailable: {exc}") from exc
    finally:
        pool.close()
        arena.close()

    for shard in fallback:
        forests[shard] = solve_shard_local(
            g.n_vertices, g.edge_u, g.edge_v, g.edge_w,
            plan.edge_ids(shard), algorithm, mode, labels,
        )
    return [forests[s] for s in range(plan.n_shards)]
