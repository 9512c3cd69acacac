"""Soak harness: scenario load with fault families injected *under* it.

The checking layer (:mod:`repro.checking.faults`) proves each resilience
claim in isolation — corrupt an artifact, crash a shard worker — against
an otherwise idle service.  Production faults do not wait for idleness.
:func:`run_soak` composes the two subsystems: an open-loop scenario
drives sustained traffic at the async front-end while faults fire
mid-run, and the harness then asserts the documented degradations held
*with traffic in flight*:

* ``artifact-corruption`` — the served version's ``.npz`` file is
  corrupted (seeded kind from :data:`repro.checking.faults.FAULT_KINDS`)
  and the engine invalidated mid-load; the batch worker must rebuild
  inline, a second service loading the current graph from the same
  store must count the corruption and serve the same total, and the
  post-run forest must match a fresh Kruskal solve of the current graph;
* ``worker-crash`` / ``worker-hang`` — a sharded solve with a seeded
  :class:`~repro.shard.ShardFault` (worker ``os._exit`` / hang-and-reap)
  runs concurrently with the load in a thread; its forest must equal the
  Kruskal oracle and the retry accounting must show the fault was hit;
* always — :func:`repro.shard.leaked_segments` must report no new
  shared-memory segment once the dust settles.

The harness returns the full SLO report dict (see
:func:`repro.load.report.build_soak_report`), including the replay
determinism proof: the scenario is expanded twice and both expansions
must hash identically.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ServiceError
from repro.load.generator import LoadResult, run_events
from repro.load.record import Recorder, request_stream_hash
from repro.load.report import build_soak_report
from repro.load.scenarios import Scenario, generate_events, get_scenario
from repro.service.artifacts import ArtifactStore
from repro.service.core import MSTService
from repro.service.server import AsyncMSTService

__all__ = ["FAULT_FAMILIES", "FaultOutcome", "run_soak"]

FAULT_FAMILIES = ("artifact-corruption", "worker-crash", "worker-hang")


@dataclass
class FaultOutcome:
    """Verdict for one fault family injected during the soak."""

    family: str
    injected: int
    ok: bool
    detail: str = ""

    def to_dict(self) -> Dict:
        """JSON-able form for the soak report."""
        return {"family": self.family, "injected": self.injected,
                "ok": self.ok, "detail": self.detail}


async def _inject_artifact_corruption(
    svc: MSTService, store: ArtifactStore, at_s: Sequence[float], seed: int,
    outcome: FaultOutcome,
) -> None:
    """Corrupt the served version's file + invalidate the engine at each offset.

    Reading ``svc.artifact`` persists a mutated version first.  A mutated
    service rebuilds its engine without reading the store, so the file is
    read back by a second service loading ``svc.graph``: it must count
    the corruption, re-solve, and serve ``svc``'s total.  Only an
    injection that corrupted a file counts.
    """
    from repro.checking.faults import FAULT_KINDS, _same_content, corrupt_artifact

    start = asyncio.get_running_loop().time()
    for i, offset in enumerate(at_s):
        delay = start + offset - asyncio.get_running_loop().time()
        if delay > 0:
            await asyncio.sleep(delay)
        kind = FAULT_KINDS[i % len(FAULT_KINDS)]
        try:
            served = svc.artifact
            path = store.path_for(served.fingerprint)
            if not path.exists():
                continue
            corrupt_artifact(path, kind, seed=seed + i)
            svc.invalidate()
            outcome.injected += 1
            replaced = store.corrupt_replaced
            reader = MSTService(store, algorithm=svc.algorithm, mode=svc.mode)
            again = reader.load_graph(svc.graph)
            # A bit flip can land where the decoder never looks; the file
            # then loads with the served content (see check_artifact_degradation).
            counted = store.corrupt_replaced - replaced == 1 or _same_content(again, served)
            if not counted or reader.total_weight() != svc.total_weight():
                outcome.ok = False
                outcome.detail = (
                    f"{kind} corruption: corrupt_replaced rose by "
                    f"{store.corrupt_replaced - replaced}; a second service "
                    f"served weight {reader.total_weight()} for {svc.total_weight()}"
                )
                return
        except Exception as exc:  # injection itself must never kill the soak
            outcome.ok = False
            outcome.detail = f"injection failed: {type(exc).__name__}: {exc}"
            return


async def _inject_worker_fault(
    graph, kind: str, at_s: float, seed: int, outcome: FaultOutcome,
) -> None:
    """Run a sharded solve with a seeded worker fault, concurrently with load."""
    from repro.mst.kruskal import kruskal
    from repro.shard import ShardFault, sharded_mst

    if at_s > 0:
        await asyncio.sleep(at_s)
    kwargs = dict(fault=ShardFault(shard=1, kind="exit", attempts=1))
    if kind == "worker-hang":
        kwargs = dict(timeout_s=1.0,
                      fault=ShardFault(shard=0, kind="hang", attempts=1))
    try:
        result = await asyncio.to_thread(
            sharded_mst, graph, n_shards=4, executor="process", seed=seed,
            **kwargs,
        )
        outcome.injected += 1
        oracle = await asyncio.to_thread(kruskal, graph)
        if not np.array_equal(np.asarray(result.edge_ids),
                              np.asarray(oracle.edge_ids)):
            outcome.ok = False
            outcome.detail = "sharded forest diverged from the Kruskal oracle"
        elif int(result.stats.get("retries", 0)) < 1:
            outcome.ok = False
            outcome.detail = "fault was never hit (retries=0)"
    except Exception as exc:
        outcome.ok = False
        outcome.detail = f"{type(exc).__name__}: {exc}"


def run_soak(
    *,
    scenario: str | Scenario = "soak",
    duration_s: Optional[float] = None,
    rate_qps: Optional[float] = None,
    faults: Sequence[str] = ("artifact-corruption", "worker-crash"),
    seed: int = 0,
    n_vertices: int = 400,
    n_edges: int = 1600,
    store_dir: Optional[str | Path] = None,
    time_scale: float = 1.0,
    error_budget: float = 0.1,
    events_out: Optional[str | Path] = None,
) -> Dict:
    """Run one faults-under-load soak and return the SLO report dict.

    ``scenario`` is a preset name or a full :class:`Scenario`;
    ``duration_s``/``rate_qps``/``seed`` override the preset.  ``faults``
    names families from :data:`FAULT_FAMILIES` (empty disables
    injection).  The report's ``ok`` field is the conjunction of every
    contract: faults degraded as documented, zero leaked shared-memory
    segments, deterministic replay, and the error budget held.
    """
    from repro.graphs.generators import gnm_random_graph
    from repro.mst.kruskal import kruskal
    from repro.shard import leaked_segments

    unknown = sorted(set(faults) - set(FAULT_FAMILIES))
    if unknown:
        raise ServiceError(
            f"unknown fault families: {', '.join(unknown)}; "
            f"available: {', '.join(FAULT_FAMILIES)}"
        )
    if isinstance(scenario, str):
        overrides: Dict = {"seed": seed}
        if duration_s is not None:
            overrides["duration_s"] = float(duration_s)
        if rate_qps is not None:
            overrides["rate_qps"] = float(rate_qps)
        scenario = get_scenario(scenario, **overrides)
    scenario.validate()

    g = gnm_random_graph(n_vertices, n_edges, seed=seed)
    segments_before = set(leaked_segments())

    # Replay determinism is part of the report: expand twice, hash both.
    events = generate_events(scenario, n_vertices)
    events_again = generate_events(scenario, n_vertices)
    stream_hash = request_stream_hash(events)
    deterministic = stream_hash == request_stream_hash(events_again)

    tmp = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-soak-")
        store_dir = tmp.name
    try:
        store = ArtifactStore(store_dir)
        svc = MSTService(store)
        svc.load_graph(g)
        recorder = Recorder()
        outcomes = [FaultOutcome(family=f, injected=0, ok=True) for f in faults]
        wall_duration = scenario.duration_s * time_scale

        async def main() -> LoadResult:
            async with AsyncMSTService(svc) as server:
                fault_tasks = []
                for outcome in outcomes:
                    if outcome.family == "artifact-corruption":
                        at = [wall_duration * 0.3, wall_duration * 0.65]
                        fault_tasks.append(asyncio.create_task(
                            _inject_artifact_corruption(
                                svc, store, at, seed, outcome,
                            )
                        ))
                    else:
                        fault_tasks.append(asyncio.create_task(
                            _inject_worker_fault(
                                g, outcome.family, wall_duration * 0.4,
                                seed, outcome,
                            )
                        ))
                load = await run_events(
                    server, events, scenario_name=scenario.name,
                    seed=scenario.seed, timeout_s=scenario.timeout_s,
                    time_scale=time_scale, recorder=recorder,
                )
                if fault_tasks:
                    await asyncio.gather(*fault_tasks)
                return load

        load = asyncio.run(main())

        # Post-fault correctness probe: the served forest must equal a
        # fresh solve of the service's *current* graph (which mutations
        # may have changed since load started), edge for edge.
        for outcome in outcomes:
            if outcome.family == "artifact-corruption" and outcome.ok:
                fresh = kruskal(svc.graph)
                served = svc.total_weight()
                if not np.array_equal(
                    np.sort(svc.artifact.msf_edge_ids), fresh.edge_ids
                ):
                    outcome.ok = False
                    outcome.detail = (
                        f"served forest (weight {served}) != fresh solve "
                        f"(weight {fresh.total_weight}) after corruption"
                    )
                elif outcome.injected == 0:
                    outcome.ok = False
                    outcome.detail = "no corruption was ever injected"

        leaked = sorted(set(leaked_segments()) - segments_before)
        report = build_soak_report(
            scenario=scenario, load=load, metrics=svc.metrics,
            fault_outcomes=outcomes, leaked=leaked, stream_hash=stream_hash,
            deterministic=deterministic, error_budget=error_budget,
        )
        if events_out is not None:
            recorder.write(events_out)
            report["events_path"] = str(events_out)
        return report
    finally:
        if tmp is not None:
            tmp.cleanup()
