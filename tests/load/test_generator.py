"""Open-loop driver: outcome accounting, shedding, deadlines, mutations."""

from __future__ import annotations

import asyncio

import pytest

from repro.graphs.generators import gnm_random_graph
from repro.load.generator import run_events, run_scenario
from repro.load.record import Recorder, request_stream_hash
from repro.load.scenarios import generate_events, get_scenario
from repro.mst.kruskal import kruskal
from repro.service.core import MSTService
from repro.service.server import AsyncMSTService

N, M, SEED = 150, 500, 5


def _service():
    svc = MSTService(None, algorithm="kruskal")
    svc.load_graph(gnm_random_graph(N, M, seed=SEED))
    return svc


def _accounting_holds(result):
    return result.offered == (
        result.completed + result.rejected + result.timeouts + result.errors
    )


def test_outcome_accounting_partitions_offered_load():
    scenario = get_scenario("burst", duration_s=1.0, rate_qps=400, seed=1)
    result = run_scenario(_service(), scenario, time_scale=0.1)
    assert result.offered == len(result.events) > 0
    assert _accounting_holds(result)
    assert result.failure_rate == pytest.approx(
        (result.rejected + result.timeouts + result.errors) / result.offered
    )


def test_tiny_queue_sheds_load_as_rejections():
    svc = _service()
    scenario = get_scenario("burst", duration_s=1.0, rate_qps=2000, seed=2)

    async def main():
        events = generate_events(scenario, N)
        async with AsyncMSTService(svc, max_pending=2) as server:
            return await run_events(server, events, timeout_s=scenario.timeout_s,
                                    time_scale=0.02)

    result = asyncio.run(main())
    assert result.rejected > 0
    assert _accounting_holds(result)
    assert svc.metrics.rejected == result.rejected


def test_microscopic_deadline_times_requests_out():
    svc = _service()

    async def main():
        events = generate_events(
            get_scenario("steady", duration_s=0.5, rate_qps=200, seed=3), N
        )
        async with AsyncMSTService(svc) as server:
            return await run_events(server, events, timeout_s=1e-9,
                                    time_scale=0.05)

    result = asyncio.run(main())
    assert result.timeouts > 0
    assert _accounting_holds(result)
    assert svc.metrics.timeouts == result.timeouts


def test_recorder_sees_every_offered_request():
    svc = _service()

    async def main():
        events = generate_events(
            get_scenario("hot-key", duration_s=0.5, rate_qps=300, seed=4), N
        )
        recorder = Recorder()
        async with AsyncMSTService(svc) as server:
            result = await run_events(server, events, recorder=recorder)
            return events, recorder, result

    events, recorder, result = asyncio.run(main())
    assert len(recorder.events) == result.offered == len(events)
    assert request_stream_hash(recorder.events) == request_stream_hash(events)


def test_mutations_apply_to_the_live_graph_and_clear_the_cache():
    svc = _service()
    scenario = get_scenario(
        "mixed-mutation", duration_s=2.0, rate_qps=200, seed=6,
        mix={"weight": 0.5, "insert": 0.25, "delete": 0.25},
    )
    result = run_scenario(svc, scenario, time_scale=0.05)
    assert result.mutations > 0
    assert _accounting_holds(result)
    # The served forest must now equal a fresh solve of the mutated graph.
    assert svc.total_weight() == pytest.approx(
        kruskal(svc.graph).total_weight
    )


def test_replaying_the_recorded_stream_preserves_the_hash():
    scenario = get_scenario("steady", duration_s=0.5, rate_qps=300, seed=7)
    first = run_scenario(_service(), scenario, time_scale=0.1)
    again = run_scenario(
        _service(), scenario,
        events=[e for e in generate_events(scenario, N)], time_scale=0.1,
    )
    assert request_stream_hash(first.events) == request_stream_hash(again.events)


def test_load_result_to_dict_is_json_shaped():
    scenario = get_scenario("uniform", duration_s=0.3, rate_qps=100, seed=8)
    d = run_scenario(_service(), scenario, time_scale=0.1).to_dict()
    assert {"scenario", "seed", "offered", "completed", "rejected", "timeouts",
            "errors", "mutations", "wall_s", "offered_qps", "completed_qps",
            "failure_rate"} <= set(d)
