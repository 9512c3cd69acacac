"""Event log: byte-identical serialisation, hash scope, replay rebuild."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.load.record import (
    OUTCOMES,
    Recorder,
    read_events,
    replay_requests,
    request_stream_hash,
    write_events,
)
from repro.load.scenarios import generate_events, get_scenario

SCENARIO = get_scenario("mixed-mutation", duration_s=2.0, rate_qps=300, seed=21)
N_VERTICES = 300


def _events():
    return generate_events(SCENARIO, N_VERTICES)


def test_write_is_byte_identical_for_equal_streams(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_events([e.to_dict() for e in _events()], a)
    write_events([e.to_dict() for e in _events()], b)
    assert a.read_bytes() == b.read_bytes()


def test_roundtrip_preserves_the_stream_hash(tmp_path):
    events = _events()
    path = write_events([e.to_dict() for e in events], tmp_path / "log.jsonl")
    assert request_stream_hash(read_events(path)) == request_stream_hash(events)


def test_hash_ignores_outcome_fields():
    events = _events()
    recorder = Recorder()
    for i, event in enumerate(events):
        recorder.record(event, OUTCOMES[i % len(OUTCOMES)], latency_s=i * 1e-4,
                        result=i, error="boom" if i % 7 == 0 else None)
    assert request_stream_hash(recorder.events) == request_stream_hash(events)


def test_hash_is_sensitive_to_the_request_part():
    events = _events()
    mutated = [e.to_dict() for e in events]
    mutated[0]["u"] = (mutated[0]["u"] or 0) + 1
    assert request_stream_hash(mutated) != request_stream_hash(events)


def test_replay_requests_rebuilds_the_exact_stream():
    events = _events()
    replayed = replay_requests([e.to_dict() for e in events])
    assert replayed == events


def test_recorder_sorts_by_seq_and_counts_outcomes():
    events = _events()[:4]
    recorder = Recorder()
    for event in reversed(events):
        recorder.record(event, "ok", 1e-3)
    assert [r["seq"] for r in recorder.events] == [e.seq for e in events]
    assert recorder.outcome_counts()["ok"] == 4


def test_recorder_rejects_unknown_outcome():
    recorder = Recorder()
    with pytest.raises(ServiceError, match="unknown outcome"):
        recorder.record(_events()[0], "vanished", 1e-3)


def test_recorder_serialises_infinite_results(tmp_path):
    recorder = Recorder()
    events = _events()
    recorder.record(events[0], "ok", 1e-3, result=float("inf"))
    recorder.record(events[1], "ok", 1e-3, result=float("-inf"))
    path = recorder.write(tmp_path / "inf.jsonl")
    assert [r["result"] for r in read_events(path)] == ["inf", "-inf"]


def test_read_events_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n")
    with pytest.raises(ServiceError, match="invalid JSON"):
        read_events(bad)
    bad.write_text('{"no": "seq"}\n')
    with pytest.raises(ServiceError, match="not an event record"):
        read_events(bad)
