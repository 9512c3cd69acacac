"""JSONL event log and the deterministic record/replay contract.

Every request a load run offers is logged as one JSON line carrying two
layers of information:

* the **request part** — ``seq``, ``t`` (scheduled offset), ``op``,
  ``u``, ``v``, ``w`` — a pure function of ``(scenario, n_vertices)``
  and therefore deterministic;
* the **outcome part** — ``outcome`` (``ok``/``rejected``/``timeout``/
  ``error``), ``latency_us``, and the answer or error text — measured at
  run time and inherently timing-dependent.

The determinism contract is scoped to the request part:
:func:`request_stream_hash` digests *only* those fields, so the same
seed and scenario produce the same hash whether the stream came from
:func:`~repro.load.scenarios.generate_events`, a recorded JSONL file, or
a replay of one — that is the hash ``tools/bench_gate.py`` pins.
Outcome fields ride along for analysis but never enter the hash.

Serialisation is canonical (sorted keys, minimal separators) so equal
event lists produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from repro.errors import ServiceError
from repro.load.scenarios import RequestEvent
from repro.service.server import encode_answer

__all__ = [
    "REQUEST_FIELDS",
    "OUTCOMES",
    "Recorder",
    "write_events",
    "read_events",
    "request_stream_hash",
    "replay_requests",
]

REQUEST_FIELDS = ("seq", "t", "op", "u", "v", "w")
OUTCOMES = ("ok", "rejected", "timeout", "error")


def _canonical(record: Dict) -> str:
    """One canonical JSON line (sorted keys, minimal separators)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


class Recorder:
    """Collects one event record per offered request, in ``seq`` order.

    The generator calls :meth:`record` as each request resolves (which
    can be out of submission order under coalescing); :attr:`events`
    re-sorts by ``seq`` so the log reads in offered order.
    """

    def __init__(self) -> None:
        self._events: List[Dict] = []

    def record(self, event: RequestEvent, outcome: str, latency_s: float,
               result=None, error: str | None = None) -> None:
        """Append the outcome of one request."""
        if outcome not in OUTCOMES:
            raise ServiceError(
                f"unknown outcome {outcome!r}; allowed: {', '.join(OUTCOMES)}"
            )
        record = event.to_dict()
        record["outcome"] = outcome
        record["latency_us"] = round(latency_s * 1e6, 1)
        if result is not None:
            record["result"] = encode_answer(result)
        if error is not None:
            record["error"] = error
        self._events.append(record)

    @property
    def events(self) -> List[Dict]:
        """All recorded events, sorted by ``seq``."""
        return sorted(self._events, key=lambda r: r["seq"])

    def outcome_counts(self) -> Dict[str, int]:
        """How many events landed in each outcome bucket."""
        counts = {o: 0 for o in OUTCOMES}
        for record in self._events:
            counts[record["outcome"]] += 1
        return counts

    def write(self, path: str | Path) -> Path:
        """Write the sorted event log as JSONL; returns the path."""
        return write_events(self.events, path)


def write_events(events: Iterable[Dict], path: str | Path) -> Path:
    """Write event records (dicts) as canonical JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in events:
            fh.write(_canonical(record) + "\n")
    return path


def read_events(path: str | Path) -> List[Dict]:
    """Read a JSONL event log back into dicts (``seq`` order enforced)."""
    path = Path(path)
    records: List[Dict] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict) or "seq" not in record or "op" not in record:
            raise ServiceError(f"{path}:{lineno}: not an event record")
        records.append(record)
    return sorted(records, key=lambda r: r["seq"])


def request_stream_hash(events: Sequence[Dict | RequestEvent]) -> str:
    """SHA-256 over the deterministic request part of an event stream.

    Outcome fields (``outcome``, ``latency_us``, ``result``, ``error``)
    are excluded by construction: a recorded run, its replay, and a
    fresh expansion of the same scenario all hash identically.  Floats
    survive the JSON round trip exactly (shortest-repr serialisation),
    so hashing after a write/read cycle is stable.
    """
    digest = hashlib.sha256()
    for event in events:
        record = event.to_dict() if isinstance(event, RequestEvent) else event
        request = {f: record.get(f) for f in REQUEST_FIELDS}
        digest.update(_canonical(request).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def replay_requests(events: Sequence[Dict]) -> List[RequestEvent]:
    """Reconstruct the request stream from a recorded event log.

    Feeding the result to :func:`repro.load.generator.run_events` re-offers
    the exact recorded traffic (same schedule, same operands) against a
    live service — outcomes may differ (they are timing), the request
    stream hash may not.
    """
    out: List[RequestEvent] = []
    for record in sorted(events, key=lambda r: r["seq"]):
        out.append(RequestEvent(
            seq=int(record["seq"]),
            t_offset_s=float(record["t"]),
            op=str(record["op"]),
            u=None if record.get("u") is None else int(record["u"]),
            v=None if record.get("v") is None else int(record["v"]),
            w=None if record.get("w") is None else float(record["w"]),
        ))
    return out
