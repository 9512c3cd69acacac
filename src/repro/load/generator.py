"""Open-loop asyncio load driver for :class:`AsyncMSTService`.

The defining property of this driver is that it is **open-loop**: each
request is issued at its scheduled offset regardless of how fast (or
whether) earlier requests complete.  A closed-loop driver — issue, await,
issue — silently throttles itself to the service's latency and can never
observe saturation; an open-loop one keeps offering the scenario's load,
so rejections (bounded-queue shedding via
:meth:`~repro.service.server.AsyncMSTService.query_nowait`), per-request
deadline expirations, and queue growth all show up as the distinct
outcomes they are.

Accounting invariant: every offered request lands in exactly one of
``ok`` / ``rejected`` / ``timeout`` / ``error``, so
``offered == completed + rejected + timeouts + errors`` always holds —
the property the load tests pin.

Mutations (``insert``/``delete`` events) run inline against the wrapped
:class:`~repro.service.core.MSTService` (asyncio is single-threaded, so
they serialise naturally with batch execution) and clear the async LRU
cache, which would otherwise keep serving pre-mutation answers.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceOverloadError, ServiceTimeoutError
from repro.load.record import Recorder
from repro.load.scenarios import (
    MUTATION_OPS,
    RequestEvent,
    Scenario,
    generate_events,
)
from repro.service.core import MSTService
from repro.service.server import AsyncMSTService

__all__ = ["LoadResult", "run_events", "run_scenario"]


@dataclass
class LoadResult:
    """Outcome accounting for one load run.

    ``offered`` counts every event issued on schedule; the four outcome
    buckets partition it.  ``events`` is the recorded JSONL-able log when
    the run recorded (empty otherwise).
    """

    scenario: str
    seed: int
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    mutations: int = 0
    wall_s: float = 0.0
    events: List[Dict] = field(default_factory=list)

    @property
    def offered_qps(self) -> float:
        """Offered load over the run's wall time."""
        return self.offered / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def completed_qps(self) -> float:
        """Goodput (completed requests) over the run's wall time."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def failure_rate(self) -> float:
        """Fraction of offered requests not answered ok."""
        failed = self.rejected + self.timeouts + self.errors
        return failed / self.offered if self.offered else 0.0

    def to_dict(self) -> Dict:
        """JSON-able summary (without the per-event log)."""
        return {
            "scenario": self.scenario, "seed": self.seed,
            "offered": self.offered, "completed": self.completed,
            "rejected": self.rejected, "timeouts": self.timeouts,
            "errors": self.errors, "mutations": self.mutations,
            "wall_s": round(self.wall_s, 6),
            "offered_qps": round(self.offered_qps, 1),
            "completed_qps": round(self.completed_qps, 1),
            "failure_rate": round(self.failure_rate, 6),
        }


class _MutationState:
    """FIFO of live inserted edges backing deterministic ``delete`` events."""

    def __init__(self) -> None:
        self.inserted: Deque[Tuple[int, int, float]] = deque()


def _apply_mutation(service: MSTService, server: AsyncMSTService,
                    event: RequestEvent, state: _MutationState):
    """Run one mutation; returns the JSON-able result.

    ``delete`` pops the oldest edge this run inserted (a no-op result
    when none is live — the stream stays deterministic either way).
    Both paths clear the async LRU cache: its entries describe the
    pre-mutation forest.
    """
    if event.op == "insert":
        service.insert_edge(int(event.u), int(event.v), float(event.w))
        state.inserted.append((int(event.u), int(event.v), float(event.w)))
        result = "inserted"
    else:
        if not state.inserted:
            return "noop"
        u, v, w = state.inserted.popleft()
        service.delete_edge(u, v, w)
        result = "deleted"
    server.clear_cache()
    return result


async def run_events(
    server: AsyncMSTService,
    events: Sequence[RequestEvent],
    *,
    scenario_name: str = "custom",
    seed: int = 0,
    timeout_s: Optional[float] = None,
    time_scale: float = 1.0,
    recorder: Optional[Recorder] = None,
) -> LoadResult:
    """Offer ``events`` open-loop against a started ``server``.

    ``time_scale`` compresses (< 1) or stretches (> 1) the scenario's
    schedule — tests replay a one-second scenario in a tenth of that.
    ``timeout_s`` is the per-request deadline forwarded to
    :meth:`~repro.service.server.AsyncMSTService.query_nowait`.
    """
    result = LoadResult(scenario=scenario_name, seed=seed)
    state = _MutationState()
    loop = asyncio.get_running_loop()
    service = server.service

    async def issue(event: RequestEvent) -> None:
        t0 = time.perf_counter()
        outcome, answer, error = "ok", None, None
        try:
            if event.op in MUTATION_OPS:
                answer = _apply_mutation(service, server, event, state)
                result.mutations += 1
            else:
                answer = await server.query_nowait(
                    event.op, event.u, event.v, event.w, timeout_s=timeout_s,
                )
        except ServiceOverloadError as exc:
            outcome, error = "rejected", str(exc)
        except ServiceTimeoutError as exc:
            outcome, error = "timeout", str(exc)
        except Exception as exc:  # engine/mutation rejections stay per-request
            outcome, error = "error", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if outcome == "ok":
            result.completed += 1
        elif outcome == "rejected":
            result.rejected += 1
        elif outcome == "timeout":
            result.timeouts += 1
        else:
            result.errors += 1
        if recorder is not None:
            recorder.record(event, outcome, latency, result=answer, error=error)

    start = loop.time()
    tasks: List[asyncio.Task] = []
    for event in events:
        delay = start + event.t_offset_s * time_scale - loop.time()
        if delay > 0:
            # Open loop: sleep to the *schedule*, never await completions.
            await asyncio.sleep(delay)
        result.offered += 1
        tasks.append(asyncio.create_task(issue(event)))
    if tasks:
        await asyncio.gather(*tasks)
    result.wall_s = loop.time() - start
    if recorder is not None:
        result.events = recorder.events
    return result


def run_scenario(
    service: MSTService,
    scenario: Scenario,
    *,
    events: Optional[Sequence[RequestEvent]] = None,
    record: bool = True,
    time_scale: float = 1.0,
    max_pending: int = 1024,
) -> LoadResult:
    """Expand (or replay) a scenario and drive it to completion.

    The synchronous convenience wrapper: builds the
    :class:`~repro.service.server.AsyncMSTService` front-end, generates
    the event stream from ``scenario`` (or re-offers the given
    ``events`` — the replay path), runs it open-loop on a fresh event
    loop, and returns the :class:`LoadResult`.  ``service`` must already
    have a graph loaded.
    """
    engine = service.ensure_ready()
    if events is None:
        events = generate_events(scenario, engine.n_vertices)
    recorder = Recorder() if record else None

    async def main() -> LoadResult:
        async with AsyncMSTService(service, max_pending=max_pending) as server:
            return await run_events(
                server, events, scenario_name=scenario.name,
                seed=scenario.seed, timeout_s=scenario.timeout_s,
                time_scale=time_scale, recorder=recorder,
            )

    return asyncio.run(main())
