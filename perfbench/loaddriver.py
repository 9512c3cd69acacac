"""The benchmark's own open-loop and closed-loop drivers.

Open loop: every request is issued at its scheduled time no matter how
earlier ones fare, and its latency runs from that scheduled time, so a
request that waited behind a blocked event loop is charged the wait.
Writes run inline on the loop, the way the product's own load driver
applies them: ``MSTService.insert_edge``/``delete_edge`` followed by
``AsyncMSTService.clear_cache()``.

Closed loop: ``callers`` asyncio tasks on the one loop thread, each
awaiting its answer before sending the next request.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time

import numpy as np

import workloads as W

OK, REJECTED, TIMEOUT, ERROR = 1, 2, 3, 4
TRACE_WINDOW_S = 1.0  # traced runs trace every other window of at most this length
CLOSED_CTX = -2  # span ctx of engine calls made in the closed loop
CLOSED_WINDOWS = 2  # per closed loop; traced runs trace the second


def request_args(u: int, v: int, w: float):
    """``(u, v, w)`` as the service takes them: blanked fields become None."""
    return (
        int(u) if u >= 0 else None,
        int(v) if v >= 0 else None,
        float(w) if not np.isnan(w) else None,
    )


def engine_key(kind: int, u: int, v: int, w: float):
    """The ``(kind, u, v, w)`` a request shows to ``QueryEngine.execute``."""
    a, b, c = request_args(u, v, w)
    return (W.KINDS[kind], 0 if a is None else a, 0 if b is None else b, 0.0 if c is None else c)


class OpenLoopResult:
    def __init__(self, n: int) -> None:
        self.due = np.full(n, np.nan)
        self.issue = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.status = np.zeros(n, dtype=np.int8)
        self.value = np.full(n, np.nan)
        self.hit = np.zeros(n, dtype=bool)
        self.traced = np.zeros(n, dtype=bool)
        self.engine_ns = np.full(n, -1, dtype=np.int64)
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0


class _EngineKeys:
    """Maps each request key to the duration of the engine call that ran it."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.last: dict = {}

    def __call__(self, sid, kind, us, vs, ws) -> None:
        span = self.tracer.spans[sid]
        dur = span[2] - span[1]
        for key in zip(us, vs, ws):
            self.last[(kind, *key)] = dur


async def open_loop(server, svc, stream: dict, tracer=None) -> OpenLoopResult:
    """Drive one merged read/write schedule; ``tracer`` traces odd windows."""
    from repro.errors import ServiceError, ServiceOverloadError, ServiceTimeoutError

    t, kind = stream["t"], stream["kind"]
    us, vs, ws = stream["u"], stream["v"], stream["w"]
    n = t.size
    res = OpenLoopResult(n)
    keys = None
    if tracer is not None:
        keys = _EngineKeys(tracer)
        tracer.key_hook = keys

    def finish(i: int, fut: asyncio.Future) -> None:
        res.done[i] = time.perf_counter()
        exc = fut.exception()
        if exc is None:
            res.status[i] = OK
            res.value[i] = float(fut.result())
            if keys is not None and res.traced[i] and not res.hit[i]:
                res.engine_ns[i] = keys.last.get(engine_key(kind[i], us[i], vs[i], ws[i]), -1)
        elif isinstance(exc, ServiceTimeoutError):
            res.status[i] = TIMEOUT
        else:
            res.status[i] = ERROR
            res.errors.append(repr(exc))

    # At least two traced windows, however short the phase.
    window = min(TRACE_WINDOW_S, float(t[-1]) / 4) if n else TRACE_WINDOW_S
    pending = []
    start = time.perf_counter() + 0.01
    cpu0 = time.process_time()
    res.due[:] = start + t
    for i in range(n):
        now = time.perf_counter()
        if res.due[i] > now:
            await asyncio.sleep(res.due[i] - now)
        if tracer is not None:
            want = int(t[i] / window) % 2 == 1
            if want != tracer.installed:
                tracer.install() if want else tracer.uninstall()
            res.traced[i] = want
        k = int(kind[i])
        res.issue[i] = time.perf_counter()
        if k >= W.INSERT:
            u, v, w = int(us[i]), int(vs[i]), float(ws[i])
            span = (
                tracer.span("bench.write", ctx=i)
                if tracer is not None and res.traced[i]
                else contextlib.nullcontext()
            )
            try:
                with span:
                    if k == W.INSERT:
                        svc.insert_edge(u, v, w)
                    else:
                        svc.delete_edge(u, v, w)
                    server.clear_cache()
                res.status[i] = OK
            except Exception as exc:  # a failed write counts, the run goes on
                res.status[i] = ERROR
                res.errors.append(repr(exc))
            res.done[i] = time.perf_counter()
            continue
        try:
            fut = server.query_nowait(W.KINDS[k], *request_args(us[i], vs[i], ws[i]))
        except ServiceOverloadError:
            res.status[i] = REJECTED
            continue
        except ServiceError as exc:
            res.status[i] = ERROR
            res.errors.append(repr(exc))
            continue
        if fut.done():
            res.hit[i] = True
            finish(i, fut)
        else:
            fut.add_done_callback(functools.partial(finish, i))
            pending.append(fut)
    await asyncio.gather(*pending, return_exceptions=True)
    res.wall_s = time.perf_counter() - start
    res.cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
        tracer.key_hook = None
    return res


async def closed_loop(server, stream: dict, callers: int, seconds: float, tracer=None,
                      first_request: int = 0):
    """``callers`` tasks issuing reads back to back for ``seconds``.

    Callers take requests in stream order from ``first_request`` on.
    Returns completions per window (``CLOSED_WINDOWS`` equal windows, plus
    one for answers landing after the end) with the time from each
    window's first completion to its last, the request indices answered,
    their values, the failures, and the next request index.  The second
    half of the windows is traced when a tracer is given.
    """
    from repro.errors import ServiceError

    kind, us, vs, ws = stream["kind"], stream["u"], stream["v"], stream["w"]
    size = kind.size
    state = {"next": first_request, "failed": 0, "attempted": 0}
    answered: list[int] = []
    values: list[float] = []
    width = seconds / CLOSED_WINDOWS
    counts = [0] * (CLOSED_WINDOWS + 1)
    first = [float("inf")] * (CLOSED_WINDOWS + 1)
    last = [0.0] * (CLOSED_WINDOWS + 1)
    start = time.perf_counter()
    end = start + seconds
    if tracer is not None:
        tracer.ctx = CLOSED_CTX
        asyncio.get_running_loop().call_later(seconds / 2, tracer.install)

    async def caller() -> None:
        while time.perf_counter() < end:
            j = state["next"] % size
            state["next"] += 1
            state["attempted"] += 1
            k = int(kind[j])
            try:
                value = await server.query(W.KINDS[k], *request_args(us[j], vs[j], ws[j]))
            except ServiceError:
                state["failed"] += 1
                continue
            now = time.perf_counter()
            w = min(int((now - start) / width), CLOSED_WINDOWS)
            counts[w] += 1
            first[w] = min(first[w], now)
            last[w] = now
            answered.append(j)
            values.append(float(value))

    await asyncio.gather(*(caller() for _ in range(callers)))
    if tracer is not None:
        tracer.uninstall()
        tracer.ctx = -1
    return {
        "counts": counts,
        "spans_s": [max(b - a, 0.0) for a, b in zip(first, last)],
        "answered": np.asarray(answered, dtype=np.int64),
        "values": np.asarray(values, dtype=np.float64),
        "attempted": state["attempted"],
        "failed": state["failed"],
        "next": state["next"],
    }
