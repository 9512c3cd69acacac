"""The measured process: set-up, then the three timed phases of one run.

Started fresh for every run by ``run.py``.  Set-up time runs from the
moment the parent spawned this process (``--spawn-ns``, a
``time.monotonic_ns()`` reading) to the first timed operation.  With
``--setup-only`` the process stops there.  Then ``W.ROUNDS`` rounds of
three phases, so every phase samples the whole run and a burst of host
contention lands on a part of each phase rather than all of one:

* loads: alternating cold loads (empty store) and warm restarts
  (populated store) of ``graph.gr``, each ending in the first answers;
* reads: an open loop of reads, then a closed loop, served from the
  ``graph.gr`` service loaded warm in set-up;
* writes: an open loop of reads and insert/delete pairs on the
  ``write.gr`` service.

Each round's open loops take the next slice of their request stream, so
the rounds together run a prefix of it.  A short host probe runs before
every load pair, outside the timed loads; the fastest one scales the
CPU-bound metrics (``report.host_scale``).

Results, answers and spans go to files in ``--tmp``; the oracle checks
run later in another process.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import common
import loaddriver as LD
import tracing
import workloads as W


def answer_batch(svc, batch: dict) -> np.ndarray:
    """Answer the first-answers batch through the synchronous batch API."""
    kind, u, v, w = batch["kind"], batch["u"], batch["v"], batch["w"]
    out = np.empty(kind.size, dtype=np.float64)
    calls = {
        0: lambda m: svc.connected(u[m], v[m]),
        1: lambda m: svc.component_id(u[m]),
        2: lambda m: svc.component_size(u[m]),
        3: lambda m: svc.bottleneck(u[m], v[m]),
        4: lambda m: svc.would_change_msf(u[m], v[m], w[m]),
        5: lambda m: svc.total_weight(),
    }
    for k, call in calls.items():
        m = kind == k
        out[m] = np.asarray(call(m), dtype=np.float64)
    return out


def _warm_up(tmp: Path) -> None:
    """First-call costs on a small graph of the same family."""
    import repro.graphs.io as gio
    from repro.service import AsyncMSTService, MSTService

    g = gio.read_dimacs(tmp / "warmup.gr")
    batch = W.first_answers(1, g.n_vertices, float(g.edge_w.min()), float(g.edge_w.max()))
    for _ in range(2):  # cold, then warm from the populated store
        svc = MSTService(tmp / "warmup-store")
        svc.load_graph(g)
        answer_batch(svc, batch)

    async def touch() -> None:
        async with AsyncMSTService(svc) as server:
            for k, kind in enumerate(W.KINDS):
                i = k * W.FIRST_ANSWERS_PER_KIND  # the batch's first request of this kind
                args = LD.request_args(batch["u"][i], batch["v"][i], batch["w"][i])
                await server.query(kind, *args)

    asyncio.run(touch())


class Loads:
    """Alternating cold loads and warm restarts, run a round at a time."""

    def __init__(self, tmp: Path, batch: dict, tracer) -> None:
        self.tmp, self.batch, self.tracer = tmp, batch, tracer
        self.loads: list[dict] = []
        self.saved: dict = {}
        self.pair = 0
        self.probes_ms: list[float] = []  # a short host probe before every pair

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.probes_ms.append(common.host_probe_ms(1))
            self._pair(traced=self.tracer is not None and self.pair % 2 == 1)
            self.pair += 1
            if time.perf_counter() >= deadline:
                break

    def _pair(self, traced: bool) -> None:
        import repro.graphs.io as gio
        from repro.service import MSTService

        tracer = self.tracer
        if traced:
            tracer.install()
        store = self.tmp / f"cold-store-{self.pair}"
        for kind in ("cold", "warm"):
            span = (
                tracer.span(f"bench.{kind}", ctx=len(self.loads))
                if traced else contextlib.nullcontext()
            )
            t0 = time.perf_counter()
            try:
                with span:
                    g = gio.read_dimacs(self.tmp / "graph.gr")
                    svc = MSTService(store)
                    artifact = svc.load_graph(g)
                    with tracer.span("bench.answers") if traced else contextlib.nullcontext():
                        answers = answer_batch(svc, self.batch)
            except Exception as exc:  # a failed load counts, the run goes on
                self.loads.append({"kind": kind, "ok": False, "error": repr(exc), "traced": traced})
                continue
            elapsed = time.perf_counter() - t0
            saved_bytes = svc.store.path_for(artifact.fingerprint).stat().st_size
            self.loads.append({
                "kind": kind, "ok": True, "seconds": elapsed, "traced": traced,
                "weight": float(artifact.total_weight), "edges": int(artifact.n_forest_edges),
                "store_hits": int(svc.store.hits), "artifact_bytes": saved_bytes,
                "digest": hashlib.sha256(answers.tobytes()).hexdigest(),
            })
            self.saved.setdefault(kind, answers)
            del g, svc, artifact
        if traced:
            tracer.uninstall()
        shutil.rmtree(store, ignore_errors=True)


class OpenLoops:
    """One open-loop stream driven a slice per round; results concatenate."""

    FIELDS = ("due", "issue", "done", "status", "value", "hit", "traced", "engine_ns")

    def __init__(self, stream: dict, slice_s: float) -> None:
        self.stream, self.slice_s = stream, slice_s
        self.results: list = []
        self.rounds = 0

    def next_slice(self) -> dict:
        lo, hi = self.rounds * self.slice_s, (self.rounds + 1) * self.slice_s
        self.rounds += 1
        t = self.stream["t"]
        keep = (t >= lo) & (t < hi)
        part = {k: a[keep] for k, a in self.stream.items()}
        part["t"] = part["t"] - lo
        return part

    def summary(self) -> dict:
        return {
            "wall_s": sum(r.wall_s for r in self.results),
            "cpu_s": sum(r.cpu_s for r in self.results),
            "errors": [e for r in self.results for e in r.errors][:5],
        }

    def arrays(self, prefix: str) -> dict:
        return {
            f"{prefix}_{name}": np.concatenate([getattr(r, name) for r in self.results])
            for name in self.FIELDS
        }


def run_reads(seconds: float, svc, opens: OpenLoops, closed: dict, streams, tracer) -> None:
    """One round of the read phase: an open-loop slice, then the closed loop."""
    from repro.service import AsyncMSTService

    stream = opens.next_slice()

    async def phases():
        async with AsyncMSTService(svc) as server:
            res = await LD.open_loop(server, svc, stream, tracer)
            got = await LD.closed_loop(
                server, streams["closed"], W.CALLERS, seconds - opens.slice_s, tracer,
                first_request=closed["next"],
            )
            return res, got

    res, got = asyncio.run(phases())
    opens.results.append(res)
    closed["next"] = got["next"]
    closed["attempted"] += got["attempted"]
    closed["failed"] += got["failed"]
    closed["counts"].append(got["counts"])
    closed["spans_s"].append(got["spans_s"])
    closed["answered"].append(got["answered"])
    closed["values"].append(got["values"])


def run_writes(svc, mixed: OpenLoops, tracer) -> None:
    """One round of the write phase: an open-loop slice of reads and writes."""
    from repro.service import AsyncMSTService

    stream = mixed.next_slice()

    async def phase():
        async with AsyncMSTService(svc) as server:
            return await LD.open_loop(server, svc, stream, tracer)

    mixed.results.append(asyncio.run(phase()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject", action="append", default=[],
                    help="MODULE:ATTR=SECONDS sleep added to one entry point")
    args = ap.parse_args(argv)

    # Imports are part of set-up.
    import repro.graphs.io as gio
    from repro.service import MSTService

    tmp = args.tmp
    injector = tracing.Patcher()
    for spec in args.inject:
        target, seconds = spec.rsplit("=", 1)
        module, attr = target.split(":")
        tracing.inject_sleep(injector, module, attr, float(seconds))
    streams = W.unflatten_streams(common.load_arrays(tmp / "streams.npz"))

    _warm_up(tmp)
    served = MSTService(tmp / "graph-store")
    served.load_graph(gio.read_dimacs(tmp / "graph.gr"))
    mutated = MSTService(tmp / "write-store")
    mutated.load_graph(gio.read_dimacs(tmp / "write.gr"))
    n = mutated.artifact.n_vertices
    mutated.insert_edge(0, n - 1, 1.0)
    mutated.delete_edge(0, n - 1, 1.0)
    out = {"setup_s": (time.monotonic_ns() - args.spawn_ns) / 1e9}
    if args.setup_only:
        common.write_json(tmp / "setup.json", out)
        return 0

    out["probe_ms"] = [common.host_probe_ms()]
    steal0 = common.host_steal()
    # One tracer per phase, so each phase's spans stay apart.
    tracers = {p: tracing.Tracer() if args.trace else None for p in ("loads", "reads", "writes")}
    round_s = args.seconds / W.ROUNDS
    read_s = round_s * W.READ_SHARE
    loads = Loads(tmp, streams["first_answers"], tracers["loads"])
    opens = OpenLoops(streams["open"], read_s * W.OPEN_SHARE)
    mixed = OpenLoops(streams["mixed"], round_s * W.WRITE_SHARE)
    closed = {"next": 0, "attempted": 0, "failed": 0, "counts": [], "spans_s": [],
              "answered": [], "values": []}
    for _ in range(W.ROUNDS):
        loads.run(round_s * W.LOAD_SHARE)
        run_reads(read_s, served, opens, closed, streams, tracers["reads"])
        run_writes(mutated, mixed, tracers["writes"])
    out["host_steal_share"] = common.host_steal_share(steal0, common.host_steal())
    out["loads"] = loads.loads
    out["pair_probes_ms"] = loads.probes_ms
    common.save_arrays(tmp / "answers.npz", loads.saved)
    out["open"], out["mixed"] = opens.summary(), mixed.summary()
    out["final_weight"] = float(mutated.total_weight())
    out["final_edges"] = int(mutated.artifact.n_forest_edges)
    arrays = {**opens.arrays("open"), **mixed.arrays("mixed")}
    arrays["closed_answered"] = np.concatenate(closed.pop("answered"))
    arrays["closed_values"] = np.concatenate(closed.pop("values"))
    out["closed"] = closed
    common.save_arrays(tmp / "served.npz", arrays)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["probe_ms"].append(common.host_probe_ms())
    if args.trace:
        out["absent"] = sorted({a for t in tracers.values() for a in t.absent})
        out["solver"] = tracers["loads"].solver
        for phase, tracer in tracers.items():
            tracer.dump(tmp / f"spans-{phase}.jsonl")
    common.write_json(tmp / "measured.json", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
