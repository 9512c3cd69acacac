"""Turn one run's raw measurements into the named metrics.

End-to-end metrics come from untraced measurements; per-layer metrics
from the traced windows of a ``--trace 1`` run, whose untraced windows
give the tracing overhead.  Diagnostics (p99 with its sample count, the
cache-hit share, the write duty cycle, the host probe, the stage table)
are printed as text lines, never gated.
"""

from __future__ import annotations

import json

import numpy as np

import loaddriver as LD
import tracing
import workloads as W
from common import beyond, percentile

# The short host probe's time on the reference host (the 2-vCPU virtual
# machine the bounds were set on, in its fast state).
REFERENCE_PROBE_MS = 3.0

COLD_STAGES = {
    "parse": ("read_dimacs",),
    "csr": ("CSRGraph.from_edgelist",),
    "fingerprint": ("graph_fingerprint",),
    "solve": (tracing.SOLVE,),
    "index": ("ForestPathMax.__init__",),
    "save": ("ArtifactStore.save",),
    "load": ("ArtifactStore.load",),
    "answers": ("bench.answers",),
    "unattributed": ("bench.cold", "bench.warm"),
}
WRITE_STAGES = {
    "core": ("MSTService.insert_edge", "MSTService.delete_edge"),
    "repair": ("DynamicMSF.insert_edge", "DynamicMSF.delete_edge", "DynamicMSF.find_edge"),
    "export": ("DynamicMSF.snapshot", "DynamicMSF.forest_arrays"),
    "csr": ("CSRGraph.from_edgelist",),
    "index": ("ForestPathMax.__init__",),
    "fingerprint": ("graph_fingerprint",),
    "save": ("ArtifactStore.save",),
    "unattributed": ("bench.write",),
}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def load_spans(path) -> list[list]:
    spans = []
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            spans.append([s["name"], s["start_ns"], s["end_ns"], s["parent"], s["ctx"], s["attrs"]])
    return spans


# ----------------------------------------------------------------------
# Open-loop arrays
# ----------------------------------------------------------------------
class Served:
    """Latency views over one open loop's arrays in ``served.npz``."""

    def __init__(self, arrays: dict, stream: dict, prefix: str) -> None:
        def get(name):
            return arrays[f"{prefix}_{name}"]

        n = get("due").size
        self.kind = stream["kind"][:n]
        self.due, self.issue, self.done = get("due"), get("issue"), get("done")
        self.status, self.hit = get("status"), get("hit")
        self.traced, self.engine_ns = get("traced"), get("engine_ns")
        self.is_write = self.kind >= W.INSERT
        self.ok = self.status == LD.OK
        self.latency_ms = (self.done - self.due) * 1e3
        self.reads = ~self.is_write
        self.attempted = int(n)
        self.failed = int((self.status != LD.OK).sum())

    def read_ms(self, traced=None) -> np.ndarray:
        m = self.reads & self.ok
        if traced is not None:
            m &= self.traced == traced
        return self.latency_ms[m]

    def write_ms(self, traced=None) -> np.ndarray:
        m = self.is_write & self.ok
        if traced is not None:
            m &= self.traced == traced
        return self.latency_ms[m]

    def blocked(self) -> np.ndarray:
        """Reads whose scheduled time fell inside a write."""
        w = np.flatnonzero(self.is_write)
        starts, ends = self.issue[w], self.done[w]
        pos = np.searchsorted(starts, self.due, side="right") - 1
        inside = (pos >= 0) & (self.due < ends[np.maximum(pos, 0)])
        return self.reads & self.ok & inside


def _best_qps(closed: dict, window: int | None = None) -> float:
    """Completions per second in the fastest closed-loop window of any round.

    ``window`` picks one window index of every round (0 untraced, 1
    traced in a traced run); the window for late answers never counts.
    """
    rates = [
        (n - 1) / span
        for counts, spans in zip(closed["counts"], closed["spans_s"])
        for i, (n, span) in enumerate(zip(counts[:LD.CLOSED_WINDOWS], spans))
        if span > 0 and window in (None, i)
    ]
    return max(rates) if rates else float("nan")


def _mode_of_percentile(lat: np.ndarray, flag: np.ndarray, q: float) -> float:
    """Share of flagged samples among the ten nearest the q-th percentile."""
    order = np.argsort(lat, kind="stable")
    r = int(round(q / 100.0 * (lat.size - 1)))
    near = order[max(0, r - 5): r + 5]
    return float(flag[near].mean()) if near.size else float("nan")


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------
def host_scale(probes_ms) -> float:
    """``REFERENCE_PROBE_MS`` over the run's fastest short host probe.

    A host running at the reference speed gives 1.0; a run on a host
    half as fast gives 0.5, and its CPU-bound times are halved by it.
    """
    return REFERENCE_PROBE_MS / min(probes_ms)


def e2e(measured: dict, setups: list, reads: Served, mixed: Served, lines: list) -> dict:
    """End-to-end metrics; CPU-bound ones scaled to the reference host speed.

    The shared host's speed drifts over minutes; the fastest of the run's
    short probes moves with it, so the fastest load over the fastest probe
    holds still across runs where either alone does not.  Times bound by
    timers (``read_p50_ms``) and memory are not scaled.
    """
    scale = host_scale(measured["pair_probes_ms"])
    raw = {"setup_s": float(np.median(setups))}
    for kind in ("cold", "warm"):
        xs = [ld["seconds"] for ld in measured["loads"]
              if ld["ok"] and ld["kind"] == kind and not ld["traced"]]
        # The fastest load: neighbours on this shared host only ever add time,
        # and the per-run minimum moves far less between runs than the median.
        raw[f"{kind}_s"] = min(xs) if xs else float("nan")
        q = np.percentile(xs, [0, 25, 50, 75, 100]) if xs else []
        lines.append(
            f"{kind} loads: n={len(xs)} min/q1/median/q3/max " + " ".join(f"{x:.3f}" for x in q)
        )
    raw["read_qps"] = _best_qps(measured["closed"])
    raw["write_p50_ms"] = percentile(mixed.write_ms(traced=False), 50)
    probes = measured["pair_probes_ms"]
    lines.append(
        f"host scale {scale:.4f}: reference probe {REFERENCE_PROBE_MS:.3f} ms / fastest of "
        f"{len(probes)} short probes {min(probes):.3f} ms (median {np.median(probes):.3f} ms)"
    )
    lines.append("as timed, before scaling: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    m = {
        "setup_s": metric(raw["setup_s"] * scale, "s"),
        "cold_s": metric(raw["cold_s"] * scale, "s"),
        "warm_s": metric(raw["warm_s"] * scale, "s"),
    }

    lat = reads.read_ms(traced=False)
    m["read_p50_ms"] = metric(percentile(lat, 50), "ms")
    # Tails are printed, not gated: this host's bursts of contention
    # lengthen them most (see README.md).
    lines.append(
        f"read phase: read p90 {percentile(lat, 90):.3f} ms, p99 {percentile(lat, 99):.3f} ms "
        f"over {lat.size} reads ({beyond(lat.size, 99)} beyond p99; printed, not gated); "
        f"cache-hit share {reads.hit[reads.reads].mean():.3f}"
    )
    miss = ~reads.hit[reads.reads & reads.ok & ~reads.traced]
    lines.append(
        f"misses at read p50 {_mode_of_percentile(lat, miss, 50):.2f}, "
        f"at p90 {_mode_of_percentile(lat, miss, 90):.2f} (1.00 = inside the miss mode)"
    )
    # The best window, as for loads: host contention only subtracts.
    m["read_qps"] = metric(raw["read_qps"] / scale, "reads/s")

    writes = mixed.write_ms(traced=False)
    m["write_p50_ms"] = metric(raw["write_p50_ms"] * scale, "ms")
    q = np.percentile(writes, [0, 25, 50, 75, 90, 100]) if writes.size else []
    exec_s = (mixed.done - mixed.issue)[mixed.is_write].sum()
    lines.append(
        f"writes: n={writes.size} min/q1/median/q3/p90/max (ms) "
        + " ".join(f"{x:.2f}" for x in q)
        + f" ({beyond(writes.size, 90)} beyond p90; printed, not gated); "
        f"write duty {exec_s / measured['mixed']['wall_s']:.3f}"
    )
    lat = mixed.read_ms(traced=False)
    blocked = mixed.blocked()
    mask = mixed.reads & mixed.ok & ~mixed.traced
    lines.append(
        f"write phase: read p50 {percentile(lat, 50):.3f} ms, p90 {percentile(lat, 90):.3f} ms "
        f"over {lat.size} reads; reads blocked by a write {blocked[mixed.reads].mean():.3f}; "
        f"blocked reads at read p50 {_mode_of_percentile(lat, blocked[mask], 50):.2f}, "
        f"at p90 {_mode_of_percentile(lat, blocked[mask], 90):.2f}"
    )
    return m


# ----------------------------------------------------------------------
# Per-layer
# ----------------------------------------------------------------------
def _stage_seconds(spans, roots, stages):
    ids, totals, counts = tracing.per_root_totals(spans, roots, stages)
    return ids, {k: v / 1e9 for k, v in totals.items()}, counts


def per_layer_loads(measured, meta, spans, lines) -> dict:
    m = {}
    loads = [ld for ld in measured["loads"] if ld["ok"]]
    cold_ids, cold, cold_counts = _stage_seconds(spans, {"bench.cold"}, COLD_STAGES)
    _, warm, _ = _stage_seconds(spans, {"bench.warm"}, COLD_STAGES)
    both = {k: np.concatenate([cold[k], warm[k]]) for k in COLD_STAGES}
    parse_s = _median(both["parse"])
    m["graphs.io.parse_s"] = metric(parse_s, "s")
    m["graphs.io.parse_mb_per_s"] = metric(meta["graph_bytes"] / 1e6 / parse_s, "MB/s")
    m["graphs.csr.build_s"] = metric(_median(both["csr"]), "s")
    m["mst.solve_s"] = metric(_median(cold["solve"]), "s")
    m["service.artifacts.fingerprints_per_load"] = metric(
        np.mean(cold_counts["fingerprint"]), "count")
    fp = [s[2] - s[1] for s in spans if s[0] == "graph_fingerprint"]
    m["service.artifacts.fingerprint_s"] = metric(_median(fp) / 1e9, "s")
    m["service.artifacts.save_s"] = metric(_median(cold["save"]), "s")
    sizes = [ld["artifact_bytes"] for ld in loads if ld["kind"] == "cold"]
    m["service.artifacts.save_mb"] = metric(_median(sizes) / 1e6, "MB")
    m["service.artifacts.load_s"] = metric(_median(warm["load"]), "s")
    warm_loads = [ld for ld in loads if ld["kind"] == "warm"]
    m["service.artifacts.hit_ratio"] = metric(
        sum(ld["store_hits"] == 1 for ld in warm_loads) / max(len(warm_loads), 1), "ratio")
    m["graphs.tree_queries.index_build_s"] = metric(_median(cold["index"]), "s")

    # cold_s is the fastest cold load, so compare the fastest of each kind.
    untraced = min(ld["seconds"] for ld in loads if ld["kind"] == "cold" and not ld["traced"])
    durations = np.array([spans[i][2] - spans[i][1] for i in cold_ids]) / 1e9
    fastest = int(np.argmin(durations))
    traced = durations[fastest]
    overhead = traced / untraced - 1.0
    named = sum(cold[k][fastest] for k in COLD_STAGES if k != "unattributed")
    unattributed = cold["unattributed"][fastest] / traced
    m["trace.load_overhead_share"] = metric(overhead, "ratio")
    m["trace.cold_accounted_share"] = metric(named / untraced, "ratio")
    lines.append("cold-load stage self times (s), fastest traced cold load / median:")
    for k in COLD_STAGES:
        lines.append(f"  {k:<13} {cold[k][fastest]:.4f} / {_median(cold[k]):.4f}")
    within = unattributed <= max(abs(overhead), 0.02)
    lines.append(
        f"traced cold_s {traced:.4f} vs untraced {untraced:.4f}: overhead {overhead:+.3f}; "
        f"named stages cover {named / untraced:.3f} of untraced cold_s and leave "
        f"{unattributed:.3f} of the traced load unattributed "
        f"({'within' if within else 'outside'} the overhead)"
    )
    return m


def per_layer_reads(measured, served: Served, spans, lines) -> dict:
    m = {}
    open_engine = [s for s in spans if s[0] == "QueryEngine.execute" and s[4] != LD.CLOSED_CTX]
    closed_engine = [s for s in spans if s[0] == "QueryEngine.execute" and s[4] == LD.CLOSED_CTX]
    traced_reads = int((served.reads & served.traced).sum())
    m["service.engine.calls_per_1k_reads"] = metric(
        1e3 * len(open_engine) / max(traced_reads, 1), "count")
    m["service.engine.items_per_call"] = metric(
        np.mean([s[5]["items"] for s in open_engine]) if open_engine else float("nan"), "count")
    m["service.engine.call_us_p50"] = metric(
        _median([s[2] - s[1] for s in open_engine]) / 1e3, "us")
    m["service.engine.closed_items_per_call"] = metric(
        np.mean([s[5]["items"] for s in closed_engine]) if closed_engine else float("nan"),
        "count")
    m["service.engine.closed_call_us_p50"] = metric(
        _median([s[2] - s[1] for s in closed_engine]) / 1e3, "us")
    sel = served.reads & served.ok & served.traced & ~served.hit & (served.engine_ns >= 0)
    wait = (served.done - served.issue)[sel] * 1e3 - served.engine_ns[sel] / 1e6
    m["service.server.wait_ms_p50"] = metric(percentile(wait, 50), "ms")
    m["service.server.wait_ms_p90"] = metric(percentile(wait, 90), "ms")
    m["service.server.cache_hit_ratio"] = metric(served.hit[served.reads].mean(), "ratio")
    m["service.server.loop_busy_share"] = metric(
        measured["open"]["cpu_s"] / measured["open"]["wall_s"], "ratio")
    m["service.server.rejected"] = metric((served.status == LD.REJECTED).sum(), "count")
    m["service.server.timeouts"] = metric((served.status == LD.TIMEOUT).sum(), "count")
    late = (served.issue - served.due) * 1e3
    m["driver.late_p99_ms"] = metric(percentile(late, 99), "ms")
    reads = served.read_ms()
    m["driver.read_p99_ms"] = metric(percentile(reads, 99), "ms")
    m["driver.read_samples"] = metric(reads.size, "count")
    qps_u, qps_t = _best_qps(measured["closed"], 0), _best_qps(measured["closed"], 1)
    p50_u, p50_t = percentile(served.read_ms(False), 50), percentile(served.read_ms(True), 50)
    m["trace.read_overhead_share"] = metric(p50_t / p50_u - 1.0, "ratio")
    lines.append(
        f"tracing overhead: read p50 {p50_t:.3f} traced vs {p50_u:.3f} ms untraced; "
        f"closed-loop {qps_t:.0f} traced vs {qps_u:.0f} reads/s untraced"
    )
    return m


def per_layer_writes(measured, served: Served, spans, lines) -> dict:
    m = {}
    _, per, _ = tracing.per_root_totals(spans, {"bench.write"}, WRITE_STAGES)
    ms = {k: v / 1e6 for k, v in per.items()}
    m["graphs.csr.build_ms_per_write"] = metric(_median(ms["csr"]), "ms")
    m["service.artifacts.save_ms_per_write"] = metric(_median(ms["save"]), "ms")
    m["graphs.tree_queries.index_build_ms_per_write"] = metric(_median(ms["index"]), "ms")
    m["mst.dynamic.repair_ms"] = metric(_median(ms["repair"]), "ms")
    m["mst.dynamic.export_ms"] = metric(_median(ms["export"]), "ms")
    _, total, _ = tracing.per_root_totals(spans, {"bench.write"}, {"core": WRITE_STAGES["core"]},
                                          self_time=False)
    core_ms = total["core"] / 1e6
    m["service.core.write_exec_ms_p50"] = metric(percentile(core_ms, 50), "ms")
    m["service.core.write_exec_ms_p90"] = metric(percentile(core_ms, 90), "ms")
    wait = (served.issue - served.due)[served.is_write] * 1e3
    m["service.core.write_wait_ms_p50"] = metric(percentile(wait, 50), "ms")
    m["service.core.write_wait_ms_p90"] = metric(percentile(wait, 90), "ms")
    exec_s = (served.done - served.issue)[served.is_write].sum()
    m["service.core.write_duty"] = metric(exec_s / measured["mixed"]["wall_s"], "ratio")
    w_u, w_t = percentile(served.write_ms(False), 50), percentile(served.write_ms(True), 50)
    m["trace.write_overhead_share"] = metric(w_t / w_u - 1.0, "ratio")
    lines.append("write stage self times, median over traced writes (ms):")
    for k in WRITE_STAGES:
        lines.append(f"  {k:<13} {_median(ms[k]):.3f}")
    lines.append(f"tracing overhead: write p50 {w_t:.3f} traced vs {w_u:.3f} ms untraced")
    return m
