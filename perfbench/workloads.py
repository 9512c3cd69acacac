"""Workload definitions and seeded input generation.

Everything a run feeds the program comes from here and is a pure
function of ``(workload, seed, tiny)``: the graphs (built by the
product's own dataset generators) and the request streams (built by
this module's own NumPy generator).  Streams are generated for a fixed
horizon and sliced into the run's rounds, so their digests do not depend
on ``--seconds``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

KINDS = ("connected", "component", "component_size", "bottleneck", "replacement", "weight")
VERTEX_KINDS = (1, 2)  # component, component_size: one vertex, no v/w
REPLACEMENT, WEIGHT = 4, 5
INSERT, DELETE = 6, 7

DEFAULT_SEED = 0
HORIZON_S = 60.0  # longest run the streams cover (the contract's maximum)
CLOSED_LOOP_REQUESTS = 1 << 17
FIRST_ANSWERS_PER_KIND = 256


@dataclass(frozen=True)
class Workload:
    """One graph family; every workload runs the same three phases on it."""

    name: str
    dataset: str  # repro.bench.datasets registry id
    scale: int  # log2 vertices of the graph the load and read phases use
    write_scale: int  # log2 vertices of the graph the write phase mutates
    tiny_scale: int
    tiny_write_scale: int

    def graph_scale(self, tiny: bool) -> int:
        return self.tiny_scale if tiny else self.scale

    def write_graph_scale(self, tiny: bool) -> int:
        return self.tiny_write_scale if tiny else self.write_scale


WORKLOADS = {
    w.name: w
    for w in (
        # The road forest spans every vertex: index build and artifact save
        # weigh beside parse and solve.  A write on 2^11 costs about 30 ms.
        Workload("road", "usa-road", 14, 11, 10, 8),
        # About 12 edges per vertex and a forest of ~80% of the vertices:
        # parse and solve dominate.  A write on 2^10 costs about 30 ms.
        Workload("rmat", "graph500", 12, 10, 9, 8),
    )
}

# A run repeats the three phases in this many rounds; the shares of
# each round the phases run for, in this order.
ROUNDS = 5
LOAD_SHARE, READ_SHARE, WRITE_SHARE = 0.4, 0.35, 0.25
OPEN_SHARE = 0.7  # of the read phase; the closed loop takes the rest
# 250 reads/s is far below the coalescing worker's saturation; the hot
# pool puts about a quarter of reads in the result cache, so the gated
# p50 falls among cache misses.
READ_RATE, HOT_PROB, HOT_POOL = 250.0, 0.1, 256
CALLERS = 64  # closed-loop concurrent callers
# 6 writes/s of about 30 ms hold the loop inside writes about a fifth of
# the time, so reads no write blocked still make up the read p50.
MIXED_READ_RATE, WRITE_RATE = 200.0, 6.0

WARMUP_SCALE, TINY_WARMUP_SCALE = 10, 7


def build_graph(dataset: str, scale: int, seed: int):
    from repro.bench.datasets import build_dataset

    return build_dataset(dataset, scale, seed)


def graph_digest(g) -> str:
    h = hashlib.sha256()
    h.update(str(int(g.n_vertices)).encode())
    for arr, dt in ((g.edge_u, "<i8"), (g.edge_v, "<i8"), (g.edge_w, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
    return h.hexdigest()


def arrays_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _uniform_requests(rng, n_vertices, count, w_lo, w_hi, kinds=None):
    kind = rng.integers(0, len(KINDS), count) if kinds is None else kinds
    u = rng.integers(0, n_vertices, count)
    v = rng.integers(0, n_vertices, count)
    w = rng.uniform(w_lo, w_hi, count)
    return _normalize(kind, u, v, w)


def _normalize(kind, u, v, w):
    """Blank the fields a kind does not take (v=-1, w=nan mean "None")."""
    kind = np.asarray(kind, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64).copy()
    v = np.asarray(v, dtype=np.int64).copy()
    w = np.asarray(w, dtype=np.float64).copy()
    vertex = np.isin(kind, VERTEX_KINDS)
    v[vertex] = -1
    w[kind != REPLACEMENT] = np.nan
    u[kind == WEIGHT] = -1
    v[kind == WEIGHT] = -1
    return {"kind": kind, "u": u, "v": v, "w": w}


def first_answers(seed: int, n_vertices: int, w_lo: float, w_hi: float) -> dict:
    """The fixed batch every cold/warm load answers: every kind, same size."""
    rng = _rng(seed, 1)
    kinds = np.repeat(np.arange(len(KINDS)), FIRST_ANSWERS_PER_KIND)
    return _uniform_requests(rng, n_vertices, kinds.size, w_lo, w_hi, kinds)


def open_loop_reads(seed: int, stream: int, rate: float, hot_prob: float, hot_pool: int,
                    n_vertices: int, w_lo: float, w_hi: float) -> dict:
    """Poisson read arrivals over the horizon, with an optional Zipf hot pool."""
    rng = _rng(seed, stream)
    count = int(rate * HORIZON_S * 1.2) + 16
    t = np.cumsum(rng.exponential(1.0 / rate, count))
    reqs = _uniform_requests(rng, n_vertices, count, w_lo, w_hi)
    if hot_pool:
        pool = _uniform_requests(rng, n_vertices, hot_pool, w_lo, w_hi)
        ranks = np.arange(1, hot_pool + 1, dtype=np.float64)
        p = 1.0 / ranks**1.1
        pick = rng.choice(hot_pool, size=count, p=p / p.sum())
        hot = rng.random(count) < hot_prob
        for key in reqs:
            reqs[key][hot] = pool[key][pick[hot]]
    keep = t < HORIZON_S
    return {"t": t[keep], **{k: a[keep] for k, a in reqs.items()}}


def writes(seed: int, n_vertices: int, w_lo: float, w_hi: float) -> dict:
    """Insert/delete pairs on a jittered grid: exactly ``WRITE_RATE`` writes per second.

    Write ``j`` is due at ``(j + U(0,1)) / rate``; even writes insert a
    fresh edge and the following odd write deletes it again.
    """
    rng = _rng(seed, 3)
    count = int(math.ceil(WRITE_RATE * HORIZON_S / 2)) * 2
    t = (np.arange(count) + rng.random(count)) / WRITE_RATE
    pairs = count // 2
    u = rng.integers(0, n_vertices, pairs)
    v = (u + rng.integers(1, n_vertices, pairs)) % n_vertices  # never u
    w = rng.uniform(w_lo, w_hi, pairs)
    op = np.tile([INSERT, DELETE], pairs)
    return {
        "t": t,
        "kind": op.astype(np.int64),
        "u": np.repeat(u, 2).astype(np.int64),
        "v": np.repeat(v, 2).astype(np.int64),
        "w": np.repeat(w, 2),
    }


def closed_loop_reads(seed: int, n_vertices: int, w_lo: float, w_hi: float) -> dict:
    """Uniform reads the closed-loop callers take in order."""
    return _uniform_requests(_rng(seed, 4), n_vertices, CLOSED_LOOP_REQUESTS, w_lo, w_hi)


def _weights(g) -> tuple[float, float]:
    return float(g.edge_w.min()), float(g.edge_w.max())


def request_streams(seed: int, g, gw) -> dict[str, dict]:
    """Every request stream of one run, keyed by phase.

    ``g`` is the graph the load and read phases use, ``gw`` the one the
    write phase mutates.
    """
    n, (w_lo, w_hi) = g.n_vertices, _weights(g)
    streams = {
        "first_answers": first_answers(seed, n, w_lo, w_hi),
        "open": open_loop_reads(seed, 2, READ_RATE, HOT_PROB, HOT_POOL, n, w_lo, w_hi),
        "closed": closed_loop_reads(seed, n, w_lo, w_hi),
    }
    n, (w_lo, w_hi) = gw.n_vertices, _weights(gw)
    reads = open_loop_reads(seed, 5, MIXED_READ_RATE, 0.0, 0, n, w_lo, w_hi)
    wr = writes(seed, n, w_lo, w_hi)
    order = np.argsort(np.concatenate([reads["t"], wr["t"]]), kind="stable")
    streams["mixed"] = {k: np.concatenate([reads[k], wr[k]])[order] for k in reads}
    return streams


def flatten_streams(streams: dict[str, dict]) -> dict:
    """``{"phase.field": array}``, the form streams are saved and hashed in."""
    return {f"{phase}.{k}": a for phase, arrs in streams.items() for k, a in arrs.items()}


def unflatten_streams(flat: dict) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for key, arr in flat.items():
        phase, name = key.split(".", 1)
        out.setdefault(phase, {})[name] = arr
    return out


def streams_digest(streams: dict[str, dict]) -> str:
    return arrays_digest(flatten_streams(streams))
