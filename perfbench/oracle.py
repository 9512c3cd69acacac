"""Oracle checks, run in their own process after the measured one.

* cold/warm forest weight and edge count vs SciPy's minimum spanning tree;
* sampled ``connected``/``component_size``/``bottleneck`` answers vs a path
  walk over that oracle forest;
* warm answers byte-identical to cold answers;
* every answer of the read phase equal to the synchronous ``MSTService``
  batch answer for the same request;
* the write phase's final forest weight equal to the oracle forest of the
  final live edge set.

Writes ``verdict.json`` with ``{"correct": bool, "problems": [...]}``.

    python3 perfbench/oracle.py --tmp DIR
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from pathlib import Path

import numpy as np

import common
import loaddriver as LD
import workloads as W
from prep import oracle_forest

SAMPLED = 200  # first answers per kind checked by path walk
REL_TOL = 1e-9  # weight sums differ only by summation order


class ForestWalk:
    """Rooted oracle forest answering path queries by walking parent links."""

    def __init__(self, n: int, fu, fv, fw) -> None:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for a, b, w in zip(fu.tolist(), fv.tolist(), fw.tolist()):
            adj[a].append((b, w))
            adj[b].append((a, w))
        self.parent = [-1] * n
        self.pw = [0.0] * n
        self.depth = [0] * n
        self.comp = [-1] * n
        for root in range(n):
            if self.comp[root] >= 0:
                continue
            self.comp[root] = root
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for y, w in adj[x]:
                    if self.comp[y] < 0:
                        self.comp[y] = root
                        self.parent[y], self.pw[y] = x, w
                        self.depth[y] = self.depth[x] + 1
                        queue.append(y)
        self.size = np.bincount(np.asarray(self.comp), minlength=n)

    def bottleneck(self, u: int, v: int) -> float:
        if self.comp[u] != self.comp[v]:
            return float("inf")
        best = 0.0
        while u != v:
            if self.depth[u] < self.depth[v]:
                u, v = v, u
            best = max(best, self.pw[u])
            u = self.parent[u]
        return best


def _weight_ok(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check_loads(tmp: Path, meta: dict, streams, measured: dict, problems: list) -> None:
    meta = meta["graph"]
    loads = [ld for ld in measured["loads"] if ld["ok"]]
    for i, ld in enumerate(loads):
        weight_ok = _weight_ok(ld["weight"], meta["oracle_weight"])
        if not weight_ok or ld["edges"] != meta["oracle_edges"]:
            problems.append(
                f"load {i} ({ld['kind']}): forest weight {ld['weight']!r} / {ld['edges']} edges, "
                f"oracle {meta['oracle_weight']!r} / {meta['oracle_edges']}"
            )
    digests = {ld["digest"] for ld in loads}
    if len(digests) > 1:
        problems.append(f"answers differ between loads ({len(digests)} distinct digests)")
    answers = common.load_arrays(tmp / "answers.npz")
    if "cold" in answers and "warm" in answers and not np.array_equal(
        answers["cold"].view(np.uint64), answers["warm"].view(np.uint64)
    ):
        problems.append("warm answers are not byte-identical to cold answers")
    edges = common.load_arrays(tmp / "graph_edges.npz")
    walk = ForestWalk(meta["n_vertices"], edges["fu"], edges["fv"], edges["fw"])
    batch = streams["first_answers"]
    got = answers["cold"]
    for k in (0, 2, 3):  # connected, component_size, bottleneck
        idx = np.flatnonzero(batch["kind"] == k)[:SAMPLED]
        for i in idx.tolist():
            u, v = int(batch["u"][i]), int(batch["v"][i])
            if k == 0:
                want = float(walk.comp[u] == walk.comp[v])
            elif k == 2:
                want = float(walk.size[walk.comp[u]])
            else:
                want = walk.bottleneck(u, v)
            if got[i] != want:
                problems.append(
                    f"first answer {i} ({W.KINDS[k]} {u},{v}): got {got[i]!r}, oracle {want!r}"
                )
                return


def _sync_answers(svc, stream: dict, idx: np.ndarray) -> np.ndarray:
    """The synchronous ``MSTService`` batch answers for requests ``idx``."""
    from measure import answer_batch

    return answer_batch(svc, {k: stream[k][idx] for k in ("kind", "u", "v", "w")})


def check_reads(tmp: Path, meta: dict, streams, measured: dict, problems: list) -> None:
    import repro.graphs.io as gio
    from repro.service import MSTService

    meta = meta["graph"]
    svc = MSTService(tmp / "graph-store")
    artifact = svc.load_graph(gio.read_dimacs(tmp / "graph.gr"))
    if not _weight_ok(float(artifact.total_weight), meta["oracle_weight"]) or (
        artifact.n_forest_edges != meta["oracle_edges"]
    ):
        problems.append("served forest disagrees with the oracle forest")
    served = common.load_arrays(tmp / "served.npz")
    ok = np.flatnonzero(served["open_status"] == LD.OK)
    phases = [
        ("open-loop", streams["open"], ok, served["open_value"][ok]),
        ("closed-loop", streams["closed"], served["closed_answered"], served["closed_values"]),
    ]
    for label, stream, idx, got in phases:
        want = _sync_answers(svc, stream, idx)
        bad = np.flatnonzero(got != want)
        if bad.size:
            j = int(idx[bad[0]])
            problems.append(
                f"{bad.size} {label} answers differ from the synchronous batch answers; "
                f"first: request {j} ({W.KINDS[int(stream['kind'][j])]}) got {got[bad[0]]!r}, "
                f"expected {want[bad[0]]!r}"
            )


def check_writes(tmp: Path, meta: dict, streams, measured: dict, problems: list) -> None:
    meta = meta["write"]
    edges = common.load_arrays(tmp / "write_edges.npz")
    served = common.load_arrays(tmp / "served.npz")
    stream = streams["mixed"]
    status = served["mixed_status"]
    live = {}
    for i in np.flatnonzero(stream["kind"][: status.size] >= W.INSERT).tolist():
        if status[i] != LD.OK:
            continue
        key = (int(stream["u"][i]), int(stream["v"][i]), float(stream["w"][i]))
        if stream["kind"][i] == W.INSERT:
            live[key] = live.get(key, 0) + 1
        else:
            live[key] -= 1
    extra = [k for k, c in live.items() for _ in range(c)]
    u = np.concatenate([edges["u"], np.array([k[0] for k in extra], dtype=np.int64)])
    v = np.concatenate([edges["v"], np.array([k[1] for k in extra], dtype=np.int64)])
    w = np.concatenate([edges["w"], np.array([k[2] for k in extra], dtype=np.float64)])
    fu, _, fw = oracle_forest(meta["n_vertices"], u, v, w)
    weight_ok = _weight_ok(measured["final_weight"], float(fw.sum()))
    if not weight_ok or measured["final_edges"] != fu.size:
        problems.append(
            f"final forest weight {measured['final_weight']!r} / {measured['final_edges']} edges, "
            f"oracle of the final live edge set {float(fw.sum())!r} / {fu.size}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args(argv)
    tmp = args.tmp
    meta = common.read_json(tmp / "meta.json")
    streams = W.unflatten_streams(common.load_arrays(tmp / "streams.npz"))
    measured = common.read_json(tmp / "measured.json")
    problems: list[str] = []
    for check in (check_loads, check_reads, check_writes):
        check(tmp, meta, streams, measured, problems)
    common.write_json(tmp / "verdict.json", {"correct": not problems, "problems": problems})
    return 0


if __name__ == "__main__":
    sys.exit(main())
