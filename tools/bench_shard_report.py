"""Measure sharded-solver wall clock and write ``BENCH_shard.json``.

Run:  PYTHONPATH=src python tools/bench_shard_report.py [output-path]
      [--n N] [--m M] [--seed S] [--repeats R] [--shards 1,2,4,8]

Times :func:`repro.shard.sharded_mst` at each shard count against the
single-process solvers on one G(n, m) random graph (default 33k
vertices / 100k edges) and checks every configuration returns the
*identical* MSF edge-id set.  The sharded runs, timed and traced, use
the ``serial`` executor on every host: ``tools/bench_gate.py`` compares
a fresh run with the committed one, which holds only when both solved
the shards the same way.  Each entry's ``executor`` field records
``serial`` (``direct`` for one shard, which skips the partition).
Worker processes keep their coverage in ``tests/shard`` and CI's shard
smoke.  The committed ``BENCH_shard.json`` at the repo root is this
script's output on the default arguments.

The report keeps all baselines, including ones the sharded solver does
not beat: on a single-CPU host the win is algorithmic (the global
Boruvka-filter pre-pass banks certain MSF edges and contracts the
candidate set before any shard solves), not parallel, so honesty about
which single-process solvers remain faster matters.

Each shard count also gets one traced run: the observability spans
(``shard:filter`` / ``shard:partition`` / ``shard:solve-*`` /
``shard:merge``) are folded into a per-stage seconds breakdown, and
``filter_ratio`` records ``candidate_edges / m`` — the fraction of the
edge list that survives into the merge.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro._version import __version__
from repro.graphs.generators import gnm_random_graph
from repro.mst.registry import get_algorithm
from repro.obs.trace import Tracer, use_tracer
from repro.shard import leaked_segments, sharded_mst

# Single-process reference points; (name, mode) per the registry.
BASELINES = [
    ("kruskal", None),
    ("boruvka", "vectorized"),
    ("prim", "vectorized"),
    ("parallel-boruvka", "vectorized"),
    ("llp-boruvka", "vectorized"),
]


def _best_time(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


# Top-level coordinator stages worth a line in the report (worker-side
# sub-spans like shard:worker:N are deliberately excluded: the stage
# totals already cover them and stay comparable across executors).
_STAGE_SPANS = {
    "shard:filter": "filter",
    "shard:partition": "partition",
    "shard:solve-processes": "solve",
    "shard:solve-serial": "solve",
    "shard:solve-direct": "solve",
    "shard:merge": "merge",
}


def _traced_stages(fn) -> dict[str, float]:
    """One traced run of ``fn``; coordinator stage name -> seconds."""
    tracer = Tracer()
    with use_tracer(tracer):
        fn()
    stages: dict[str, float] = {}
    for sp in tracer.sorted_spans():
        stage = _STAGE_SPANS.get(sp.name)
        if stage is not None:
            stages[stage] = round(stages.get(stage, 0.0) + sp.duration_ns / 1e9, 6)
    return stages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("output", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_shard.json")
    parser.add_argument("--n", type=int, default=33_000, help="vertices")
    parser.add_argument("--m", type=int, default=100_000, help="edges")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--shards", type=lambda s: [int(x) for x in s.split(",")],
                        default=[1, 2, 4, 8], help="comma-separated shard counts")
    parser.add_argument("--partition", default="hash",
                        choices=("hash", "range", "block"))
    args = parser.parse_args(argv)

    g = gnm_random_graph(args.n, args.m, seed=args.seed)
    g.py_adjacency  # prewarm the caches every solver shares
    g.min_rank_per_vertex
    g.edge_by_rank

    reference = None
    baselines = {}
    for name, mode in BASELINES:
        algo = get_algorithm(name, mode=mode)
        secs, res = _best_time(lambda: algo(g), args.repeats)
        label = f"{name}/{mode}" if mode else name
        baselines[label] = {"seconds": round(secs, 6)}
        ids = frozenset(int(e) for e in res.edge_ids)
        if reference is None:
            reference = ids
        elif ids != reference:
            print(f"FATAL: {label} disagrees on the MSF", file=sys.stderr)
            return 1
        print(f"baseline {label:30s} {secs * 1e3:9.2f} ms")

    vec_best = min(v["seconds"] for k, v in baselines.items() if "/" in k)
    sharded = {}
    for k in args.shards:
        def solve():
            return sharded_mst(g, n_shards=k, partition=args.partition,
                               executor="serial")

        secs, res = _best_time(solve, args.repeats)
        if frozenset(int(e) for e in res.edge_ids) != reference:
            print(f"FATAL: sharded x{k} diverged from the oracle", file=sys.stderr)
            return 1
        candidate_edges = int(res.stats.get("candidate_edges", 0))
        executor = str(res.stats.get("executor", "auto"))
        entry = {
            "seconds": round(secs, 6),
            "executor": executor,
            "candidate_edges": candidate_edges,
            "filter_chosen": int(res.stats.get("filter_chosen", 0)),
            "filter_ratio": round(candidate_edges / args.m, 6),
            "merge_seconds": float(res.stats.get("merge_seconds", 0.0)),
            "stages": _traced_stages(solve),
        }
        wins = sorted(
            label for label, b in baselines.items()
            if "/" in label and secs < b["seconds"]
        )
        entry["beats_vectorized_baselines"] = wins
        sharded[str(k)] = entry
        print(f"sharded  x{k} ({executor:7s}){'':18s}{secs * 1e3:9.2f} ms   "
              f"beats: {', '.join(wins) or '-'}")

    if leaked_segments():
        print("FATAL: leaked shared-memory segments", file=sys.stderr)
        return 1

    report = {
        "benchmark": "sharded multiprocess MST vs single-process solvers",
        "graph": {"generator": "gnm_random_graph", "n_vertices": args.n,
                  "n_edges": args.m, "seed": args.seed},
        "partition": args.partition,
        "repeats": args.repeats,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_version": __version__,
        "identical_edge_sets": True,
        "fastest_vectorized_baseline_seconds": round(vec_best, 6),
        "baselines": baselines,
        "sharded": sharded,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[written: {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
