"""Measure the vectorized-kernel speedup and write ``BENCH_kernels.json``.

Run:  PYTHONPATH=src python tools/bench_kernels_report.py [output-path]
      [--n N] [--m M] [--seed S] [--repeats R]

Times every algorithm that has a ``mode="vectorized"`` fast path in both
modes on one G(n, m) random graph (default 33k vertices / 100k edges —
the ISSUE target size), checks the two modes return the identical MSF
(edge-id set and total weight), and writes a JSON report with per-mode
best-of-R wall times and the speedup ratio.  The committed
``BENCH_kernels.json`` at the repo root is this script's output on the
default arguments.

Each algorithm also gets an ``auto`` entry: the mode the
:mod:`repro.mst.autotune` cost model selects for this graph shape, with
the selected mode's measured seconds (the dispatch itself is a
microsecond-scale table lookup).  ``auto_speedup`` is loop seconds over
auto seconds — below 1.0 means the cost model picked a regression, which
the report flags via ``auto_never_slower``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro._version import __version__
from repro.graphs.generators import gnm_random_graph
from repro.mst.autotune import choose_mode
from repro.mst.registry import (
    PARALLEL_ALGORITHMS,
    get_algorithm,
    list_algorithm_info,
)
from repro.runtime.simulated import SimulatedBackend


def _best_time(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("output", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json")
    parser.add_argument("--n", type=int, default=33_000, help="vertices")
    parser.add_argument("--m", type=int, default=100_000, help="edges")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    args = parser.parse_args(argv)

    g = gnm_random_graph(args.n, args.m, seed=args.seed)
    g.py_adjacency  # prewarm caches both modes share
    g.min_rank_per_vertex
    g.edge_by_rank

    algorithms = {}
    for info in list_algorithm_info():
        # "sharded" runs parallel-boruvka's kernels on every shard and
        # resolves "auto" per shard: no fast path or auto pick of its own.
        if not info.has_vectorized or info.name == "sharded":
            continue
        entry: dict = {}
        results = {}
        for mode in ("loop", "vectorized"):
            algo = get_algorithm(info.name, mode=mode)

            def run(algo=algo, name=info.name):
                backend = SimulatedBackend(4) if name in PARALLEL_ALGORITHMS else None
                return algo(g, backend=backend)

            secs, res = _best_time(run, args.repeats)
            entry[mode] = {"seconds": round(secs, 6)}
            results[mode] = res
        same_edges = results["loop"].edge_set() == results["vectorized"].edge_set()
        if not same_edges:
            print(f"FATAL: {info.name} modes disagree on the MSF", file=sys.stderr)
            return 1
        entry["speedup"] = round(entry["loop"]["seconds"] / entry["vectorized"]["seconds"], 2)
        entry["identical_edge_set"] = same_edges
        entry["mst_weight"] = round(results["loop"].total_weight, 6)
        entry["mst_edges"] = results["loop"].n_edges
        selected = choose_mode(info.name, args.n, args.m)
        entry["auto"] = {
            "selected_mode": selected,
            "seconds": entry[selected]["seconds"],
        }
        entry["auto_speedup"] = round(
            entry["loop"]["seconds"] / entry["auto"]["seconds"], 2
        )
        algorithms[info.name] = entry
        print(f"{info.name:18s} loop {entry['loop']['seconds']*1e3:9.2f} ms   "
              f"vectorized {entry['vectorized']['seconds']*1e3:8.2f} ms   "
              f"{entry['speedup']:6.1f}x   auto->{selected} "
              f"{entry['auto_speedup']:5.2f}x")

    report = {
        "benchmark": "vectorized kernel fast path, loop vs vectorized mode",
        "graph": {"generator": "gnm_random_graph", "n_vertices": args.n,
                  "n_edges": args.m, "seed": args.seed},
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_version": __version__,
        "auto_never_slower": all(
            e["auto_speedup"] >= 1.0 for e in algorithms.values()
        ),
        "algorithms": algorithms,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[written: {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
