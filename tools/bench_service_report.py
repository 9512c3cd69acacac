"""Measure query-service throughput and write ``BENCH_service.json``.

Run:  PYTHONPATH=src python tools/bench_service_report.py [output-path]
      [--n N] [--m M] [--seed S] [--queries Q] [--loop-queries L]

On one G(n, m) random graph (default 33k vertices / 100k edges) this
measures:

* **one-at-a-time loop** — scalar ``MSTService.bottleneck(u, v)`` calls,
  timed over ``--loop-queries`` pairs;
* **batched engine** — one ``bottleneck_many`` call over ``--queries``
  pairs (same distribution).

The committed ``BENCH_service.json`` at the repo root is this script's
output on the default arguments; its headline number is
``batched_speedup`` = batched throughput / loop throughput (the
acceptance bar is >= 10x).  Batched and loop answers are cross-checked
for equality on the shared prefix before timing is trusted.  Cold and
warm service starts are measured end to end by ``perfbench/``
(``cold_s``/``warm_s``).
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
from repro.service.core import MSTService


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("output", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_service.json")
    parser.add_argument("--n", type=int, default=33_000, help="vertices")
    parser.add_argument("--m", type=int, default=100_000, help="edges")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queries", type=int, default=200_000,
                        help="pairs per batched call")
    parser.add_argument("--loop-queries", type=int, default=2_000,
                        help="pairs for the one-at-a-time loop")
    args = parser.parse_args(argv)

    g = gnm_random_graph(args.n, args.m, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    us = rng.integers(0, args.n, args.queries)
    vs = rng.integers(0, args.n, args.queries)

    svc = MSTService()
    svc.load_graph(g)
    engine = svc.ensure_ready()

    # correctness first: batch and loop must agree on a shared prefix
    k = min(args.loop_queries, args.queries)
    batch_prefix = engine.bottleneck_many(us[:k], vs[:k])
    for i in range(k):
        got = svc.bottleneck(int(us[i]), int(vs[i]))
        if got != batch_prefix[i] and not (
            np.isinf(got) and np.isinf(batch_prefix[i])
        ):
            print(f"FATAL: loop/batch disagree at {i}: {got} vs "
                  f"{batch_prefix[i]}", file=sys.stderr)
            return 1

    t0 = time.perf_counter()
    for i in range(k):
        svc.bottleneck(int(us[i]), int(vs[i]))
    loop_s = time.perf_counter() - t0
    loop_qps = k / loop_s

    t0 = time.perf_counter()
    engine.bottleneck_many(us, vs)
    batch_s = time.perf_counter() - t0
    batch_qps = args.queries / batch_s

    speedup = batch_qps / loop_qps
    report = {
        "benchmark": "MSF query service: batched engine vs one-at-a-time loop",
        "graph": {"generator": "gnm_random_graph", "n_vertices": args.n,
                  "n_edges": args.m, "seed": args.seed},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_version": __version__,
        "bottleneck_queries": {
            "loop": {"queries": k, "seconds": round(loop_s, 6),
                     "qps": round(loop_qps, 1)},
            "batched": {"queries": args.queries, "seconds": round(batch_s, 6),
                        "qps": round(batch_qps, 1)},
            "batched_speedup": round(speedup, 2),
            "answers_cross_checked": k,
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"loop    {loop_qps:12.0f} q/s   batched {batch_qps:14.0f} q/s   "
          f"{speedup:8.1f}x")
    print(f"\n[written: {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
