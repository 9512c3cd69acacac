"""Input preparation, run in its own process before the measured one.

Generates the workload's two graphs and its request streams from the
seed, checks the default seed's digests against ``digests.json`` (so a
change to the generators cannot silently change a workload), writes the
DIMACS files, computes the oracle forests with SciPy, and fills the
artifact stores the measured process then loads warm.

    python3 perfbench/prep.py --workload road --seed 1 --tmp DIR [--tiny]
    python3 perfbench/prep.py --print-digests
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import common
import workloads as W

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def digest_key(name: str, tiny: bool) -> str:
    return f"{name}@tiny" if tiny else name


def inputs(wl: W.Workload, seed: int, tiny: bool):
    g = W.build_graph(wl.dataset, wl.graph_scale(tiny), seed)
    gw = W.build_graph(wl.dataset, wl.write_graph_scale(tiny), seed)
    return g, gw, W.request_streams(seed, g, gw)


def digests(wl: W.Workload, seed: int, tiny: bool, found=None) -> dict:
    g, gw, streams = found or inputs(wl, seed, tiny)
    return {
        "graph": W.graph_digest(g),
        "write_graph": W.graph_digest(gw),
        "requests": W.streams_digest(streams),
    }


def oracle_forest(n: int, u, v, w):
    """SciPy's minimum spanning forest of an edge set (parallel edges → min)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w, dtype=np.float64)
    a, b = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((w, b, a))
    a, b, w = a[order], b[order], w[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b, w = a[first], b[first], w[first]
    t = minimum_spanning_tree(coo_matrix((w, (a, b)), shape=(n, n)).tocsr()).tocoo()
    return t.row.astype(np.int64), t.col.astype(np.int64), t.data.astype(np.float64)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--tmp", type=Path)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--print-digests", action="store_true")
    args = ap.parse_args(argv)

    if args.print_digests:
        out = {
            digest_key(name, tiny): digests(wl, W.DEFAULT_SEED, tiny)
            for name, wl in W.WORKLOADS.items()
            for tiny in (False, True)
        }
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0

    from repro.graphs.io import read_dimacs, write_dimacs
    from repro.service import MSTService

    wl = W.WORKLOADS[args.workload]
    tmp: Path = args.tmp
    g, gw, streams = found = inputs(wl, args.seed, args.tiny)

    recorded = json.loads(DIGESTS.read_text()).get(digest_key(wl.name, args.tiny))
    if args.seed == W.DEFAULT_SEED:
        fresh = digests(wl, args.seed, args.tiny, found)
    else:
        fresh = digests(wl, W.DEFAULT_SEED, args.tiny)
    if fresh != recorded:
        print(
            f"input identity check failed for {wl.name}: generators now produce "
            f"{fresh}, digests.json records {recorded}",
            file=sys.stderr,
        )
        return 3

    warm_scale = W.TINY_WARMUP_SCALE if args.tiny else W.WARMUP_SCALE
    write_dimacs(W.build_graph(wl.dataset, warm_scale, args.seed), tmp / "warmup.gr")
    common.save_arrays(tmp / "streams.npz", W.flatten_streams(streams))
    meta = {}
    for name, graph in (("graph", g), ("write", gw)):
        write_dimacs(graph, tmp / f"{name}.gr")
        fu, fv, fw = oracle_forest(graph.n_vertices, graph.edge_u, graph.edge_v, graph.edge_w)
        common.save_arrays(
            tmp / f"{name}_edges.npz",
            {"u": graph.edge_u, "v": graph.edge_v, "w": graph.edge_w, "fu": fu, "fv": fv, "fw": fw},
        )
        meta[name] = {
            "n_vertices": int(graph.n_vertices),
            "n_edges": int(graph.n_edges),
            "graph_bytes": (tmp / f"{name}.gr").stat().st_size,
            "oracle_weight": float(fw.sum()),
            "oracle_edges": int(fu.size),
        }
        MSTService(tmp / f"{name}-store").load_graph(read_dimacs(tmp / f"{name}.gr"))
    common.write_json(tmp / "meta.json", meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
