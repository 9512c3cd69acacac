"""Command-line interface: ``python -m repro`` / ``repro-mst``.

Subcommands
-----------
``run``
    Regenerate a paper experiment (``table1``, ``fig2``, ``fig3``,
    ``fig4``, the ablations, or ``all``) and print its report.
``mst``
    Compute the MSF of a generated or loaded graph with a chosen
    algorithm and print summary statistics.
``solve``
    Solve any registered problem (``sssp``, ``cc``) on a generated or
    loaded graph, optionally through a content-addressed artifact store,
    and verify against the problem's independent oracle.
``query``
    Answer MSF queries (connectivity, components, bottleneck paths,
    cycle replacement) from a saved artifact or an artifact store.
    With ``--problem``, answer that problem's query kinds instead
    (``dist``/``parent``/``reached`` for SSSP; ``label``/``same``/
    ``component_size`` for CC).
``serve``
    Run the batched asyncio query service over a JSON-lines request
    stream (stdin or a file).  SIGINT stops intake, drains in-flight
    requests, and prints a final metrics summary line.
``load``
    Drive scenario traffic at the async service: ``run`` a seeded
    open-loop scenario, ``record`` its JSONL event log, ``replay`` a
    recorded log, or ``soak`` with fault families injected under load.
``check``
    Run the differential-oracle / fault-injection / adversarial-schedule
    harness; failing graphs are shrunk to hand-checkable pytest repros.
``trace``
    Re-run ``mst``/``solve``/``query``/``serve``/``check`` with
    observability tracing enabled and write a Perfetto-loadable Chrome
    trace.
``info``
    Show registered algorithms, problems, datasets, and version
    information.

``mst``, ``solve``, ``query``, ``serve``, and ``check`` also accept ``--trace`` /
``--trace-out`` / ``--trace-profile`` directly (the ``trace`` subcommand
is sugar over them).

Examples
--------
::

    python -m repro run fig3 --scale 13 --threads 1,2,4,8,16,32
    python -m repro run all --json-dir results/
    python -m repro mst --algo llp-prim --dataset usa-road --scale 12
    python -m repro mst --algo llp-boruvka --input graph.gr --workers 8
    python -m repro mst --algo kruskal --dataset usa-road --save msf.json
    python -m repro solve sssp --dataset usa-road --scale 10 --verify
    python -m repro solve cc --input graph.gr --store cache/ --save cc.npz
    python -m repro query --artifact msf.json --type bottleneck --pairs 0:5,2:7
    python -m repro query --problem sssp --dataset usa-road --scale 8 \\
        --type dist --vertices 3,5,8
    python -m repro serve --problem cc --dataset usa-road --queries reqs.jsonl
    python -m repro serve --dataset usa-road --scale 10 --queries reqs.jsonl
    python -m repro load run --scenario burst --duration 2 --rate 500
    python -m repro load record --scenario hot-key --out events.jsonl
    python -m repro load replay --events events.jsonl --dataset usa-road
    python -m repro load soak --duration 10 --faults artifact-corruption,worker-crash
    python -m repro check --seed 17 --graphs 200 --out-dir counterexamples/
    python -m repro check --self-test
    python -m repro trace --out t.json query --algo sharded \\
        --dataset graph500 --scale 10 --type connected --pairs 0:5
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    from repro.mst.registry import DEFAULT_ALGORITHM

    parser = argparse.ArgumentParser(
        prog="repro-mst",
        description="Reproduction of 'Parallel MST via Lattice Linear Predicate Detection'",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="regenerate a paper experiment")
    runp.add_argument("experiment", help="table1|fig2|fig3|fig4|ablation-*|all")
    runp.add_argument("--scale", type=int, default=None, help="log2 vertex count")
    runp.add_argument("--rmat-scale", type=int, default=None,
                      help="log2 vertex count for the graph500 dataset")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--repeats", type=int, default=3)
    runp.add_argument("--threads", type=_int_list, default=None,
                      help="comma-separated worker counts (fig3)")
    runp.add_argument("--json-dir", type=Path, default=None,
                      help="also write <experiment>.json files here")
    runp.add_argument("--svg-dir", type=Path, default=None,
                      help="also render each experiment's series as .svg charts")
    runp.add_argument("--markdown", action="store_true",
                      help="render tables as GitHub markdown")

    mstp = sub.add_parser("mst", help="compute an MSF")
    mstp.add_argument("--algo", default="llp-prim",
                      help="algorithm name; 'info' lists names and which "
                           "have a vectorized kernel mode")
    src = mstp.add_mutually_exclusive_group()
    src.add_argument("--dataset", default="usa-road", help="registered dataset name")
    src.add_argument("--input", type=Path, default=None,
                     help="graph file (.gr DIMACS, .mtx MatrixMarket, .tsv, .npz)")
    mstp.add_argument("--scale", type=int, default=None)
    mstp.add_argument("--seed", type=int, default=0)
    mstp.add_argument("--workers", type=int, default=1,
                      help="simulated workers for parallel algorithms")
    mstp.add_argument("--mode", choices=("loop", "vectorized", "auto"),
                      default="auto",
                      help="kernel mode: 'loop' (reference), 'vectorized' "
                           "(array-kernel fast path, where available), or "
                           "'auto' (default: pick per graph by the shipped "
                           "size and degree crossovers)")
    mstp.add_argument("--shards", type=int, default=0, metavar="N",
                      help="solve via the sharded multiprocess coordinator with "
                           "N shards (--algo becomes the per-shard local solver)")
    mstp.add_argument("--partition", choices=("hash", "range", "block"),
                      default="hash",
                      help="edge partition strategy for --shards")
    mstp.add_argument("--executor", choices=("auto", "process", "serial"),
                      default="auto",
                      help="--shards execution mode: 'process' forces worker "
                           "processes, 'serial' keeps everything in process, "
                           "'auto' decides by graph size")
    mstp.add_argument("--spill-dir", type=Path, default=None, metavar="DIR",
                      help="spill parser buffers and CSR arrays to memmap "
                           "files under DIR instead of RAM (paper-scale "
                           "inputs); with --shards, also spools arenas there")
    mstp.add_argument("--arena-backing", choices=("auto", "shm", "file"),
                      default="auto",
                      help="--shards arena placement: POSIX shared memory, "
                           "a file-backed spool, or 'auto' (default: file "
                           "when /dev/shm is too small for the edge arrays)")
    mstp.add_argument("--max-concurrent", type=int, default=None, metavar="K",
                      help="with --shards, keep at most K shard workers "
                           "live at once (streams the rest; bounds peak "
                           "resident memory)")
    mstp.add_argument("--verify", action="store_true",
                      help="verify the output against the Kruskal oracle")
    mstp.add_argument("--save", type=Path, default=None, metavar="PATH",
                      help="dump the computed MSF edge list as a JSON artifact "
                           "(consumable by 'repro query --artifact')")

    solvep = sub.add_parser(
        "solve", help="solve a registered problem (sssp, cc, ...)"
    )
    solvep.add_argument("problem",
                        help="registered problem name; 'info' lists them")
    psrc = solvep.add_mutually_exclusive_group()
    psrc.add_argument("--dataset", default="usa-road",
                      help="registered dataset name")
    psrc.add_argument("--input", type=Path, default=None,
                      help="graph file (.gr DIMACS, .mtx MatrixMarket, .tsv, .npz)")
    solvep.add_argument("--scale", type=int, default=None)
    solvep.add_argument("--seed", type=int, default=0)
    solvep.add_argument("--mode", choices=("loop", "vectorized", "auto"),
                        default="auto",
                        help="execution mode: 'loop' (pure-Python reference), "
                             "'vectorized' (NumPy kernels), or 'auto' "
                             "(default: vectorized past the size threshold)")
    solvep.add_argument("--source", type=int, default=0,
                        help="source vertex (problems with a 'source' "
                             "parameter, e.g. sssp)")
    solvep.add_argument("--store", type=Path, default=None,
                        help="artifact-store directory (compute-once cache)")
    solvep.add_argument("--verify", action="store_true",
                        help="verify the result against the problem's oracle")
    solvep.add_argument("--save", type=Path, default=None, metavar="PATH",
                        help="write the solved artifact as .npz (consumable "
                             "by 'repro query --problem ... --artifact')")

    queryp = sub.add_parser("query", help="answer MSF queries from an artifact")
    queryp.add_argument("--problem", default=None,
                        help="serve a registered problem's artifact instead "
                             "of the MSF (sssp, cc); changes the admissible "
                             "--type values")
    queryp.add_argument("--source", type=int, default=0,
                        help="with --problem sssp: the solve source vertex")
    qsrc = queryp.add_mutually_exclusive_group()
    qsrc.add_argument("--artifact", type=Path, default=None,
                      help="saved artifact file (.json from 'mst --save', or .npz)")
    qsrc.add_argument("--dataset", default=None, help="registered dataset name")
    qsrc.add_argument("--input", type=Path, default=None,
                      help="graph file (.gr/.mtx/.tsv/.npz)")
    queryp.add_argument("--store", type=Path, default=None,
                        help="artifact-store directory (compute-once cache)")
    queryp.add_argument("--algo", default=DEFAULT_ALGORITHM,
                        help="algorithm for cache misses ('sharded' runs "
                             "the sharded coordinator)")
    queryp.add_argument("--mode", choices=("loop", "vectorized", "auto"),
                        default="auto")
    queryp.add_argument("--scale", type=int, default=None)
    queryp.add_argument("--seed", type=int, default=0)
    queryp.add_argument("--type", dest="qtype", default=None,
                        help="connected|component|component_size|bottleneck|"
                             "replacement|weight (default connected); with "
                             "--problem: that problem's kinds, e.g. "
                             "dist|parent|reached or label|same|component_size")
    queryp.add_argument("--pairs", type=_pair_list, default=None,
                        help="comma-separated u:v pairs, e.g. 0:5,2:7")
    queryp.add_argument("--vertices", type=_int_list, default=None,
                        help="comma-separated vertex ids (component queries)")
    queryp.add_argument("--edges", type=_edge_list, default=None,
                        help="comma-separated u:v:w triples (replacement queries)")

    servep = sub.add_parser("serve", help="run the batched async query service")
    servep.add_argument("--problem", default=None,
                        help="serve a registered problem (sssp, cc) instead "
                             "of the MSF; request 'op' values become that "
                             "problem's query kinds")
    servep.add_argument("--source", type=int, default=0,
                        help="with --problem sssp: the solve source vertex")
    ssrc = servep.add_mutually_exclusive_group()
    ssrc.add_argument("--dataset", default="usa-road", help="registered dataset name")
    ssrc.add_argument("--input", type=Path, default=None,
                      help="graph file (.gr/.mtx/.tsv/.npz)")
    servep.add_argument("--scale", type=int, default=None)
    servep.add_argument("--seed", type=int, default=0)
    servep.add_argument("--algo", default=DEFAULT_ALGORITHM)
    servep.add_argument("--mode", choices=("loop", "vectorized", "auto"),
                        default="auto")
    servep.add_argument("--store", type=Path, default=None,
                        help="artifact-store directory (warm starts skip the solve)")
    servep.add_argument("--queries", type=Path, default=None,
                        help="JSON-lines request file (default: stdin); each line "
                             'like {"op": "connected", "u": 0, "v": 5}')
    servep.add_argument("--max-batch", type=int, default=256,
                        help="coalesce at most this many requests per batch")
    servep.add_argument("--metrics", action="store_true",
                        help="print the service metrics report to stderr at exit")
    servep.add_argument("--multi", action="store_true",
                        help="multi-tenant mode: serve every graph registered "
                             "under --root; request lines carry 'tenant' and "
                             "'graph' fields and quota rejections come back as "
                             "structured 429-style records")
    servep.add_argument("--root", type=Path, default=None,
                        help="platform root directory (holds platform.json and "
                             "the shared artifact stores); required with --multi")

    tenantp = sub.add_parser(
        "tenant", help="manage the multi-tenant platform manifest"
    )
    tsub = tenantp.add_subparsers(dest="tenant_command", required=True)
    tadd = tsub.add_parser("add", help="register a tenant with its quota")
    trm = tsub.add_parser("rm", help="remove a tenant and its graphs")
    tlist = tsub.add_parser("list", help="list tenants and their graphs")
    tstats = tsub.add_parser(
        "stats", help="show each tenant's quota and registered graphs from a "
                      "fresh boot of the manifest (a session's live counters "
                      "are what 'serve --multi' prints at exit and writes "
                      "with --metrics-out)")
    tgraph = tsub.add_parser("add-graph", help="register a graph for a tenant")
    trmgraph = tsub.add_parser("rm-graph", help="remove one tenant graph")
    for p in (tadd, trm, tlist, tstats, tgraph, trmgraph):
        p.add_argument("--root", type=Path, required=True,
                       help="platform root directory")
    for p in (tadd, trm, tstats, tgraph, trmgraph):
        p.add_argument("name", nargs="?" if p is tstats else None,
                       help="tenant name")
    tadd.add_argument("--max-graphs", type=int, default=8,
                      help="hard cap on registered graphs (0 = unlimited)")
    tadd.add_argument("--resident-budget", type=int, default=4,
                      help="soft cap on resident query engines (LRU past it)")
    tadd.add_argument("--max-queue-depth", type=int, default=256,
                      help="max in-flight requests (0 = unlimited)")
    tadd.add_argument("--rate-qps", type=float, default=0.0,
                      help="token-bucket refill rate (0 disables rate limiting)")
    tadd.add_argument("--burst", type=float, default=1.0,
                      help="token-bucket capacity (max burst size)")
    tgraph.add_argument("graph", help="graph name (unique within the tenant)")
    tgsrc = tgraph.add_mutually_exclusive_group(required=True)
    tgsrc.add_argument("--input", type=Path, default=None,
                       help="graph file (.gr/.mtx/.tsv/.npz)")
    tgsrc.add_argument("--gnm", default=None, metavar="N:M[:SEED]",
                       help="random G(n,m) generator spec")
    tgsrc.add_argument("--grid", default=None, metavar="R:C[:SEED]",
                       help="grid generator spec")
    tgsrc.add_argument("--dataset", default=None,
                       help="registered bench dataset name")
    tgraph.add_argument("--scale", type=int, default=None,
                        help="with --dataset: dataset scale")
    tgraph.add_argument("--seed", type=int, default=0,
                        help="with --dataset: dataset seed")
    tgraph.add_argument("--problem", default="mst",
                        help="what to solve and serve (mst, sssp, cc)")
    tgraph.add_argument("--source", type=int, default=0,
                        help="with --problem sssp: the solve source vertex")
    tgraph.add_argument("--algo", default=DEFAULT_ALGORITHM,
                        help="MST algorithm for problem=mst ('sharded' runs "
                             "the sharded coordinator)")
    tgraph.add_argument("--mode", choices=("loop", "vectorized", "auto"),
                        default="auto")
    trmgraph.add_argument("graph", help="graph name to remove")
    tlist.add_argument("--json", action="store_true",
                       help="print the manifest-backed listing as JSON")
    tstats.add_argument("--json", action="store_true",
                        help="print the statistics as JSON")

    loadp = sub.add_parser(
        "load", help="drive scenario load at the async service"
    )
    lsub = loadp.add_subparsers(dest="load_command", required=True)
    lrun = lsub.add_parser("run", help="expand a scenario and drive it open-loop")
    lrecord = lsub.add_parser(
        "record", help="run a scenario and write its JSONL event log"
    )
    lreplay = lsub.add_parser(
        "replay", help="re-offer a recorded JSONL event log"
    )
    lsoak = lsub.add_parser(
        "soak", help="sustained load with fault families injected under it"
    )
    for p in (lrun, lrecord):
        p.add_argument("--scenario", default="steady",
                       help="scenario preset name (see docs/load.md)")
    for p in (lrun, lrecord, lreplay):
        lsrc = p.add_mutually_exclusive_group()
        lsrc.add_argument("--dataset", default="usa-road",
                          help="registered dataset name")
        lsrc.add_argument("--input", type=Path, default=None,
                          help="graph file (.gr/.mtx/.tsv/.npz)")
        p.add_argument("--scale", type=int, default=None)
        p.add_argument("--algo", default=DEFAULT_ALGORITHM)
        p.add_argument("--seed", type=int, default=0,
                       help="scenario and dataset seed")
        p.add_argument("--duration", type=float, default=None, metavar="S",
                       help="override the scenario's duration")
        p.add_argument("--rate", type=float, default=None, metavar="QPS",
                       help="override the scenario's offered rate")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="override the per-request deadline")
        p.add_argument("--time-scale", type=float, default=1.0,
                       help="compress (<1) or stretch (>1) the schedule")
        p.add_argument("--max-pending", type=int, default=1024,
                       help="service queue bound (rejections past this)")
        p.add_argument("--json", action="store_true",
                       help="print the machine-readable result to stdout")
    lrecord.add_argument("--out", type=Path, required=True, metavar="PATH",
                         help="JSONL event log output path")
    lreplay.add_argument("--events", type=Path, required=True, metavar="PATH",
                         help="recorded JSONL event log to re-offer")
    lsoak.add_argument("--scenario", default="soak",
                       help="scenario preset name (default: soak)")
    lsoak.add_argument("--duration", type=float, default=None, metavar="S")
    lsoak.add_argument("--rate", type=float, default=None, metavar="QPS")
    lsoak.add_argument("--seed", type=int, default=0)
    lsoak.add_argument("--n", type=int, default=400, help="soak graph vertices")
    lsoak.add_argument("--m", type=int, default=1600, help="soak graph edges")
    lsoak.add_argument("--faults", type=_str_list,
                       default=["artifact-corruption", "worker-crash"],
                       help="comma-separated fault families ('' disables); "
                            "artifact-corruption|worker-crash|worker-hang")
    lsoak.add_argument("--store", type=Path, default=None,
                       help="artifact-store directory (default: a temp dir)")
    lsoak.add_argument("--time-scale", type=float, default=1.0)
    lsoak.add_argument("--error-budget", type=float, default=0.1,
                       help="max tolerated failure fraction of offered load")
    lsoak.add_argument("--out", type=Path, default=None, metavar="PATH",
                       help="write the SLO report JSON here")
    lsoak.add_argument("--events-out", type=Path, default=None, metavar="PATH",
                       help="also write the soak's JSONL event log here")
    lsoak.add_argument("--json", action="store_true",
                       help="print the SLO report to stdout")

    profp = sub.add_parser("profile", help="profile one algorithm run (cProfile hotspots)")
    profp.add_argument("--algo", default="llp-prim")
    profp.add_argument("--dataset", default="usa-road")
    profp.add_argument("--scale", type=int, default=None)
    profp.add_argument("--seed", type=int, default=0)
    profp.add_argument("--workers", type=int, default=1)
    profp.add_argument("--mode", choices=("loop", "vectorized", "auto"),
                       default=None, help="kernel mode to profile")
    profp.add_argument("--top", type=int, default=15, help="hotspots to show")

    cmpp = sub.add_parser("compare", help="diff two saved experiment JSON dumps")
    cmpp.add_argument("old", type=Path)
    cmpp.add_argument("new", type=Path)
    cmpp.add_argument("--threshold", type=float, default=5.0,
                      help="report series points moving more than this percent")

    checkp = sub.add_parser(
        "check", help="run the differential-oracle and fault-injection harness"
    )
    checkp.add_argument("--seed", type=int, default=0,
                        help="master seed; a nightly run's seed replays locally")
    checkp.add_argument("--graphs", type=int, default=200,
                        help="generated graph cases for the differential matrix")
    checkp.add_argument("--max-size", type=int, default=20,
                        help="largest generated vertex count")
    checkp.add_argument("--algos", type=_str_list, default=None,
                        help="comma-separated algorithm names (default: all)")
    checkp.add_argument("--families", type=_str_list, default=None,
                        help="comma-separated graph families (default: all)")
    checkp.add_argument("--backends", type=_str_list, default=None,
                        help="comma-separated backend labels (default: all)")
    checkp.add_argument("--no-shrink", action="store_true",
                        help="report mismatches without delta-debugging them")
    checkp.add_argument("--skip-problems", action="store_true",
                        help="skip the registered-problem differential matrix "
                             "(sssp vs Dijkstra, cc vs union-find)")
    checkp.add_argument("--problems", type=_str_list, default=None,
                        help="comma-separated problem names for the problem "
                             "matrix (default: all registered)")
    checkp.add_argument("--skip-faults", action="store_true",
                        help="skip the service-layer fault-injection suite")
    checkp.add_argument("--skip-schedules", action="store_true",
                        help="skip the adversarial-schedule hunts")
    checkp.add_argument("--schedules", type=int, default=15,
                        help="adversarial schedules per hunt")
    checkp.add_argument("--out-dir", type=Path, default=None,
                        help="write shrunken counterexample repros and the JSON "
                             "summary here (created on demand)")
    checkp.add_argument("--json", action="store_true",
                        help="print the machine-readable summary to stdout")
    checkp.add_argument("--self-test", action="store_true",
                        help="plant a deliberately broken algorithm and prove "
                             "the harness detects and shrinks it")

    tracep = sub.add_parser(
        "trace", help="re-run mst/solve/query/serve/check with tracing enabled"
    )
    tracep.add_argument("--out", dest="trace_out", type=Path,
                        default=Path("trace.json"), metavar="PATH",
                        help="Chrome trace-event JSON output (default trace.json)")
    tracep.add_argument("--profile", dest="trace_profile", action="store_true",
                        help="attach cProfile hotspots to solver spans")
    tracep.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                        help="also write the flat metrics snapshot JSON here")
    tracep.add_argument("cmd", choices=("mst", "solve", "query", "serve", "check"),
                        help="subcommand to run under tracing")
    tracep.add_argument("rest", nargs=argparse.REMAINDER,
                        help="arguments forwarded to the subcommand")

    for p in (mstp, solvep, queryp, servep, checkp):
        _add_obs_flags(p)

    sub.add_parser("info", help="list algorithms and datasets")
    return parser


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to one subcommand parser."""
    grp = p.add_argument_group("observability")
    grp.add_argument("--trace", action="store_true",
                     help="record an observability trace of this run "
                          "(written to --trace-out, default trace.json)")
    grp.add_argument("--trace-out", type=Path, default=None, metavar="PATH",
                     help="Chrome trace-event JSON output path (implies --trace)")
    grp.add_argument("--trace-profile", action="store_true",
                     help="attach cProfile hotspots to solver spans "
                          "(implies --trace)")
    grp.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                     help="also write the flat metrics snapshot JSON here")


def _obs_session(args: argparse.Namespace):
    """Build the run's trace session from the shared observability flags.

    Returns an active :class:`~repro.obs.TraceSession` when any tracing
    flag was given, else the free :class:`~repro.obs.NullSession` — so
    untraced runs never import or pay for the tracer machinery beyond
    one attribute check.
    """
    from repro.obs import NullSession, TraceSession

    enabled = (
        getattr(args, "trace", False)
        or getattr(args, "trace_out", None) is not None
        or getattr(args, "trace_profile", False)
    )
    if not enabled:
        return NullSession()
    out = args.trace_out if args.trace_out is not None else Path("trace.json")
    return TraceSession(
        out, profile=args.trace_profile,
        metrics_path=getattr(args, "metrics_out", None),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return _cmd_trace(args)
    traced = {
        "mst": _cmd_mst,
        "solve": _cmd_solve,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "check": _cmd_check,
    }
    if args.command in traced:
        session = _obs_session(args)
        args.obs = session
        with session:
            rc = traced[args.command](args)
        if session.active:
            print(f"[trace written: {session.out_path} "
                  f"({session.n_spans} spans)]", file=sys.stderr)
        return rc
    if args.command == "tenant":
        return _cmd_tenant(args)
    if args.command == "load":
        return _cmd_load(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "info":
        return _cmd_info()
    raise AssertionError("unreachable")


def _cmd_trace(args: argparse.Namespace) -> int:
    """Sugar: forward to the chosen subcommand with tracing flags set."""
    forwarded = [args.cmd, "--trace", "--trace-out", str(args.trace_out)]
    if args.trace_profile:
        forwarded.append("--trace-profile")
    if args.metrics_out is not None:
        forwarded += ["--metrics-out", str(args.metrics_out)]
    rest = list(args.rest)
    if rest and rest[0] == "--":  # argparse REMAINDER keeps the separator
        rest = rest[1:]
    return main(forwarded + rest)


# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS

    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"available: {', '.join(ALL_EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    for name in names:
        fn = ALL_EXPERIMENTS[name]
        kwargs = _experiment_kwargs(name, args)
        t0 = time.perf_counter()
        result = fn(**kwargs)
        elapsed = time.perf_counter() - t0
        print(result.render(markdown=args.markdown))
        print(f"\n[{name} regenerated in {elapsed:.1f}s]\n")
        if args.json_dir is not None:
            args.json_dir.mkdir(parents=True, exist_ok=True)
            result.save(args.json_dir / f"{name}.json")
        if args.svg_dir is not None:
            from repro.bench.svg import save_experiment_figures

            for path in save_experiment_figures(result, args.svg_dir):
                print(f"[figure written: {path}]")
    return 0


def _experiment_kwargs(name: str, args: argparse.Namespace) -> dict:
    kwargs: dict = {"seed": args.seed}
    if name == "table1":
        kwargs.update(road_scale=args.scale, rmat_scale=args.rmat_scale)
    elif name == "fig2":
        kwargs.update(
            road_scale=args.scale, rmat_scale=args.rmat_scale, repeats=args.repeats
        )
    elif name == "fig3":
        kwargs.update(scale=args.scale)
        if args.threads:
            kwargs.update(threads=args.threads)
    elif name == "fig4":
        kwargs.update(road_scale=args.scale, rmat_scale=args.rmat_scale)
    elif name in ("ablation-early-fixing", "ablation-heaps", "ablation-weights"):
        kwargs.update(scale=args.scale, repeats=args.repeats)
    elif name == "ablation-pointer-jumping":
        kwargs.update(scale=args.scale)
    elif name == "seed-stability":
        kwargs.pop("seed", None)
        kwargs.update(scale=args.scale)
        if args.threads:
            kwargs.update(threads=args.threads)
    elif name == "gil-exhibit":
        kwargs.update(scale=args.scale)
        if args.threads:
            kwargs.update(threads=args.threads)
    elif name == "operation-census":
        kwargs.update(scale=args.scale, rmat_scale=args.rmat_scale)
    elif name in ("calibration", "kkt-comparison"):
        kwargs.update(scale=args.scale, repeats=args.repeats)
    elif name == "scaling-sizes":
        if args.scale:
            kwargs.update(scales=tuple(range(max(8, args.scale - 3), args.scale + 1)))
    return kwargs


def _cmd_mst(args: argparse.Namespace) -> int:
    from repro.bench.datasets import build_dataset
    from repro.errors import BenchmarkError
    from repro.mst.registry import PARALLEL_ALGORITHMS, get_algorithm
    from repro.runtime.simulated import SimulatedBackend

    if args.input is not None:
        g = _load_graph(args.input, spill_dir=args.spill_dir)
        source = str(args.input)
    else:
        g = build_dataset(args.dataset, args.scale, args.seed)
        source = f"{args.dataset} (scale={args.scale or 'default'}, seed={args.seed})"
    try:
        algo = get_algorithm(args.algo, mode=args.mode)
    except BenchmarkError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    backend = SimulatedBackend(args.workers) if args.algo in PARALLEL_ALGORITHMS else None

    if args.shards > 0:
        from repro.shard import sharded_mst

        t0 = time.perf_counter()
        try:
            result = sharded_mst(
                g, n_shards=args.shards, partition=args.partition,
                algorithm=args.algo, mode=args.mode, executor=args.executor,
                max_concurrent=args.max_concurrent,
                arena_backing=args.arena_backing,
                spool_dir=(str(args.spill_dir) if args.spill_dir else None),
            )
        except BenchmarkError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        result = algo(g, backend=backend)
        elapsed = time.perf_counter() - t0

    obs = getattr(args, "obs", None)
    if obs is not None and obs.active:
        from repro.obs import counters_provider, execution_trace_provider

        if backend is not None:
            obs.register("runtime.trace", execution_trace_provider(backend.trace))
        if result.stats:
            obs.register("mst.stats", counters_provider(result.stats))

    print(f"graph:     {source}  (n={g.n_vertices}, m={g.n_edges})")
    solver_note = (
        f" via sharded x{args.shards} ({args.partition})" if args.shards > 0 else ""
    )
    print(f"algorithm: {args.algo} [{args.mode or 'default'} mode]{solver_note}")
    print(f"forest:    {result.n_edges} edges, {result.n_components} component(s)")
    print(f"weight:    {result.total_weight:.6f}")
    print(f"wall time: {elapsed * 1e3:.2f} ms")
    if backend is not None:
        print(f"modelled:  {backend.modelled_time() * 1e3:.3f} ms at p={args.workers}")
    if result.stats:
        stats = ", ".join(f"{k}={v}" for k, v in sorted(result.stats.items()))
        print(f"stats:     {stats}")
    if args.verify:
        from repro.mst.verify import verify_minimum

        verify_minimum(g, result)
        print("verified:  edge set equals the unique MSF (Kruskal oracle)")
    if args.save is not None:
        from repro.service.artifacts import artifact_from_result, save_json_artifact

        # A sharded solve is recorded as the registry's "sharded" solver,
        # the name a served graph asks for it by.
        solved_by = "sharded" if args.shards > 0 else args.algo
        artifact = artifact_from_result(g, result, solved_by, args.mode)
        save_json_artifact(artifact, args.save)
        print(f"saved:     MSF artifact written to {args.save}")
    return 0


def _load_graph(path: Path, spill_dir: Path | None = None):
    from repro.graphs.io import read_dimacs, read_edge_tsv, read_matrix_market
    from repro.graphs.io.binary import load_npz

    suffix = path.suffix.lower()
    spill = {}
    if spill_dir is not None:
        spill_dir.mkdir(parents=True, exist_ok=True)
        spill = {"spill": True, "spill_dir": str(spill_dir),
                 "memmap_dir": str(spill_dir)}
    if suffix == ".gr":
        return read_dimacs(path, **spill)
    if suffix == ".mtx":
        return read_matrix_market(path)
    if suffix in (".tsv", ".txt"):
        return read_edge_tsv(path, **spill)
    if suffix == ".npz":
        return load_npz(path)
    raise SystemExit(f"unsupported graph format {suffix!r} (use .gr/.mtx/.tsv/.npz)")


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.service import ArtifactStore, save_npz_artifact, solve_artifact
    from repro.solve import get_oracle, problem_info

    try:
        info = problem_info(args.problem)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.input is not None:
        g = _load_graph(args.input)
        source = str(args.input)
    else:
        from repro.bench.datasets import build_dataset

        g = build_dataset(args.dataset, args.scale, args.seed)
        source = f"{args.dataset} (scale={args.scale or 'default'}, seed={args.seed})"
    params = _problem_params(args.problem, args.source)

    try:
        t0 = time.perf_counter()
        if args.store is not None:
            artifact, hit = ArtifactStore(args.store).get_or_compute(
                g, args.problem, args.mode, params=params
            )
            cache_note = f"  [{'warm' if hit else 'cold'} store {args.store}]"
        else:
            artifact = solve_artifact(g, args.problem, args.mode, params=params)
            cache_note = ""
        elapsed = time.perf_counter() - t0
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    print(f"graph:     {source}  (n={g.n_vertices}, m={g.n_edges})")
    print(f"problem:   {args.problem} [{args.mode} mode]{cache_note}")
    scalars = ", ".join(f"{k}={v}" for k, v in sorted(artifact.scalars.items()))
    print(f"result:    {scalars}")
    print(f"wall time: {elapsed * 1e3:.2f} ms")
    if args.verify:
        import numpy as np

        oracle = get_oracle(args.problem)(g, **params)
        expect = oracle.arrays()
        for name, arr in artifact.arrays.items():
            ref = expect[name]
            if arr.dtype != ref.dtype or not np.array_equal(arr, ref):
                print(f"VERIFY FAILED: array {name!r} differs from the "
                      f"{info.oracle} oracle", file=sys.stderr)
                return 1
        print(f"verified:  byte-identical to the {info.oracle} oracle")
    if args.save is not None:
        save_npz_artifact(artifact, args.save)
        print(f"saved:     problem artifact written to {args.save}")
    return 0


def _problem_params(problem: str, source: int) -> dict:
    """Solve parameters for ``problem`` from the CLI's ``--source``."""
    if problem == "mst":
        return {}
    from repro.solve.registry import problem_info

    return {"source": source} if "source" in problem_info(problem).params else {}


def _open_service(args: argparse.Namespace):
    """The service ``--problem`` names (the MSF service without one)."""
    from repro.service import service_for

    problem = args.problem or "mst"
    return service_for(
        problem, args.store, mode=args.mode,
        params=_problem_params(problem, args.source), algorithm=args.algo,
    )


def _artifact_banner(artifact) -> tuple[str, str]:
    """``(what solved it, its shape)`` for the query and serve banners."""
    if artifact.problem != "mst":
        scalars = ", ".join(f"{k}={v}" for k, v in sorted(artifact.scalars.items()))
        return artifact.problem, scalars
    return artifact.algorithm, (f"forest={artifact.n_forest_edges} edges, "
                                f"{artifact.n_components} components")


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    try:
        svc = _open_service(args)
        obs = getattr(args, "obs", None)
        if obs is not None and obs.active:
            from repro.obs import service_metrics_provider

            obs.register("service.metrics", service_metrics_provider(svc.metrics))
        if args.artifact is not None:
            artifact = svc.load_artifact(args.artifact)
            source = str(args.artifact)
        else:
            if args.input is not None:
                g = _load_graph(args.input)
                source = str(args.input)
            elif args.dataset is not None:
                from repro.bench.datasets import build_dataset

                g = build_dataset(args.dataset, args.scale, args.seed)
                source = f"{args.dataset} (scale={args.scale or 'default'})"
            else:
                print("query needs --artifact, --dataset, or --input", file=sys.stderr)
                return 2
            artifact = svc.load_graph(g)
        solved_by, shape = _artifact_banner(artifact)
        print(f"artifact:  {source}  [{solved_by}] "
              f"(n={artifact.n_vertices}, {shape})")
        if svc.problem == "mst":
            return _answer_queries(svc, args)
        return _answer_problem_queries(svc, args)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _answer_problem_queries(svc, args: argparse.Namespace) -> int:
    """Dispatch ``--type`` against a :class:`~repro.solve.ProblemService`."""
    kinds = svc.query_kinds
    kind = args.qtype or kinds[0]
    if kind not in kinds:
        print(f"unknown query type {kind!r} for problem {svc.problem!r}; "
              f"supported: {', '.join(kinds)}", file=sys.stderr)
        return 2
    if kind == "same":
        if not args.pairs:
            print("--type same needs --pairs u:v,...", file=sys.stderr)
            return 2
        us, vs = zip(*args.pairs)
        for (u, v), out in zip(args.pairs, svc.same_component(us, vs)):
            print(f"same {u}:{v} -> {bool(out)}")
        return 0
    if not args.vertices:
        print(f"--type {kind} needs --vertices v0,v1,...", file=sys.stderr)
        return 2
    fn = {
        "dist": svc.dist, "parent": svc.parent, "reached": svc.reached,
        "label": svc.label, "component_size": svc.component_size,
    }[kind]
    for v, out in zip(args.vertices, fn(args.vertices)):
        if kind == "dist":
            text = f"{float(out):g}"
        elif kind == "reached":
            text = str(bool(out))
        else:
            text = str(int(out))
        print(f"{kind} {v} -> {text}")
    return 0


def _answer_queries(svc, args: argparse.Namespace) -> int:
    kind = args.qtype or "connected"
    if kind == "weight":
        print(f"weight -> {svc.total_weight():.6f}")
        return 0
    if kind in ("component", "component_size"):
        if not args.vertices:
            print("--type component/component_size needs --vertices", file=sys.stderr)
            return 2
        fn = svc.component_id if kind == "component" else svc.component_size
        for v, out in zip(args.vertices, fn(args.vertices)):
            print(f"{kind} {v} -> {out}")
        return 0
    if kind == "replacement":
        if not args.edges:
            print("--type replacement needs --edges u:v:w,...", file=sys.stderr)
            return 2
        us, vs, ws = zip(*args.edges)
        for (u, v, w), out in zip(args.edges, svc.would_change_msf(us, vs, ws)):
            print(f"replacement {u}:{v}:{w:g} -> {bool(out)}")
        return 0
    if kind in ("connected", "bottleneck"):
        if not args.pairs:
            print(f"--type {kind} needs --pairs u:v,...", file=sys.stderr)
            return 2
        us, vs = zip(*args.pairs)
        outs = svc.connected(us, vs) if kind == "connected" else svc.bottleneck(us, vs)
        for (u, v), out in zip(args.pairs, outs):
            text = str(bool(out)) if kind == "connected" else f"{float(out):g}"
            print(f"{kind} {u}:{v} -> {text}")
        return 0
    print(f"unknown query type {kind!r}", file=sys.stderr)
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: answer a JSON-lines request stream for one graph.

    ``--multi`` hands over to :func:`_cmd_serve_multi`; both modes run
    the same loop, :func:`_serve_jsonl`.
    """
    from repro.errors import ReproError
    from repro.service.server import AsyncMSTService

    if args.multi:
        return _cmd_serve_multi(args)

    if args.input is not None:
        g = _load_graph(args.input)
    else:
        from repro.bench.datasets import build_dataset

        g = build_dataset(args.dataset, args.scale, args.seed)
    try:
        svc = _open_service(args)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    obs = getattr(args, "obs", None)
    if obs is not None and obs.active:
        from repro.obs import service_metrics_provider

        obs.register("service.metrics", service_metrics_provider(svc.metrics))
    t0 = time.perf_counter()
    artifact = svc.load_graph(g)
    load_s = time.perf_counter() - t0
    warm = svc.metrics.artifact_hits > 0
    _, shape = _artifact_banner(artifact)
    print(f"serving {artifact.fingerprint[:12]}... "
          f"(n={artifact.n_vertices}, {shape}) "
          f"[{'warm' if warm else 'cold'} load {load_s * 1e3:.1f} ms]",
          file=sys.stderr)

    def report() -> None:
        print(svc.metrics.summary_line(), file=sys.stderr)
        if args.metrics:
            print(svc.metrics.render(), file=sys.stderr)

    return _serve_jsonl(
        args, AsyncMSTService(svc, max_batch=args.max_batch), (), report
    )


def _serve_jsonl(args: argparse.Namespace, server, route: tuple[str, ...],
                 report) -> int:
    """The JSON-lines request/response loop both serve modes run.

    Reads ``--queries`` (or stdin), parses each non-empty line into
    ``(*route, op, u, v, w)`` — the positional arguments of the server's
    ``query`` — issues every well-formed request to ``server``, then
    writes one response record per line and calls ``report`` for the
    stderr summary.  A malformed line gets a
    structured error record in the stream; it never aborts the run or
    drops the requests coalesced around it.

    SIGINT contract: intake stops (no new request is issued), what is
    already in flight drains through the server's ``stop()`` (run by the
    context-manager exit), un-issued lines are answered with a structured
    "interrupted" record, and the exit code is 130.
    """
    import asyncio
    import json as _json

    from repro.errors import QuotaExceededError, ReproError

    lines = (args.queries.read_text() if args.queries is not None
             else sys.stdin.read()).splitlines()
    parsed: list[tuple[int, tuple | None, str | None]] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            parsed.append((lineno, *_parse_serve_request(line, _json, route)))

    async def run() -> tuple[dict, bool]:
        loop = asyncio.get_running_loop()
        stop_intake = asyncio.Event()
        uninstall = _install_sigint(loop, stop_intake.set)
        answers: dict[int, object] = {}
        interrupted = False
        try:
            async with server:
                async def one(lineno, request):
                    try:
                        answers[lineno] = await server.query(*request)
                    except QuotaExceededError as exc:
                        answers[lineno] = exc.to_record()
                    except ReproError as exc:
                        answers[lineno] = {"error": str(exc)}
                    except Exception as exc:  # malformed args the engine rejected
                        answers[lineno] = {"error": f"{type(exc).__name__}: {exc}"}

                tasks = []
                for lineno, request, _ in parsed:
                    if request is None:
                        continue
                    if stop_intake.is_set():
                        interrupted = True
                        break
                    tasks.append(asyncio.create_task(one(lineno, request)))
                    # Yield so the signal handler (and the batch worker)
                    # gets a turn between submissions.
                    await asyncio.sleep(0)
                if tasks:
                    await asyncio.gather(*tasks)
        finally:
            uninstall()
        return answers, interrupted

    try:
        answers, interrupted = asyncio.run(run())
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _write_responses(parsed, answers, (*route, "op", "u", "v", "w"), interrupted)
    report()
    return 130 if interrupted else 0


def _install_sigint(loop, handler) -> "callable":
    """Install ``handler`` as the loop's SIGINT callback; returns an uninstaller.

    Falls back to a no-op uninstaller on platforms/threads where asyncio
    signal handlers are unavailable (Windows, non-main threads) — there
    SIGINT keeps its default KeyboardInterrupt behaviour.  Tests
    monkeypatch this to simulate an interrupt mid-stream.
    """
    import signal

    try:
        loop.add_signal_handler(signal.SIGINT, handler)
    except (NotImplementedError, RuntimeError, ValueError):
        return lambda: None

    def uninstall() -> None:
        try:
            loop.remove_signal_handler(signal.SIGINT)
        except (NotImplementedError, RuntimeError, ValueError):
            pass

    return uninstall


def _write_responses(
    parsed: list, answers: dict, fields: tuple[str, ...], interrupted: bool
) -> None:
    """Print one strict-JSON response record per request line, in input order.

    The writer both serve modes share.  ``fields`` names the positions of a
    parsed request tuple (``None`` operands are left out of the record); a
    malformed line is answered with its line number and parse error, an
    un-issued one as interrupted, an error answer (a dict carrying
    ``error``, e.g. a quota rejection) merged into the record, anything
    else as ``result``.
    """
    from repro.service.server import response_line

    n_bad = 0
    for lineno, request, error in parsed:
        if request is None:
            n_bad += 1
            print(response_line({"line": lineno, "error": error}))
            continue
        record = {k: val for k, val in zip(fields, request) if val is not None}
        answer = answers.get(lineno)
        if lineno not in answers:
            record["error"] = "interrupted before issue (SIGINT)"
        elif isinstance(answer, dict) and "error" in answer:
            record.update(answer)
        else:
            record["result"] = answer
        print(response_line(record))
    if n_bad:
        print(f"{n_bad} malformed request line(s) answered with structured errors",
              file=sys.stderr)
    if interrupted:
        print("interrupted: intake stopped, in-flight requests drained",
              file=sys.stderr)


def _cmd_serve_multi(args: argparse.Namespace) -> int:
    """``serve --multi``: the multi-tenant JSONL request/response loop.

    Same stream contract as single-graph serve — one response record per
    request line, malformed lines answered in-stream, SIGINT stops
    intake and drains — with two additions: requests address
    ``tenant/graph`` names, and quota rejections come back as the
    structured 429-style record from
    :meth:`~repro.errors.QuotaExceededError.to_record` (``code``,
    ``reason``, ``retry_after_s``) so callers can back off per tenant.
    """
    from repro.errors import ReproError
    from repro.platform import MultiTenantServer, build_platform

    if args.root is None:
        print("serve --multi requires --root (the platform directory)",
              file=sys.stderr)
        return 2
    try:
        platform = build_platform(args.root)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    obs = getattr(args, "obs", None)
    if obs is not None and obs.active:
        for name, provider in platform.metrics_providers().items():
            obs.register(name, provider)
    n_graphs = sum(
        len(platform.tenant(t).graphs) for t in platform.tenants()
    )
    print(f"serving {n_graphs} graph(s) across "
          f"{len(platform.tenants())} tenant(s) from {args.root}",
          file=sys.stderr)

    def report() -> None:
        for tname in platform.tenants():
            state = platform.tenant(tname)
            print(f"[{tname}] {state.metrics.summary_line()} "
                  f"quota_rejected={state.rejected_rate + state.rejected_queue}",
                  file=sys.stderr)
        if args.metrics:
            for tname in platform.tenants():
                print(f"--- tenant {tname} ---", file=sys.stderr)
                print(platform.tenant(tname).metrics.render(), file=sys.stderr)

    return _serve_jsonl(
        args, MultiTenantServer(platform, max_batch=args.max_batch),
        ("tenant", "graph"), report,
    )


def _cmd_tenant(args: argparse.Namespace) -> int:
    """``tenant add|rm|list|stats|add-graph|rm-graph`` manifest management."""
    import json as _json

    from repro.errors import ReproError
    from repro.platform.manifest import load_manifest, save_manifest

    try:
        manifest = load_manifest(args.root)
        if args.tenant_command == "add":
            if args.name in manifest["tenants"]:
                print(f"tenant {args.name!r} already exists", file=sys.stderr)
                return 2
            from repro.platform.quota import TenantQuota

            quota = TenantQuota(
                max_graphs=args.max_graphs,
                resident_budget=args.resident_budget,
                max_queue_depth=args.max_queue_depth,
                rate_qps=args.rate_qps,
                burst=args.burst,
            )
            manifest["tenants"][args.name] = {
                "quota": quota.to_dict(), "graphs": {},
            }
            save_manifest(args.root, manifest)
            print(f"added tenant {args.name!r}")
            return 0
        if args.tenant_command == "rm":
            if manifest["tenants"].pop(args.name, None) is None:
                print(f"unknown tenant {args.name!r}", file=sys.stderr)
                return 2
            save_manifest(args.root, manifest)
            print(f"removed tenant {args.name!r}")
            return 0
        if args.tenant_command == "list":
            if args.json:
                print(_json.dumps(manifest, indent=2, sort_keys=True))
                return 0
            if not manifest["tenants"]:
                print("no tenants registered")
            for name, rec in sorted(manifest["tenants"].items()):
                quota = rec.get("quota") or {}
                graphs = sorted(rec.get("graphs") or {})
                print(f"{name}: {len(graphs)} graph(s)"
                      + (f" [{', '.join(graphs)}]" if graphs else "")
                      + f" quota(max_graphs={quota.get('max_graphs')}, "
                        f"rate_qps={quota.get('rate_qps')})")
            return 0
        if args.tenant_command == "add-graph":
            trec = manifest["tenants"].get(args.name)
            if trec is None:
                print(f"unknown tenant {args.name!r}", file=sys.stderr)
                return 2
            graphs = trec.setdefault("graphs", {})
            if args.graph in graphs:
                print(f"graph {args.name}/{args.graph} already exists",
                      file=sys.stderr)
                return 2
            if args.input is not None:
                source = {"path": str(args.input)}
            elif args.gnm is not None:
                n, m, *seed = (int(x) for x in args.gnm.split(":"))
                source = {"kind": "gnm", "n": n, "m": m,
                          "seed": seed[0] if seed else 0}
            elif args.grid is not None:
                r, c, *seed = (int(x) for x in args.grid.split(":"))
                source = {"kind": "grid", "rows": r, "cols": c,
                          "seed": seed[0] if seed else 0}
            else:
                source = {"kind": "dataset", "name": args.dataset,
                          "scale": args.scale, "seed": args.seed}
            from repro.platform.manifest import graph_from_spec

            g = graph_from_spec(source)  # validates the spec eagerly
            params = _problem_params(args.problem, args.source)  # validates the name
            if args.problem == "mst":
                from repro.mst.registry import algorithm_info

                algorithm_info(args.algo)  # validates the solver's name
            graphs[args.graph] = {
                "source": source, "problem": args.problem,
                "algorithm": args.algo, "mode": args.mode, "params": params,
            }
            save_manifest(args.root, manifest)
            print(f"added {args.name}/{args.graph} "
                  f"(n={g.n_vertices}, m={g.n_edges}, problem={args.problem})")
            return 0
        if args.tenant_command == "rm-graph":
            trec = manifest["tenants"].get(args.name)
            if trec is None or args.graph not in (trec.get("graphs") or {}):
                print(f"unknown graph {args.name}/{args.graph}", file=sys.stderr)
                return 2
            del trec["graphs"][args.graph]
            save_manifest(args.root, manifest)
            print(f"removed {args.name}/{args.graph}")
            return 0
        # stats: a fresh boot (warm from the shared store), so its request
        # counters are zero; a session's live ones are serve --multi's.
        from repro.platform import build_platform

        stats = build_platform(args.root).stats(args.name)
        if args.json:
            print(_json.dumps(stats, indent=2, sort_keys=True))
        else:
            _print_tenant_stats(stats, args.name)
        return 0
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _print_tenant_stats(stats: dict, name: str | None) -> None:
    """Human rendering of ``GraphPlatform.stats()`` output."""
    tenants = {name: stats} if name is not None else stats.get("tenants", {})
    for tname, rec in sorted(tenants.items()):
        rej = rec.get("rejected", {})
        print(f"tenant {tname}: admitted={rec.get('admitted', 0)} "
              f"rejected(rate={rej.get('rate', 0)}, queue={rej.get('queue', 0)}) "
              f"evictions={rec.get('evictions', 0)}")
        for gname, grec in sorted((rec.get("graphs") or {}).items()):
            print(f"  {gname}: problem={grec['problem']} "
                  f"n={grec['n_vertices']} m={grec['n_edges']} "
                  f"resident={grec['resident']}")


def _cmd_load(args: argparse.Namespace) -> int:
    """Dispatch the ``load`` subcommands (run/record/replay/soak)."""
    from repro.errors import ReproError

    try:
        if args.load_command == "soak":
            return _cmd_load_soak(args)
        return _cmd_load_drive(args)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_load_drive(args: argparse.Namespace) -> int:
    """``load run|record|replay``: offer one event stream open-loop."""
    import json as _json

    from repro.load import (
        get_scenario,
        read_events,
        replay_requests,
        request_stream_hash,
        run_scenario,
        write_events,
    )
    from repro.service import MSTService

    if args.input is not None:
        g = _load_graph(args.input)
    else:
        from repro.bench.datasets import build_dataset

        g = build_dataset(args.dataset, args.scale, args.seed)
    svc = MSTService(None, algorithm=args.algo)
    svc.load_graph(g)

    overrides: dict = {"seed": args.seed}
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.rate is not None:
        overrides["rate_qps"] = args.rate
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout

    events = None
    if args.load_command == "replay":
        # The schedule and operands come from the log; the scenario object
        # only carries the label, seed, and per-request deadline.
        import dataclasses

        events = replay_requests(read_events(args.events))
        scenario = dataclasses.replace(
            get_scenario("steady", **overrides), name="replay"
        )
    else:
        scenario = get_scenario(args.scenario, **overrides)

    result = run_scenario(
        svc, scenario, events=events, time_scale=args.time_scale,
        max_pending=args.max_pending,
    )
    stream_hash = request_stream_hash(result.events)

    if args.load_command == "record":
        write_events(result.events, args.out)
        print(f"[event log written: {args.out} ({len(result.events)} events)]",
              file=sys.stderr)
    if args.json:
        payload = result.to_dict()
        payload["stream_hash"] = stream_hash
        print(_json.dumps(payload, indent=2))
    else:
        d = result.to_dict()
        print(f"scenario={d['scenario']} seed={d['seed']} "
              f"offered={d['offered']} completed={d['completed']} "
              f"rejected={d['rejected']} timeouts={d['timeouts']} "
              f"errors={d['errors']} mutations={d['mutations']} "
              f"wall={d['wall_s']:.3f}s offered_qps={d['offered_qps']}")
        print(f"stream_hash={stream_hash}")
        print(svc.metrics.summary_line(), file=sys.stderr)
    return 0


def _cmd_load_soak(args: argparse.Namespace) -> int:
    """``load soak``: faults-under-load run; exit 0 iff the report is ok."""
    import json as _json

    from repro.load import run_soak
    from repro.load.report import write_report

    report = run_soak(
        scenario=args.scenario, duration_s=args.duration, rate_qps=args.rate,
        faults=tuple(args.faults), seed=args.seed, n_vertices=args.n,
        n_edges=args.m, store_dir=args.store, time_scale=args.time_scale,
        error_budget=args.error_budget, events_out=args.events_out,
    )
    if args.out is not None:
        write_report(report, args.out)
        print(f"[soak report written: {args.out}]", file=sys.stderr)
    if args.json:
        print(_json.dumps(report, indent=2))
    else:
        load = report["load"]
        print(f"soak scenario={load['scenario']} offered={load['offered']} "
              f"completed={load['completed']} rejected={load['rejected']} "
              f"timeouts={load['timeouts']} errors={load['errors']} "
              f"failure_rate={load['failure_rate']}")
        for fault in report["faults"]:
            verdict = "ok" if fault["ok"] else f"FAILED ({fault['detail']})"
            print(f"fault {fault['family']}: injected={fault['injected']} {verdict}")
        print(f"replay deterministic={report['replay']['deterministic']} "
              f"leaked_segments={len(report['leaked_segments'])} "
              f"ok={report['ok']}")
    return 0 if report["ok"] else 1


def _cmd_check(args: argparse.Namespace) -> int:
    import json as _json
    import tempfile

    from repro.errors import ReproError

    progress = lambda msg: print(f"[check] {msg}", file=sys.stderr)  # noqa: E731
    if args.self_test:
        return _check_self_test(args, progress)

    from repro.checking import (
        hunt_llp_schedules,
        hunt_mst_schedules,
        run_fault_suite,
        run_matrix,
        shrink_mismatch,
        to_pytest_repro,
    )

    summary: dict = {"seed": args.seed, "graphs": args.graphs}
    t0 = time.perf_counter()
    try:
        report = run_matrix(
            seed=args.seed, count=args.graphs, families=args.families,
            max_size=args.max_size, algorithms=args.algos,
            backends=args.backends, progress=progress,
        )
    except (ReproError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    summary["matrix"] = {
        "cases": report.cases_run,
        "checks": report.checks_run,
        "mismatches": [str(m) for m in report.mismatches],
    }
    obs = getattr(args, "obs", None)
    if obs is not None and obs.active:
        obs.register("check.matrix", lambda: {
            "cases": report.cases_run,
            "checks": report.checks_run,
            "mismatches": len(report.mismatches),
        })
    progress(
        f"matrix: {report.cases_run} cases, {report.checks_run} checks, "
        f"{len(report.mismatches)} mismatches "
        f"[{time.perf_counter() - t0:.1f}s]"
    )

    counterexamples: list[str] = []
    if report.mismatches and not args.no_shrink:
        for i, mismatch in enumerate(report.mismatches):
            shrunk = shrink_mismatch(mismatch)
            repro = to_pytest_repro(shrunk, test_name=f"test_counterexample_{i}")
            counterexamples.append(repro)
            progress(
                f"shrunk {mismatch.label} from "
                f"{shrunk.original_vertices} vertices to "
                f"{shrunk.graph.n_vertices} "
                f"({shrunk.predicate_calls} predicate calls)"
            )
    summary["counterexamples"] = counterexamples

    problem_mismatches: list = []
    if not args.skip_problems:
        from repro.checking import (
            run_problem_matrix,
            shrink_problem_mismatch,
            to_problem_pytest_repro,
        )

        t1 = time.perf_counter()
        try:
            preport = run_problem_matrix(
                seed=args.seed, count=args.graphs, families=args.families,
                max_size=args.max_size, problems=args.problems,
                progress=progress,
            )
        except (ReproError, KeyError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        problem_mismatches = preport.mismatches
        summary["problems"] = {
            "cases": preport.cases_run,
            "checks": preport.checks_run,
            "mismatches": [str(m) for m in preport.mismatches],
        }
        progress(
            f"problems: {preport.cases_run} cases, {preport.checks_run} checks, "
            f"{len(preport.mismatches)} mismatches "
            f"[{time.perf_counter() - t1:.1f}s]"
        )
        if preport.mismatches and not args.no_shrink:
            for i, mismatch in enumerate(preport.mismatches):
                shrunk = shrink_problem_mismatch(mismatch)
                repro = to_problem_pytest_repro(
                    shrunk, test_name=f"test_problem_counterexample_{i}"
                )
                counterexamples.append(repro)
                progress(
                    f"shrunk {mismatch.label} from "
                    f"{shrunk.original_vertices} vertices to "
                    f"{shrunk.graph.n_vertices} "
                    f"({shrunk.predicate_calls} predicate calls)"
                )
        summary["counterexamples"] = counterexamples

    if not args.skip_faults:
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            faults = run_fault_suite(args.out_dir / "faults", seed=args.seed)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
                faults = run_fault_suite(tmp, seed=args.seed)
        summary["faults"] = {
            "checks": faults.checks_run, "failures": faults.failures,
        }
        progress(f"faults: {faults.checks_run} checks, "
                 f"{len(faults.failures)} failures")

    if not args.skip_schedules:
        from repro.mst.registry import PARALLEL_ALGORITHMS

        llp = hunt_llp_schedules(seed=args.seed, n_schedules=args.schedules)
        par = (
            [a for a in args.algos if a in PARALLEL_ALGORITHMS]
            if args.algos else None
        )
        mst = hunt_mst_schedules(
            seed=args.seed, n_schedules=max(args.schedules // 3, 2),
            algorithms=par,
        )
        summary["schedules"] = {
            "runs": llp.runs + mst.runs,
            "failures": llp.failures + mst.failures,
        }
        progress(f"schedules: {llp.runs + mst.runs} runs, "
                 f"{len(llp.failures) + len(mst.failures)} failures")

    failed = bool(report.mismatches)
    failed |= bool(problem_mismatches)
    failed |= bool(summary.get("faults", {}).get("failures"))
    failed |= bool(summary.get("schedules", {}).get("failures"))
    summary["ok"] = not failed

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "check-summary.json").write_text(
            _json.dumps(summary, indent=2) + "\n"
        )
        for i, repro in enumerate(counterexamples):
            (args.out_dir / f"counterexample_{i}.py").write_text(repro)
        progress(f"summary and {len(counterexamples)} counterexample repro(s) "
                 f"written to {args.out_dir}")
    if args.json:
        print(_json.dumps(summary, indent=2))
    else:
        for mismatch in report.mismatches:
            print(str(mismatch))
        for mismatch in problem_mismatches:
            print(str(mismatch))
        for repro in counterexamples:
            print("\n" + repro)
        for line in summary.get("faults", {}).get("failures", []):
            print(f"fault: {line}")
        for line in summary.get("schedules", {}).get("failures", []):
            print(f"schedule: {line}")
        print("check: " + ("FAILED" if failed else "OK"))
    return 1 if failed else 0


def _check_self_test(args: argparse.Namespace, progress) -> int:
    """Plant a broken algorithm; the harness must find and shrink it."""
    from repro.checking import (
        BROKEN_ALGORITHM_NAME,
        broken_max_forest,
        run_matrix,
        shrink_mismatch,
        to_pytest_repro,
    )

    extra = {BROKEN_ALGORITHM_NAME: broken_max_forest}
    report = run_matrix(
        seed=args.seed, count=min(args.graphs, 40),
        algorithms=[BROKEN_ALGORITHM_NAME], extra_algorithms=extra,
        max_mismatches=1,
    )
    if report.ok:
        print("self-test FAILED: planted broken algorithm went undetected",
              file=sys.stderr)
        return 1
    mismatch = report.mismatches[0]
    progress(f"planted bug detected: {mismatch}")
    shrunk = shrink_mismatch(mismatch, extra_algorithms=extra)
    progress(
        f"shrunk from {shrunk.original_vertices} vertices / "
        f"{shrunk.original_edges} edges to {shrunk.graph.n_vertices} / "
        f"{shrunk.graph.n_edges} in {shrunk.predicate_calls} predicate calls"
    )
    if shrunk.graph.n_vertices > 8:
        print(f"self-test FAILED: counterexample stuck at "
              f"{shrunk.graph.n_vertices} vertices (> 8)", file=sys.stderr)
        return 1
    print(to_pytest_repro(shrunk, test_name="test_self_test_counterexample"))
    print("self-test OK: planted bug detected and shrunk to "
          f"{shrunk.graph.n_vertices} vertices")
    return 0


_MAX_REQUEST_BYTES = 64 * 1024


def _parse_serve_request(
    line: str, _json, route: tuple[str, ...] = ()
) -> tuple[tuple | None, str | None]:
    """Parse one JSON-lines request; returns ``(request, error)``.

    Exactly one of the pair is non-``None``.  Oversized lines, non-object
    payloads, missing/ill-typed fields all map to an error string instead
    of an exception so the serve loop can answer them in-stream.  The
    request tuple is ``(*route, op, u, v, w)``: ``route`` names required
    non-empty string fields — ``serve --multi``'s ``tenant`` and ``graph``.
    """
    if len(line.encode("utf-8", errors="replace")) > _MAX_REQUEST_BYTES:
        return None, f"request exceeds {_MAX_REQUEST_BYTES} bytes"
    try:
        req = _json.loads(line)
    except ValueError as exc:
        return None, f"invalid JSON: {exc}"
    if not isinstance(req, dict):
        return None, "request must be a JSON object"
    keys = tuple(req.get(name) for name in route)
    for name, val in zip(route, keys):
        if not isinstance(val, str) or not val:
            return None, f"missing or non-string {name!r}"
    op = req.get("op")
    if not isinstance(op, str):
        return None, "missing or non-string 'op'"
    u, v, w = req.get("u"), req.get("v"), req.get("w")
    for name, val in (("u", u), ("v", v)):
        if val is not None and (isinstance(val, bool) or not isinstance(val, int)):
            return None, f"'{name}' must be an integer"
    if w is not None and (isinstance(w, bool) or not isinstance(w, (int, float))):
        return None, "'w' must be a number"
    return (*keys, op, u, v, w), None


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.datasets import build_dataset
    from repro.bench.profiling import profile_callable
    from repro.errors import BenchmarkError
    from repro.mst.registry import PARALLEL_ALGORITHMS, get_algorithm
    from repro.runtime.simulated import SimulatedBackend

    g = build_dataset(args.dataset, args.scale, args.seed)
    g.py_adjacency
    g.min_rank_per_vertex
    try:
        algo = get_algorithm(args.algo, mode=args.mode)
    except BenchmarkError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    backend = (
        SimulatedBackend(args.workers) if args.algo in PARALLEL_ALGORITHMS else None
    )
    report = profile_callable(lambda: algo(g, backend=backend))
    print(f"profiling {args.algo} on {args.dataset} "
          f"(n={g.n_vertices}, m={g.n_edges})\n")
    print(report.render(limit=args.top))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.compare import compare_results, load_result_json

    report = compare_results(
        load_result_json(args.old),
        load_result_json(args.new),
        threshold_pct=args.threshold,
    )
    print(report.render())
    return 1 if report.qualitative_flags else 0


def _cmd_info() -> int:
    from repro.bench.datasets import DATASETS
    from repro.mst.registry import list_algorithm_info

    print(f"repro {__version__}")
    print("\nalgorithms:")
    for info in list_algorithm_info():
        modes = f" [modes: {', '.join(info.modes)}]" if info.has_vectorized else ""
        print(f"  {info.name}{modes}")
    from repro.solve import list_problem_info

    print("\nproblems:")
    for pinfo in list_problem_info():
        modes = f" [modes: {', '.join(pinfo.modes)}]" if pinfo.has_vectorized else ""
        params = f" (params: {', '.join(pinfo.params)})" if pinfo.params else ""
        print(f"  {pinfo.name}{modes}{params} — oracle: {pinfo.oracle}")
    print("\ndatasets:")
    for name, ds in sorted(DATASETS.items()):
        print(f"  {name}: {ds.paper_name} [{ds.kind}], default scale {ds.default_scale}")
    from repro.bench.experiments import ALL_EXPERIMENTS

    print("\nexperiments: " + " ".join(ALL_EXPERIMENTS))
    return 0


def _str_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _pair_list(text: str) -> list[tuple[int, int]]:
    try:
        pairs = []
        for chunk in text.split(","):
            if not chunk:
                continue
            u, v = chunk.split(":")
            pairs.append((int(u), int(v)))
        return pairs
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a u:v pair list: {text!r}") from exc


def _edge_list(text: str) -> list[tuple[int, int, float]]:
    try:
        edges = []
        for chunk in text.split(","):
            if not chunk:
                continue
            u, v, w = chunk.split(":")
            edges.append((int(u), int(v), float(w)))
        return edges
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a u:v:w triple list: {text!r}") from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
