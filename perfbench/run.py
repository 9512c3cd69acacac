"""Benchmark entry point: one workload, one seed, one fresh set of processes.

    python3 perfbench/run.py --workload road --seed 1 --seconds 40 --trace 0

Each run, in order and never overlapping:

1. ``prep.py`` generates the seeded inputs, checks the default seed's
   digests, writes the graph files and the oracle forests, and fills the
   artifact stores the measured process loads warm;
2. ``measure.py --setup-only`` twice, then ``measure.py`` once: three
   fresh interpreters whose median set-up time is ``setup_s``; the last
   one runs the timed phases — loads, reads, writes — traced with
   ``--trace 1``;
3. ``oracle.py`` checks every answer the timed phases kept.

All files live in a fresh directory under ``.perfbench-tmp/`` in the
checkout, removed at exit.  The last line of standard output is the
result object; a wrong answer exits 1, a changed input exits 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402  (the benchmark's own modules, beside this file)
import loaddriver as LD  # noqa: E402
import report  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    # No per-machine kernel calibration: the product's built-in defaults,
    # and no reads outside the checkout.
    env["REPRO_AUTOTUNE_PATH"] = str(tmp / "autotune.json")
    return env


def _run(script: str, args: list[str], env: dict, timeout: float) -> int:
    cmd = [sys.executable, str(HERE / script), *args]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout, cwd=ROOT, text=True)
    sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode


def _measure(tmp: Path, args, env: dict, setup_only: bool) -> int:
    extra = ["--setup-only"] if setup_only else []
    for spec in args.inject:
        extra += ["--inject", spec]
    spawn_ns = time.monotonic_ns()
    return _run("measure.py", [
        "--tmp", str(tmp), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spawn-ns", str(spawn_ns), *extra,
    ], env, args.seconds + CHILD_TIMEOUT_S)


def _accounting(measured: dict, open_loops) -> tuple[int, int, bool]:
    """``(attempted, failed, invariant)``: every operation has one outcome."""
    loads = measured["loads"]
    attempted, failed = len(loads), sum(not ld["ok"] for ld in loads)
    invariant = True
    for served in open_loops:
        outcomes = np.isin(served.status, (LD.OK, LD.REJECTED, LD.TIMEOUT, LD.ERROR)).sum()
        attempted += served.attempted
        failed += served.failed
        invariant &= int(outcomes) == served.attempted
    closed = measured["closed"]
    attempted += closed["attempted"]
    failed += closed["failed"]
    answered = sum(sum(counts) for counts in closed["counts"])
    invariant &= answered + closed["failed"] == closed["attempted"]
    return attempted, failed, invariant


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small graphs (the benchmark's own tests)")
    ap.add_argument("--inject", action="append", default=[], metavar="MODULE:ATTR=SECONDS",
                    help="sleep added to one entry point (the slowdown test)")
    args = ap.parse_args(argv)
    # A terminated run still kills its child process and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    wl = W.WORKLOADS[args.workload]
    base = ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base))
    try:
        return _run_workload(wl, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def _run_workload(wl, args, tmp: Path) -> int:
    env = _child_env(tmp)
    prep = ["--workload", wl.name, "--seed", str(args.seed), "--tmp", str(tmp)]
    rc = _run("prep.py", prep + (["--tiny"] if args.tiny else []), env, CHILD_TIMEOUT_S)
    if rc != 0:
        print(f"input preparation failed (exit {rc})", file=sys.stderr)
        return 3 if rc == 3 else 4
    setups = []
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        if _measure(tmp, args, env, setup_only=not last) != 0:
            print("measured process failed", file=sys.stderr)
            return 4
        if not last:
            setups.append(common.read_json(tmp / "setup.json")["setup_s"])
    measured = common.read_json(tmp / "measured.json")
    setups.append(measured["setup_s"])
    if _run("oracle.py", ["--tmp", str(tmp)], env, CHILD_TIMEOUT_S) != 0:
        print("oracle check process failed", file=sys.stderr)
        return 4
    verdict = common.read_json(tmp / "verdict.json")
    meta = common.read_json(tmp / "meta.json")

    streams = W.unflatten_streams(common.load_arrays(tmp / "streams.npz"))
    arrays = common.load_arrays(tmp / "served.npz")
    reads = report.Served(arrays, streams["open"], "open")
    mixed = report.Served(arrays, streams["mixed"], "mixed")
    attempted, failed, invariant = _accounting(measured, (reads, mixed))

    lines = [
        f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        "setup_s runs: " + " ".join(f"{s:.3f}" for s in setups),
        "host probe ms (start, end): " + " ".join(f"{p:.2f}" for p in measured["probe_ms"])
        + f"; host steal share {measured['host_steal_share']:.3f}",
        f"attempted {attempted} failed {failed} failed_frac {failed / max(attempted, 1):.4f}",
    ]
    if args.trace:
        spans = {
            phase: report.load_spans(tmp / f"spans-{phase}.jsonl")
            for phase in ("loads", "reads", "writes")
        }
        metrics = report.per_layer_loads(measured, meta["graph"], spans["loads"], lines)
        metrics.update(report.per_layer_reads(measured, reads, spans["reads"], lines))
        metrics.update(report.per_layer_writes(measured, mixed, spans["writes"], lines))
        metrics["host.probe_ms"] = report.metric(np.mean(measured["probe_ms"]), "ms")
        solver = measured.get("solver") or {}
        if solver:
            lines.append("solver: " + ", ".join(f"{k}={v}" for k, v in sorted(solver.items())))
        for name in measured.get("absent", []):
            lines.append(f"entry point absent: {name}")
    else:
        metrics = report.e2e(measured, setups, reads, mixed, lines)
        metrics["peak_rss_mb"] = report.metric(measured["peak_rss_mb"], "MB")
    for name in [k for k, v in metrics.items() if not math.isfinite(v["value"])]:
        del metrics[name]
        lines.append(f"metric absent (nothing measured): {name}")
    if not invariant:
        verdict["problems"].append("operation accounting: attempted != succeeded + failed")
    for problem in verdict["problems"]:
        lines.append(f"MISMATCH: {problem}")
    correct = verdict["correct"] and invariant
    print("\n".join(lines))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
