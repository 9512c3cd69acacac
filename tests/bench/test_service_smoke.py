"""Smoke tests for the service benchmark tooling.

Runs ``tools/bench_service_report.py`` on a tiny graph and checks it
writes valid, complete JSON; pins the shape of the committed
``BENCH_service.json`` so the checked-in numbers can't silently rot.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent


def test_bench_service_report_tiny_graph(tmp_path):
    target = tmp_path / "BENCH_service.json"
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "tools" / "bench_service_report.py"),
            str(target), "--n", "120", "--m", "300", "--seed", "3",
            "--queries", "1000", "--loop-queries", "100",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(target.read_text())
    assert report["graph"]["n_edges"] == 300
    q = report["bottleneck_queries"]
    assert q["loop"]["qps"] > 0 and q["batched"]["qps"] > 0
    assert q["answers_cross_checked"] == 100


def test_committed_bench_service_json():
    committed = REPO / "BENCH_service.json"
    report = json.loads(committed.read_text())
    assert report["graph"]["n_edges"] == 100_000
    q = report["bottleneck_queries"]
    assert q["batched_speedup"] >= 10.0  # the ISSUE acceptance bar
    assert q["answers_cross_checked"] >= 1000
