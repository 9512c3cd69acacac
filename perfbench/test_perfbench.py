"""The benchmark's own tests (tiny inputs; about four minutes).

    python3 -m pytest perfbench/test_perfbench.py -q

* every workload prints, with its unit, every metric BENCHMARK.json
  declares, untraced and traced;
* a sleep added to one layer's entry point, equal to that layer's traced
  time, shows up in that layer's traced time and moves the end-to-end
  metric the layer feeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every workload runs every phase, so every workload prints every metric.
E2E = {m["name"] for m in DECLARED["end_to_end"]}
LAYERS = {m["name"] for m in DECLARED["per_layer"]}
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
WORKLOADS = ("road", "rmat")


def run(workload: str, *, trace: int, seconds: float = 6.0, inject: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_declared_workloads_are_the_ones_the_benchmark_runs():
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    finally:
        sys.path.remove(str(HERE))
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    metrics = run(workload, trace=trace)
    assert set(metrics) == (LAYERS if trace else E2E)
    for name, metric in metrics.items():
        assert metric["unit"] == UNITS[name], name
        assert isinstance(metric["value"], float), name


@pytest.mark.parametrize(
    "workload,entry,layer_metric,scale,e2e_metric",
    [
        ("road", "repro.service.artifacts:ArtifactStore.save",
         "service.artifacts.save_s", 1.0, "cold_s"),
        ("road", "repro.service.artifacts:ArtifactStore.save",
         "service.artifacts.save_ms_per_write", 1e-3, "write_p50_ms"),
    ],
)
def test_slowdown_is_attributed_to_its_layer(workload, entry, layer_metric, scale, e2e_metric):
    seconds = 8.0
    base = run(workload, trace=1, seconds=seconds)[layer_metric]["value"]
    sleep_s = base * scale  # doubles the layer's traced time
    inject = f"{entry}={sleep_s}"
    slowed = run(workload, trace=1, seconds=seconds, inject=inject)[layer_metric]["value"]
    assert slowed - base >= 0.8 * base, (base, slowed)

    # Untraced runs in A-B-B-A order, so a linear host drift cancels.
    a = [run(workload, trace=0, seconds=seconds)]
    b = [run(workload, trace=0, seconds=seconds, inject=inject) for _ in range(2)]
    a.append(run(workload, trace=0, seconds=seconds))
    e2e_scale = 1.0 if e2e_metric.endswith("_s") else 1e-3
    moved = (sum(r[e2e_metric]["value"] for r in b) - sum(r[e2e_metric]["value"] for r in a)) / 2
    assert moved * e2e_scale >= 0.5 * sleep_s, (moved, sleep_s)


def test_absent_entry_point_is_reported_not_raised():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tracing

        patcher = tracing.Patcher()
        assert not patcher.patch("repro.no_such_module", "f", lambda fn: fn)
        assert not patcher.patch("repro.service.core", "MSTService.no_such_method", lambda fn: fn)
        assert patcher.absent == [
            "repro.no_such_module.f", "repro.service.core.MSTService.no_such_method"]
        patcher.restore()
    finally:
        del sys.path[:2]
