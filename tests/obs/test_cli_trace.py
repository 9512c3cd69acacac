"""CLI tracing flags: --trace/--trace-out on subcommands, repro trace sugar."""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs.export import validate_chrome_trace


def _load(path):
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []
    return doc


def test_mst_trace_out_writes_valid_trace(tmp_path, capsys):
    out = tmp_path / "t.json"
    # Loop mode pinned: backend "round" spans are a loop-mode artifact
    # (the default mode is "auto", which picks vectorized here).
    assert main(["mst", "--algo", "llp-boruvka", "--dataset", "graph500",
                 "--scale", "7", "--workers", "4", "--mode", "loop",
                 "--trace-out", str(out), "--metrics-out",
                 str(tmp_path / "m.json")]) == 0
    doc = _load(out)
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "solve:llp-boruvka" in names
    assert "round" in names
    metrics = doc["otherData"]["metrics"]
    assert "runtime.trace" in metrics and "mst.stats" in metrics
    flat = json.loads((tmp_path / "m.json").read_text())
    assert flat.keys() == metrics.keys()
    assert "[trace written:" in capsys.readouterr().err


def test_trace_subcommand_is_sugar_over_flags(tmp_path, capsys):
    out = tmp_path / "sugar.json"
    assert main(["trace", "--out", str(out), "mst",
                 "--algo", "kruskal", "--dataset", "graph500",
                 "--scale", "7"]) == 0
    doc = _load(out)
    assert any(e["name"] == "solve:kruskal" for e in doc["traceEvents"]
               if e["ph"] == "X")


def test_trace_query_sharded_collects_worker_pids(tmp_path, capsys):
    """The headline acceptance path: one trace spanning >= 2 worker pids."""
    out = tmp_path / "q.json"
    assert main(["trace", "--out", str(out), "query", "--algo", "sharded",
                 "--dataset", "graph500", "--scale", "10",
                 "--type", "connected", "--pairs", "0:5,1:7"]) == 0
    doc = _load(out)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    pids = {e["pid"] for e in xs}
    assert len(pids) >= 3, pids  # coordinator + its 4 shard workers
    names = {e["name"] for e in xs}
    assert "service:load_graph" in names      # service layer
    assert "sharded" in names                 # solver/shard layer
    assert "query:connected" in names         # request path
    assert "service.metrics" in doc["otherData"]["metrics"]


def _inside(events, parent):
    """Names of the spans within the first ``parent`` span's interval."""
    p = next(e for e in events if e["name"] == parent)
    end = p["ts"] + p["dur"] + 1e-3  # microsecond floats: allow rounding
    return {e["name"] for e in events
            if e is not p and e["tid"] == p["tid"]
            and p["ts"] <= e["ts"] and e["ts"] + e["dur"] <= end}


def test_trace_query_attributes_a_load_to_its_stages(tmp_path, capsys):
    """A cold load saves what it solved; a warm one loads it; both index."""
    store = tmp_path / "store"

    def traced_query(name):
        out = tmp_path / name
        assert main(["trace", "--out", str(out), "query",
                     "--dataset", "usa-road", "--scale", "8",
                     "--store", str(store), "--type", "weight"]) == 0
        return [e for e in _load(out)["traceEvents"] if e["ph"] == "X"]

    cold = traced_query("cold.json")
    assert "csr:build" in {e["name"] for e in cold}
    inside = _inside(cold, "service:load_graph")
    assert {"artifact:fingerprint", "artifact:save", "index:build"} <= inside
    assert "artifact:load" not in inside

    warm = traced_query("warm.json")
    inside = _inside(warm, "service:load_graph")
    assert {"artifact:fingerprint", "artifact:load", "index:build"} <= inside
    assert "artifact:save" not in inside
    assert not any(name.startswith("solve:") for name in inside)


def test_untraced_run_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["mst", "--algo", "kruskal", "--dataset", "graph500",
                 "--scale", "7"]) == 0
    assert not (tmp_path / "trace.json").exists()
    assert "[trace written:" not in capsys.readouterr().err


def test_trace_written_even_when_command_fails(tmp_path, capsys):
    out = tmp_path / "fail.json"
    assert main(["mst", "--algo", "no-such-algo", "--dataset", "graph500",
                 "--scale", "7", "--trace-out", str(out)]) == 2
    assert out.exists(), "a failing run's trace is the one worth keeping"


def test_check_trace_records_cells(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["check", "--graphs", "2", "--max-size", "8",
                 "--skip-faults", "--skip-schedules", "--no-shrink",
                 "--algos", "kruskal,prim",
                 "--trace-out", str(out)]) == 0
    doc = _load(out)
    cells = [e for e in doc["traceEvents"]
             if e["ph"] == "X" and e["name"] == "check:cell"]
    assert cells
    assert all(e["args"]["verdict"] == "ok" for e in cells)
    assert doc["otherData"]["metrics"]["check.matrix"]["mismatches"] == 0
