"""The tenant CLI verbs and the multi-tenant serve loop."""

from __future__ import annotations

import json

from repro.cli import main
from repro.platform import load_manifest

from tests.conftest import NEGATIVE_OVERFLOW_TSV, TWO_COMPONENTS_GR, strict_json_records


def _add_tenant(root, name, *extra):
    assert main(["tenant", "add", name, "--root", str(root), *extra]) == 0


class TestTenantVerbs:
    def test_add_list_rm_round_trip(self, tmp_path, capsys):
        _add_tenant(tmp_path, "acme", "--rate-qps", "50", "--max-graphs", "3")
        _add_tenant(tmp_path, "sci")
        capsys.readouterr()  # flush the add confirmations
        assert main(["tenant", "list", "--root", str(tmp_path), "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert set(listed["tenants"]) == {"acme", "sci"}
        assert listed["tenants"]["acme"]["quota"]["rate_qps"] == 50.0
        assert main(["tenant", "rm", "sci", "--root", str(tmp_path)]) == 0
        manifest = load_manifest(tmp_path)
        assert set(manifest["tenants"]) == {"acme"}

    def test_duplicate_add_fails(self, tmp_path, capsys):
        _add_tenant(tmp_path, "acme")
        assert main(["tenant", "add", "acme", "--root", str(tmp_path)]) != 0

    def test_rm_unknown_tenant_fails(self, tmp_path, capsys):
        assert main(["tenant", "rm", "ghost", "--root", str(tmp_path)]) != 0

    def test_add_graph_records_the_spec(self, tmp_path):
        _add_tenant(tmp_path, "acme")
        assert main(["tenant", "add-graph", "acme", "mesh",
                     "--root", str(tmp_path), "--gnm", "80:240:3"]) == 0
        assert main(["tenant", "add-graph", "acme", "paths",
                     "--root", str(tmp_path), "--grid", "5:5:1",
                     "--problem", "sssp", "--source", "0"]) == 0
        graphs = load_manifest(tmp_path)["tenants"]["acme"]["graphs"]
        assert graphs["mesh"]["source"] == {"kind": "gnm", "n": 80, "m": 240,
                                            "seed": 3}
        assert graphs["paths"]["problem"] == "sssp"
        assert graphs["paths"]["params"] == {"source": 0}

    def test_add_graph_validates_eagerly(self, tmp_path):
        _add_tenant(tmp_path, "acme")
        # A bogus problem never lands in the manifest.
        assert main(["tenant", "add-graph", "acme", "bad",
                     "--root", str(tmp_path), "--gnm", "50:150:1",
                     "--problem", "frobnicate"]) != 0
        assert load_manifest(tmp_path)["tenants"]["acme"]["graphs"] == {}

    def test_add_graph_refuses_an_unknown_algorithm(self, tmp_path, capsys):
        _add_tenant(tmp_path, "acme")
        # A record the next boot would refuse never lands in the manifest.
        assert main(["tenant", "add-graph", "acme", "mesh",
                     "--root", str(tmp_path), "--gnm", "50:150:1",
                     "--algo", "frobnicate"]) == 2
        assert "unknown algorithm 'frobnicate'" in capsys.readouterr().err
        assert load_manifest(tmp_path)["tenants"]["acme"]["graphs"] == {}

    def test_rm_graph(self, tmp_path):
        _add_tenant(tmp_path, "acme")
        assert main(["tenant", "add-graph", "acme", "mesh",
                     "--root", str(tmp_path), "--gnm", "50:150:1"]) == 0
        assert main(["tenant", "rm-graph", "acme", "mesh",
                     "--root", str(tmp_path)]) == 0
        assert load_manifest(tmp_path)["tenants"]["acme"]["graphs"] == {}

    def test_stats_builds_and_reports(self, tmp_path, capsys):
        _add_tenant(tmp_path, "acme")
        assert main(["tenant", "add-graph", "acme", "mesh",
                     "--root", str(tmp_path), "--gnm", "60:180:3"]) == 0
        capsys.readouterr()  # flush the add confirmations
        assert main(["tenant", "stats", "--root", str(tmp_path),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        row = stats["tenants"]["acme"]["graphs"]["mesh"]
        assert row["n_vertices"] == 60 and row["problem"] == "mst"


class TestServeMulti:
    def _platform(self, root):
        _add_tenant(root, "acme", "--rate-qps", "100", "--burst", "50")
        _add_tenant(root, "throttled", "--rate-qps", "0.001", "--burst", "1")
        assert main(["tenant", "add-graph", "acme", "mesh",
                     "--root", str(root), "--gnm", "80:240:3"]) == 0
        assert main(["tenant", "add-graph", "acme", "paths",
                     "--root", str(root), "--grid", "5:5:1",
                     "--problem", "sssp", "--source", "0"]) == 0
        assert main(["tenant", "add-graph", "throttled", "tiny",
                     "--root", str(root), "--gnm", "40:120:9"]) == 0

    def test_serves_two_tenants_with_structured_429s(self, tmp_path, capsys):
        self._platform(tmp_path)
        capsys.readouterr()  # flush the tenant-verb confirmations
        queries = tmp_path / "q.jsonl"
        queries.write_text("\n".join([
            '{"tenant":"acme","graph":"mesh","op":"connected","u":0,"v":5}',
            '{"tenant":"acme","graph":"mesh","op":"weight"}',
            '{"tenant":"acme","graph":"paths","op":"dist","u":3}',
            '{"tenant":"throttled","graph":"tiny","op":"weight"}',
            '{"tenant":"throttled","graph":"tiny","op":"weight"}',
        ]) + "\n")
        assert main(["serve", "--multi", "--root", str(tmp_path),
                     "--queries", str(queries)]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 5
        acme = [r for r in records if r["tenant"] == "acme"]
        assert all("result" in r for r in acme)
        throttled = [r for r in records if r["tenant"] == "throttled"]
        served = [r for r in throttled if "result" in r]
        rejected = [r for r in throttled if r.get("code") == 429]
        assert len(served) == 1 and len(rejected) == 1
        assert rejected[0]["reason"] == "rate"
        assert rejected[0]["retry_after_s"] > 0
        # The per-tenant summary lines land on stderr.
        assert "acme" in captured.err and "throttled" in captured.err

    def test_full_batches_never_overrun_the_in_flight_window(self, tmp_path,
                                                            capsys):
        # The default --max-batch equals the default in-flight window (256).
        # 400 lines for one graph fill a batch to 256, then 400 lines
        # alternate two graphs: no line may be refused a slot that a
        # finished batch is about to free.
        _add_tenant(tmp_path, "acme")
        for name in ("a", "b"):
            assert main(["tenant", "add-graph", "acme", name, "--root",
                         str(tmp_path), "--gnm", "400:1200:1"]) == 0
        capsys.readouterr()  # flush the tenant-verb confirmations
        lines = [{"graph": "a", "op": "component", "u": u} for u in range(400)]
        lines += [{"graph": "ab"[u % 2], "op": "component_size", "u": u}
                  for u in range(400)]
        queries = tmp_path / "q.jsonl"
        queries.write_text("".join(
            json.dumps({"tenant": "acme", **line}) + "\n" for line in lines))
        assert main(["serve", "--multi", "--root", str(tmp_path),
                     "--queries", str(queries)]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 800
        assert [r for r in records if "result" not in r] == []

    def test_bad_lines_reported_inline_not_fatal(self, tmp_path, capsys):
        self._platform(tmp_path)
        capsys.readouterr()  # flush the tenant-verb confirmations
        queries = tmp_path / "q.jsonl"
        queries.write_text("\n".join([
            "not json",
            '{"graph":"mesh","op":"weight"}',
            '{"tenant":"acme","graph":"ghost","op":"weight"}',
            '{"tenant":"acme","graph":"mesh","op":"weight"}',
        ]) + "\n")
        assert main(["serve", "--multi", "--root", str(tmp_path),
                     "--queries", str(queries)]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 4
        errors = [r for r in records if "error" in r]
        assert len(errors) == 3  # bad json, missing tenant, unknown graph
        assert any("result" in r for r in records)

    def test_infinite_answers_are_strict_json(self, tmp_path, capsys):
        two, neg = tmp_path / "two.gr", tmp_path / "neg.tsv"
        two.write_text(TWO_COMPONENTS_GR)
        neg.write_text(NEGATIVE_OVERFLOW_TSV)
        _add_tenant(tmp_path, "acme")
        for name, path, extra in (
            ("split", two, []),
            ("paths", two, ["--problem", "sssp", "--source", "0"]),
            ("neg", neg, []),
        ):
            assert main(["tenant", "add-graph", "acme", name, "--root",
                         str(tmp_path), "--input", str(path), *extra]) == 0
        capsys.readouterr()  # flush the tenant-verb confirmations
        queries = tmp_path / "q.jsonl"
        queries.write_text("\n".join([
            '{"tenant":"acme","graph":"split","op":"bottleneck","u":0,"v":3}',
            '{"tenant":"acme","graph":"paths","op":"dist","u":3}',
            '{"tenant":"acme","graph":"neg","op":"weight"}',
        ]) + "\n")
        assert main(["serve", "--multi", "--root", str(tmp_path),
                     "--queries", str(queries)]) == 0
        records = strict_json_records(capsys.readouterr().out)
        assert [r["result"] for r in records] == ["inf", "inf", "-inf"]
