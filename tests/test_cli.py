"""CLI surface: argument handling and end-to-end subcommands."""

import json

import pytest

from repro.cli import build_parser, main

from tests.conftest import NEGATIVE_OVERFLOW_TSV, TWO_COMPONENTS_GR, strict_json_records


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "llp-prim" in out
    assert "usa-road" in out


def test_mst_on_dataset(capsys):
    assert main(["mst", "--algo", "llp-prim", "--dataset", "usa-road",
                 "--scale", "8", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "weight:" in out


def test_mst_llp_prim_has_no_vectorized_mode(capsys):
    assert main(["mst", "--algo", "llp-prim", "--mode", "vectorized",
                 "--dataset", "usa-road", "--scale", "6"]) == 2
    assert "has no 'vectorized' mode" in capsys.readouterr().err


def test_mst_parallel_algo_reports_modelled_time(capsys):
    assert main(["mst", "--algo", "llp-boruvka", "--dataset", "graph500",
                 "--scale", "7", "--workers", "4"]) == 0
    out = capsys.readouterr().out
    assert "modelled:" in out and "p=4" in out


def test_mst_from_file(tmp_path, capsys):
    from repro.graphs.generators import grid_graph
    from repro.graphs.io import write_dimacs

    path = tmp_path / "g.gr"
    write_dimacs(grid_graph(4, 4, seed=2), path)
    assert main(["mst", "--input", str(path), "--algo", "kruskal", "--verify"]) == 0
    assert "verified" in capsys.readouterr().out


def test_mst_unsupported_format(tmp_path):
    bad = tmp_path / "g.xyz"
    bad.write_text("")
    with pytest.raises(SystemExit):
        main(["mst", "--input", str(bad)])


def test_run_unknown_experiment(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_table1_with_json(tmp_path, capsys):
    assert main(["run", "table1", "--scale", "8", "--rmat-scale", "7",
                 "--json-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    data = json.loads((tmp_path / "table1.json").read_text())
    assert data["name"] == "table1-datasets"


def test_run_fig3_custom_threads(capsys):
    assert main(["run", "fig3", "--scale", "8", "--threads", "1,4"]) == 0
    out = capsys.readouterr().out
    assert "p=4" in out


def test_parser_threads_validation():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fig3", "--threads", "1,x"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_profile_subcommand(capsys):
    assert main(["profile", "--algo", "llp-prim", "--scale", "8", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "hotspots" in out or "cum_ms" in out
    assert "llp_prim" in out


def test_profile_parallel_algo(capsys):
    assert main(["profile", "--algo", "llp-boruvka", "--scale", "8",
                 "--workers", "4"]) == 0
    assert "llp-boruvka" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Service subcommands: mst --save, query, serve
# ----------------------------------------------------------------------
def test_mst_save_then_query_artifact(tmp_path, capsys):
    art = tmp_path / "msf.json"
    assert main(["mst", "--dataset", "usa-road", "--scale", "7",
                 "--save", str(art)]) == 0
    assert "saved:" in capsys.readouterr().out
    assert art.exists()
    assert main(["query", "--artifact", str(art),
                 "--type", "connected", "--pairs", "0:1,0:5"]) == 0
    out = capsys.readouterr().out
    assert "artifact:" in out
    assert out.count("connected") == 2


def test_query_on_dataset_all_kinds(tmp_path, capsys):
    store = str(tmp_path / "store")
    for args in (
        ["--type", "bottleneck", "--pairs", "0:7,3:3"],
        ["--type", "component", "--vertices", "0,1,2"],
        ["--type", "component_size", "--vertices", "0"],
        ["--type", "replacement", "--edges", "0:7:0.001"],
        ["--type", "weight"],
    ):
        assert main(["query", "--dataset", "usa-road", "--scale", "7",
                     "--store", store] + args) == 0
        assert "->" in capsys.readouterr().out
    # everything after the first call hit the artifact cache on disk
    from pathlib import Path

    assert len(list(Path(store).glob("*.npz"))) == 1


def test_query_missing_args_fail_cleanly(capsys):
    assert main(["query", "--dataset", "usa-road", "--scale", "7",
                 "--type", "bottleneck"]) == 2
    assert "needs --pairs" in capsys.readouterr().err
    assert main(["query", "--artifact", "/nonexistent/x.json",
                 "--type", "weight"]) == 2
    assert "cannot read" in capsys.readouterr().err.lower()


def test_serve_round_trip(tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    queries.write_text(
        '{"op": "connected", "u": 0, "v": 1}\n'
        '{"op": "weight"}\n'
        '{"op": "bottleneck", "u": 0, "v": 1}\n'
    )
    assert main(["serve", "--dataset", "usa-road", "--scale", "7",
                 "--store", str(tmp_path / "store"),
                 "--queries", str(queries), "--metrics"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(x) for x in captured.out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["op"] == "connected"
    assert isinstance(lines[1]["result"], float)
    assert "serving" in captured.err and "cold" in captured.err
    assert "batch" in captured.err  # --metrics report

    # second run over the same store is a warm load
    assert main(["serve", "--dataset", "usa-road", "--scale", "7",
                 "--store", str(tmp_path / "store"),
                 "--queries", str(queries)]) == 0
    assert "warm" in capsys.readouterr().err


def test_serve_reports_bad_query_line_without_dying(tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    queries.write_text('{"op": "nonsense"}\n{"op": "weight"}\n')
    # per-request errors are reported inline; the server keeps serving
    assert main(["serve", "--dataset", "usa-road", "--scale", "7",
                 "--store", str(tmp_path / "store"),
                 "--queries", str(queries)]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert "unknown query kind" in lines[0]["error"]
    assert isinstance(lines[1]["result"], float)


def test_serve_sigint_stops_intake_and_drains(tmp_path, capsys, monkeypatch):
    """A SIGINT mid-stream: issued requests drain, the rest get structured
    interruption records, and the final metrics summary line prints."""
    import repro.cli as cli

    queries = tmp_path / "q.jsonl"
    queries.write_text("".join('{"op": "weight"}\n' for _ in range(40)))

    def fake_install(loop, handler):
        loop.call_soon(handler)  # "SIGINT" arrives at the first await point
        return lambda: None

    monkeypatch.setattr(cli, "_install_sigint", fake_install)
    rc = main(["serve", "--dataset", "usa-road", "--scale", "7",
               "--store", str(tmp_path / "store"),
               "--queries", str(queries)])
    assert rc == 130
    captured = capsys.readouterr()
    lines = [json.loads(x) for x in captured.out.strip().splitlines()]
    assert len(lines) == 40  # every request line is answered one way or the other
    issued = [x for x in lines if "result" in x]
    skipped = [x for x in lines
               if x.get("error") == "interrupted before issue (SIGINT)"]
    assert issued and skipped
    assert len(issued) + len(skipped) == 40
    assert "interrupted: intake stopped" in captured.err
    assert "served=" in captured.err  # the summary line


# 1,000 distinct lines; then 256 distinct lines (one full first batch)
# followed by 512 more misses, each after a line the first batch cached.
_DISTINCT = list(range(1000))
_WITH_HITS = list(range(256)) + [u for n in range(256, 768) for u in (0, n)]


@pytest.mark.parametrize("us,batches", [(_DISTINCT, 4), (_WITH_HITS, 5)],
                         ids=["distinct", "with-cache-hits"])
def test_serve_forms_full_batches(tmp_path, capsys, us, batches):
    """The intake loop yields after every line, and the batch worker keeps
    taking while each yield brings a request, queued or answered from the
    cache, until a batch holds 256 or 256 arrived since it opened: 1,000
    misses run as 4 batches, and the 1,024 lines after the first full
    batch as 4 more, whatever the machine's speed."""
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(f'{{"op": "component", "u": {u}}}\n' for u in us))
    assert main(["serve", "--metrics", "--dataset", "usa-road", "--scale", "10",
                 "--queries", str(queries)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == len(us)
    [line] = [line for line in captured.err.splitlines()
              if line.strip().startswith("batches")]
    counts = [int(bucket.split(":")[1]) for bucket in line.split()[1:]]
    assert sum(counts) == batches, line


def test_serve_prints_summary_line_on_clean_exit(tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    queries.write_text('{"op": "weight"}\n')
    assert main(["serve", "--dataset", "usa-road", "--scale", "7",
                 "--store", str(tmp_path / "store"),
                 "--queries", str(queries)]) == 0
    err = capsys.readouterr().err
    assert "served=1" in err and "rejected=0" in err


@pytest.mark.parametrize("graph,flags,request_line,want", [
    ("two.gr", [], '{"op": "bottleneck", "u": 0, "v": 3}', "inf"),
    ("two.gr", ["--problem", "sssp", "--source", "0"], '{"op": "dist", "u": 3}', "inf"),
    ("neg.tsv", [], '{"op": "weight"}', "-inf"),
])
def test_serve_answers_are_strict_json(tmp_path, capsys, graph, flags,
                                       request_line, want):
    (tmp_path / "two.gr").write_text(TWO_COMPONENTS_GR)
    (tmp_path / "neg.tsv").write_text(NEGATIVE_OVERFLOW_TSV)
    queries = tmp_path / "q.jsonl"
    queries.write_text(request_line + "\n")
    assert main(["serve", "--input", str(tmp_path / graph), *flags,
                 "--queries", str(queries)]) == 0
    [record] = strict_json_records(capsys.readouterr().out)
    assert record["result"] == want


def test_mst_spill_dir_end_to_end(tmp_path, capsys):
    from repro.graphs.generators import grid_graph
    from repro.graphs.io import write_dimacs

    path = tmp_path / "g.gr"
    write_dimacs(grid_graph(5, 5, seed=3), path)
    spill = tmp_path / "spill"
    assert main(["mst", "--input", str(path), "--algo", "kruskal",
                 "--spill-dir", str(spill), "--verify"]) == 0
    assert "verified" in capsys.readouterr().out
    # Anonymous memmaps are unlinked at creation: nothing may remain.
    assert list(spill.iterdir()) == []


def test_mst_sharded_streaming_knobs(tmp_path, capsys):
    from repro.graphs.generators import gnm_random_graph
    from repro.graphs.io import write_dimacs

    path = tmp_path / "g.gr"
    write_dimacs(gnm_random_graph(60, 220, seed=4), path)
    spill = tmp_path / "spool"
    assert main(["mst", "--input", str(path), "--shards", "2",
                 "--executor", "serial", "--max-concurrent", "1",
                 "--arena-backing", "file", "--spill-dir", str(spill),
                 "--verify"]) == 0
    assert "verified" in capsys.readouterr().out
    assert not list(spill.glob("*.arena"))


def test_mst_rejects_bad_arena_backing():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["mst", "--dataset", "usa-road",
                           "--arena-backing", "floppy"])
