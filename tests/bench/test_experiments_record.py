"""EXPERIMENTS.md quotes its committed records: the Fig 2 table and claims.

The Fig 2 numbers are typed by hand into the Markdown, so they can drift
from ``results/fig2.json``, the record committed beside them.  These
tests parse the table, the claims and the margin sentences, and compare
every figure with the record rounded to the digits it is printed with.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COLUMNS = ("Prim", "LLP-Prim (1T)", "Boruvka (1T)", "Boruvka (classic)")


def _record() -> dict:
    return json.loads((ROOT / "results" / "fig2.json").read_text())


def _fig2_section() -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    start = text.index("## Fig 2")
    return text[start:text.index("\n## ", start + 1)]


def _as_printed(printed: str, value: float) -> bool:
    """``value`` rounded to the decimals of ``printed`` reads the same."""
    decimals = len(printed.partition(".")[2])
    return float(printed) == round(value, decimals)


def _rows(section: str) -> list[list[str]]:
    return [
        [cell.strip().strip("*") for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]


def test_fig2_table_quotes_the_record():
    rows = _record()["tables"]["Fig 2: single-threaded wall times"]["rows"]
    want = {(graph, algo): ms for graph, algo, ms, *_ in rows}
    table = [r for r in _rows(_fig2_section()) if r[0] in ("usa-road", "graph500")]
    assert [r[0] for r in table] == ["usa-road", "graph500"]
    for graph, *cells in table:
        for algo, printed in zip(COLUMNS, cells, strict=True):
            assert _as_printed(printed, want[(graph, algo)]), (
                graph, algo, printed, want[(graph, algo)])


def test_fig2_claims_quote_the_record():
    notes = _record()["notes"]
    measured = {r[0]: r[1] for r in _rows(_fig2_section()) if len(r) == 2}
    quoted = {
        "usa-road_llp_prim_vs_prim_pct": re.search(
            r"([\d.]+)% faster", measured["LLP-Prim 27% faster than Prim on road"]),
        "graph500_llp_prim_vs_prim_pct": re.search(
            r"([\d.]+)% faster", measured["LLP-Prim 21% faster than Prim on graph500"]),
        "usa-road_boruvka_over_prim_factor": re.search(
            r"([\d.]+)x on road", measured["Prim-family ~3x faster than Boruvka (1T)"]),
        "graph500_boruvka_over_prim_factor": re.search(
            r"([\d.]+)x on graph500", measured["Prim-family ~3x faster than Boruvka (1T)"]),
    }
    for key, match in quoted.items():
        assert match is not None, key
        assert _as_printed(match.group(1), notes[key]), (key, match.group(1), notes[key])


def test_fig2_margin_sentences_quote_the_record():
    notes = _record()["notes"]
    pct = [notes["usa-road_llp_prim_vs_prim_pct"], notes["graph500_llp_prim_vs_prim_pct"]]
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    margins = re.findall(r"LLP-Prim(?: margin \(|'s win is )(\d+)[–-](\d+)%", text)
    assert len(margins) == 2, margins
    for low, high in margins:
        assert (int(low), int(high)) == (round(min(pct)), round(max(pct)))
