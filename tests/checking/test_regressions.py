"""Shrunken counterexamples for every bug the checking harness surfaced.

Each test is the minimized graph (or call) the delta-debugger produced
when the differential oracle / fault suite first caught the bug, frozen
as a regression test.  If an implementation regresses, the failure
message names the exact cell and divergence kind.
"""

import json

import numpy as np
import pytest

from repro.checking.oracle import check_one
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList


def _graph(n, edges, wdtype=np.float64):
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=wdtype)
    return CSRGraph.from_edgelist(EdgeList.from_arrays(n, u, v, w, dedup=False))


# ----------------------------------------------------------------------
# Bug: prim/vectorized picked the heavier of two parallel edges — the
# masked scatter `d[nbrs] = keys` is last-writer-wins when `nbrs` holds
# duplicate vertex ids.  Shrunk to 2 vertices / 2 parallel edges.
# ----------------------------------------------------------------------
def test_prim_vectorized_parallel_edges():
    g = _graph(2, [(0, 1, 1.0), (0, 1, 0.0)])
    mismatch = check_one(g, "prim", "vectorized", "sequential")
    assert mismatch is None, str(mismatch)


# ----------------------------------------------------------------------
# Bug: GHS addresses edges on the wire by (src, dst) endpoint pairs, so
# two parallel edges are indistinguishable and the fragments livelocked
# until the delivery bound tripped.  Shrunk to 2 vertices / 2 edges.
# ----------------------------------------------------------------------
def test_ghs_parallel_edges():
    g = _graph(2, [(0, 1, 1.0), (0, 1, 0.0)])
    mismatch = check_one(g, "ghs", None, "sequential")
    assert mismatch is None, str(mismatch)


def test_all_algorithms_on_dense_parallel_multigraph():
    """Belt and braces: every registered cell on a parallel-edge clique."""
    from repro.checking.oracle import iter_checks

    rng = np.random.default_rng(11)
    edges = []
    for a in range(4):
        for b in range(a + 1, 4):
            for _ in range(3):
                edges.append((a, b, float(rng.integers(0, 4))))
    g = _graph(4, edges)
    for name, mode, backend in iter_checks():
        mismatch = check_one(g, name, mode, backend)
        assert mismatch is None, str(mismatch)


# ----------------------------------------------------------------------
# Bug: math.fsum raises OverflowError once partial sums pass the float
# ceiling (weights near 1e308), which the verifier surfaced as
# "invalid-forest" on perfectly correct results.
# ----------------------------------------------------------------------
def test_stable_sum_survives_overflow():
    from repro.mst.verify import stable_weight_sum, weight_sums_consistent

    w = np.array([1.5e308, 1.5e308, -1.0e308], dtype=np.float64)
    total = stable_weight_sum(w)  # must not raise
    assert weight_sums_consistent(total, w)
    with np.errstate(over="ignore"):
        naive = float(np.sum(w))
    assert weight_sums_consistent(naive, w)


def test_huge_float_graph_verifies():
    g = _graph(3, [(0, 1, 1.7e308), (1, 2, 1.6e308), (0, 2, 1.5e308)])
    for algo in ("kruskal", "prim", "boruvka"):
        mismatch = check_one(g, algo, None, "sequential")
        assert mismatch is None, str(mismatch)


# ----------------------------------------------------------------------
# Bug: a fixed rtol/atol on the weight total spuriously rejected correct
# forests whose loop- and vectorized-mode totals were accumulated in
# different orders over mixed-magnitude weights.
# ----------------------------------------------------------------------
def test_weight_consistency_is_scale_aware():
    from repro.mst.verify import weight_sums_consistent

    w = np.array([1e16, -1e16, 1.0, -1.0, 1e-8] * 10, dtype=np.float64)
    naive = float(np.sum(w))
    left_to_right = 0.0
    for x in w:
        left_to_right += float(x)
    assert weight_sums_consistent(naive, w)
    assert weight_sums_consistent(left_to_right, w)
    # ...but a total wrong by more than the scale-aware bound (here
    # ~5e4 for sum|w| ~ 5e17) is still rejected.
    assert not weight_sums_consistent(naive + 1e8, w)


# ----------------------------------------------------------------------
# Bug: the scatter-min MWE kernel's dense key->position inversion assumed
# pairwise-distinct keys; duplicate keys returned an arbitrary
# (last-writer) edge, diverging from the loop path's earliest-position
# tie-break.
# ----------------------------------------------------------------------
def test_minimum_edge_kernel_breaks_ties_by_position():
    from repro.kernels.segments import minimum_edge_per_vertex

    edge_u = np.array([0, 0, 1], dtype=np.int64)
    edge_v = np.array([1, 2, 2], dtype=np.int64)
    keys = np.array([5, 5, 5], dtype=np.int64)  # all tied
    edge_ids = np.array([10, 11, 12], dtype=np.int64)
    to, eid, key = minimum_edge_per_vertex(3, edge_u, edge_v, keys, edge_ids)
    # Earliest input position wins every tie.
    assert eid.tolist() == [10, 10, 11]
    assert key.tolist() == [5, 5, 5]


def test_dedupe_parallel_neighbors_keeps_min_key():
    from repro.kernels.relax import dedupe_parallel_neighbors

    nbrs = np.array([3, 3, 5, 5, 5, 7], dtype=np.int64)
    keys = np.array([9, 2, 4, 1, 6, 0], dtype=np.int64)
    eids = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    n2, k2, e2 = dedupe_parallel_neighbors(nbrs, keys, eids)
    assert n2.tolist() == [3, 5, 7]
    assert k2.tolist() == [2, 1, 0]
    assert e2.tolist() == [1, 3, 5]


# ----------------------------------------------------------------------
# Bug: int64 weights funnelled through float64 collide beyond 2**53 —
# distinct graphs got the same artifact fingerprint and one graph's
# forest could be served for another.
# ----------------------------------------------------------------------
def test_int64_weights_beyond_2_53_stay_distinct():
    from repro.service.artifacts import graph_fingerprint

    base = 1 << 53
    g1 = _graph(2, [(0, 1, base)], wdtype=np.int64)
    g2 = _graph(2, [(0, 1, base + 1)], wdtype=np.int64)
    assert float(base) == float(base + 1)  # the collision being guarded
    assert graph_fingerprint(g1, "kruskal") != graph_fingerprint(g2, "kruskal")


def test_int64_weights_round_trip_json_artifact(tmp_path):
    from repro.service.artifacts import (
        load_json_artifact,
        save_json_artifact,
        solve_artifact,
    )

    base = (1 << 53) + 7
    g = _graph(3, [(0, 1, base), (1, 2, base + 1)], wdtype=np.int64)
    artifact = solve_artifact(g, algorithm="kruskal")
    path = tmp_path / "a.json"
    save_json_artifact(artifact, path)
    loaded = load_json_artifact(path)
    assert loaded.msf_w.dtype.kind in "iu"
    assert loaded.msf_w.tolist() == artifact.msf_w.tolist()
    assert int(loaded.total_weight) == int(artifact.total_weight)


# ----------------------------------------------------------------------
# Bug: garbage corruption inside a zip member surfaces as zlib.error /
# struct.error from the decompressor — not zipfile.BadZipFile — and
# escaped the artifact loader's degrade-to-recompute path.
# ----------------------------------------------------------------------
def test_garbage_corrupted_artifact_degrades(tmp_path):
    from repro.checking.families import generate_case
    from repro.checking.faults import corrupt_artifact
    from repro.service import MSTService
    from repro.service.artifacts import ArtifactStore

    g = generate_case("few-distinct-weights", 4, 10).graph
    store = ArtifactStore(tmp_path)
    clean = MSTService(store, algorithm="kruskal").load_graph(g)
    corrupt_artifact(store.path_for(clean.fingerprint), "garbage", seed=2)
    svc = MSTService(ArtifactStore(tmp_path), algorithm="kruskal")
    again = svc.load_graph(g)  # must not raise
    assert again.fingerprint == clean.fingerprint
    assert np.array_equal(again.msf_edge_ids, clean.msf_edge_ids)


# ----------------------------------------------------------------------
# Bug: mutations stored every weight as float(w), so after one mutation
# an int64 graph beyond 2**53 tied 2**53 + 1 with 2**53 and the served
# forest kept the heavier edge.  Kruskal on the live edges disagrees.
# ----------------------------------------------------------------------
def test_int64_weights_stay_exact_through_mutations():
    from repro.errors import ServiceError
    from repro.mst.kruskal import kruskal
    from repro.service import MSTService

    big = 1 << 53
    svc = MSTService()
    svc.load_graph(_graph(3, [(0, 1, big + 1), (1, 2, big), (0, 2, big)],
                          wdtype=np.int64))
    svc.delete_edge(0, 2)
    svc.insert_edge(0, 2, big)
    art, g = svc.artifact, svc.graph
    assert g.edge_w.dtype == np.int64 and art.msf_w.dtype == np.int64
    served = sorted(zip(art.msf_u.tolist(), art.msf_v.tolist()))
    oracle = kruskal(g)
    assert served == sorted((min(u, v), max(u, v)) for u, v in (
        g.edge_endpoints(int(e)) for e in oracle.edge_ids))
    assert served == [(0, 2), (1, 2)]
    assert art.total_weight == 2 * big and isinstance(art.total_weight, int)
    with pytest.raises(ServiceError, match="not exactly representable"):
        svc.insert_edge(0, 1, 2.5)


# ----------------------------------------------------------------------
# Bug: a malformed JSON-lines request aborted the whole `repro serve`
# run, dropping the well-formed requests coalesced around it.  Now every
# line gets a structured per-line response record.
# ----------------------------------------------------------------------
def test_serve_malformed_lines_get_structured_errors(tmp_path):
    import contextlib
    import io

    from repro.checking.families import generate_case
    from repro.cli import main
    from repro.graphs.io.binary import save_npz

    g = generate_case("few-distinct-weights", 0, 8).graph
    graph_path = tmp_path / "g.npz"
    save_npz(g, graph_path)
    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(
        "{broken\n"
        + json.dumps({"op": "connected", "u": 0, "v": 1}) + "\n"
        + json.dumps({"op": "no-such-op"}) + "\n"
        + json.dumps({"op": "weight"}) + "\n"
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["serve", "--input", str(graph_path), "--queries", str(reqs)])
    assert code == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(records) == 4
    assert "error" in records[0] and "error" in records[2]
    assert "result" in records[1] and "result" in records[3]
