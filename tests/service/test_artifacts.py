"""The artifact store: hash stability, disk round-trips, invalidation, corruption.

Store behaviours run over both artifact kinds — MSF (``"mst"``) and a
registered problem (``"cc"``) — through the one :class:`ArtifactStore`.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.checking.faults import _same_content, corrupt_artifact
from repro.errors import ServiceError
from repro.graphs.builder import from_edges
from repro.graphs.generators import gnm_random_graph
from repro.mst.kruskal import kruskal
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.service.artifacts import (
    ArtifactStore,
    artifact_from_result,
    graph_fingerprint,
    load_json_artifact,
    load_npz_artifact,
    problem_fingerprint,
    save_json_artifact,
    save_npz_artifact,
    solve_artifact,
)

EDGES = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (3, 4, 0.5)]
KINDS = ["mst", "cc"]
GOLDEN = Path(__file__).parent / "golden"


def _content(artifact) -> dict:
    """The solved arrays of either kind, for equality checks."""
    if artifact.problem == "mst":
        return {"edge_ids": artifact.msf_edge_ids, "w": artifact.msf_w}
    return artifact.arrays


def _same(a, b) -> bool:
    ca, cb = _content(a), _content(b)
    return ca.keys() == cb.keys() and all(np.array_equal(ca[k], cb[k]) for k in ca)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_rebuilds():
    a = graph_fingerprint(from_edges(EDGES), "kruskal")
    b = graph_fingerprint(from_edges(list(EDGES)), "kruskal")
    assert a == b and len(a) == 64


def test_fingerprint_changes_with_graph_weights_and_algorithm():
    g = from_edges(EDGES)
    base = graph_fingerprint(g, "kruskal")
    heavier = from_edges([(0, 1, 1.5)] + EDGES[1:])
    extra = from_edges(EDGES + [(2, 3, 4.0)])
    assert graph_fingerprint(heavier, "kruskal") != base
    assert graph_fingerprint(extra, "kruskal") != base
    assert graph_fingerprint(g, "boruvka") != base
    assert graph_fingerprint(g, "kruskal", "vectorized") != base


def test_fingerprints_pinned_to_published_values():
    """Existing stores stay warm: both addresses are frozen for fixed inputs."""
    from repro.graphs.csr import CSRGraph
    from repro.graphs.edgelist import EdgeList

    g = from_edges(EDGES)
    big = 1 << 53
    gi = CSRGraph.from_edgelist(EdgeList.from_arrays(
        3, np.array([0, 1, 0]), np.array([1, 2, 2]),
        np.array([big + 1, big, big], dtype=np.int64),
    ))
    assert graph_fingerprint(g, "kruskal") == (
        "e3e1003455487f0effd067ca1055e766b47514d1e07790c5fae4739e621c3a03")
    assert graph_fingerprint(g, "llp-boruvka", "vectorized") == (
        "3a70dcb50c18e34a932b7b2bbca01c160db5bd2bb7d39301796c5322f63b2f9b")
    assert graph_fingerprint(gi, "kruskal") == (
        "9d978cb8ac55a9e60b1e5a8005352b79438e83a71bd4b9b6ec51e5f7ca44cbea")
    assert problem_fingerprint(g, "cc", "loop") == (
        "165c606fa881da22348f0b88ce7c7578950fcc7a86df69445f22c131aa33b628")
    assert problem_fingerprint(g, "sssp", "vectorized", {"source": 1}) == (
        "2251b90ad6662959b7863dc599ca7913831cc8fcae732ed7e3c9298b7b785b8b")
    assert problem_fingerprint(gi, "sssp", None, {"source": 0}) == (
        "8a11caa7e42b89e38f5031a09827770f1c217d790926d7146127ff615afaef59")


def test_fingerprint_stable_across_store_instances(tmp_path):
    g = gnm_random_graph(60, 120, seed=4)
    s1 = ArtifactStore(tmp_path)
    art1, hit1 = s1.get_or_compute(g)
    s2 = ArtifactStore(tmp_path)
    art2, hit2 = s2.get_or_compute(g)
    assert (not hit1) and hit2
    assert art1.fingerprint == art2.fingerprint
    assert np.array_equal(art1.msf_edge_ids, art2.msf_edge_ids)


# ----------------------------------------------------------------------
# Persistence round-trips
# ----------------------------------------------------------------------
def test_npz_round_trip_preserves_everything(tmp_path):
    g = gnm_random_graph(80, 200, seed=7)
    store = ArtifactStore(tmp_path / "store")
    art, _ = store.get_or_compute(g, algorithm="kruskal")
    loaded = store.load(store.path_for(art.fingerprint), art.fingerprint)
    assert loaded.fingerprint == art.fingerprint
    assert loaded.algorithm == "kruskal"
    assert loaded.n_vertices == art.n_vertices
    assert loaded.n_components == art.n_components
    assert loaded.total_weight == pytest.approx(art.total_weight)
    assert np.array_equal(loaded.msf_u, art.msf_u)
    assert np.array_equal(loaded.msf_w, art.msf_w)


@pytest.mark.parametrize("problem", KINDS)
def test_cache_hit_after_reload_from_disk(tmp_path, monkeypatch, problem):
    g = gnm_random_graph(50, 100, seed=1)
    store = ArtifactStore(tmp_path)
    cold, hit = store.get_or_compute(g, problem)
    assert not hit and cold.fingerprint in store
    # A fresh store over the same directory must serve from disk without
    # ever invoking a solver.
    import repro.service.artifacts as artifacts_mod

    def boom(*a, **kw):  # pragma: no cover - would mean a cache miss
        raise AssertionError("cache miss: recomputed on a warm store")

    monkeypatch.setattr(artifacts_mod, "solve_artifact", boom)
    warm = ArtifactStore(tmp_path)
    art, hit = warm.get_or_compute(g, problem)
    assert hit and warm.stats() == {"hits": 1, "misses": 0, "corrupt_replaced": 0}
    assert art.fingerprint == cold.fingerprint and _same(art, cold)


def test_invalidation_on_any_input_change(tmp_path):
    store = ArtifactStore(tmp_path)
    g = from_edges(EDGES)
    store.get_or_compute(g, algorithm="kruskal")
    # different weights / topology / algorithm each miss the cache
    for other, algo in [
        (from_edges([(0, 1, 1.25)] + EDGES[1:]), "kruskal"),
        (from_edges(EDGES + [(2, 4, 9.0)]), "kruskal"),
        (g, "boruvka"),
    ]:
        _, hit = store.get_or_compute(other, algorithm=algo)
        assert not hit


@pytest.mark.parametrize("problem", KINDS)
def test_explicit_invalidate_drops_file(tmp_path, problem):
    store = ArtifactStore(tmp_path)
    g = from_edges(EDGES)
    art, _ = store.get_or_compute(g, problem)
    assert art.fingerprint in store
    assert store.invalidate(art.fingerprint)
    assert art.fingerprint not in store
    assert not store.invalidate(art.fingerprint)
    _, hit = store.get_or_compute(g, problem)
    assert not hit


def test_problem_file_of_the_previous_layout_loads_warm(tmp_path):
    """A CC file written before the MSF and problem stores merged."""
    g = from_edges(EDGES)
    store = ArtifactStore(tmp_path)
    fingerprint = problem_fingerprint(g, "cc", "loop")
    shutil.copy(GOLDEN / "cc-problem-layout-1.npz", store.path_for(fingerprint))
    art, hit = store.get_or_compute(g, "cc", "loop")
    assert hit and store.stats()["corrupt_replaced"] == 0
    assert art.fingerprint == fingerprint and art.scalars == {"n_components": 2}
    assert np.array_equal(art.arrays["labels"], [0, 0, 0, 3, 3])


def test_msf_file_of_layout_2_recomputes_once(tmp_path):
    """An MSF file that still stores the path-max index (layout 2)."""
    g = from_edges(EDGES)
    store = ArtifactStore(tmp_path)
    path = store.path_for(graph_fingerprint(g, "kruskal"))
    shutil.copy(GOLDEN / "msf-layout-2.npz", path)
    with pytest.raises(ServiceError, match="unsupported artifact version 2"):
        load_npz_artifact(path)
    # The golden file is a Kruskal solve, stored under Kruskal's key.
    art, hit = store.get_or_compute(g, mode=None, algorithm="kruskal")
    assert not hit and store.stats() == {"hits": 0, "misses": 1, "corrupt_replaced": 1}
    with np.load(path) as data:
        assert int(data["format_version"]) == 3 and "index_up" not in data.files
    warm = ArtifactStore(tmp_path)
    again, hit = warm.get_or_compute(g, mode=None, algorithm="kruskal")
    assert hit and warm.stats()["corrupt_replaced"] == 0
    assert _same_content(again, art)


def test_msf_file_with_shard_provenance_fields_loads_warm(tmp_path, monkeypatch):
    """A layout-3 file from a direct default solve, written while MSF
    files still carried ``solver=""`` and ``shards=0``."""
    import repro.service.artifacts as artifacts
    from repro.service import MSTService

    g = from_edges(EDGES)
    store = ArtifactStore(tmp_path)
    path = store.path_for(graph_fingerprint(g, DEFAULT_ALGORITHM, "auto"))
    shutil.copy(GOLDEN / "msf-layout-3-solver-fields.npz", path)
    with np.load(path) as data:
        assert {"solver", "shards"} <= set(data.files)

    def no_solve(*args, **kwargs):
        raise AssertionError("a warm artifact must not be re-solved")

    monkeypatch.setattr(artifacts, "solve_artifact", no_solve)
    art = MSTService(store).load_graph(g)
    assert store.stats() == {"hits": 1, "misses": 0, "corrupt_replaced": 0}
    monkeypatch.undo()
    assert art.algorithm == DEFAULT_ALGORITHM and art.mode == "auto"
    assert _same_content(art, solve_artifact(g))


def test_json_dump_with_shard_provenance_fields_loads(tmp_path, capsys):
    from repro.cli import main

    g = gnm_random_graph(40, 90, seed=3)
    art = solve_artifact(g, algorithm="kruskal")
    path = tmp_path / "msf.json"
    save_json_artifact(art, path)
    payload = json.loads(path.read_text())
    payload.update(solver="sharded", shards=2)
    path.write_text(json.dumps(payload))
    loaded = load_json_artifact(path)
    assert loaded.fingerprint == art.fingerprint
    assert np.array_equal(loaded.msf_edge_ids, art.msf_edge_ids)
    assert loaded.total_weight == art.total_weight
    assert main(["query", "--artifact", str(path), "--type", "weight"]) == 0
    assert "[kruskal]" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Concurrent and failed writes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem", KINDS)
def test_interleaved_saves_of_one_artifact(tmp_path, monkeypatch, problem):
    # Two writers of one artifact (two processes booting the same graph
    # cold on one store): the second runs start to finish between the
    # first's write and its rename.
    store = ArtifactStore(tmp_path)
    art = solve_artifact(from_edges(EDGES), problem)
    real_replace = os.replace
    interleaved = []

    def replace(src, dst):
        if not interleaved:
            interleaved.append(src)
            store.save(art)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    store.save(art)
    monkeypatch.undo()
    assert interleaved
    assert _same(store.load(store.path_for(art.fingerprint), art.fingerprint), art)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{art.fingerprint}.npz"]


def test_concurrent_saves_from_threads(tmp_path):
    import sys
    import threading

    store = ArtifactStore(tmp_path)
    art = solve_artifact(from_edges(EDGES))
    errors = []

    def writer():
        try:
            for _ in range(5):
                store.save(art)
        except Exception as exc:  # collected: the test asserts there are none
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _same(store.load(store.path_for(art.fingerprint), art.fingerprint), art)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{art.fingerprint}.npz"]


def test_failed_save_removes_its_temp_file(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    art = solve_artifact(from_edges(EDGES))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        store.save(art)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Corruption, version and kind handling
# ----------------------------------------------------------------------
def test_corrupted_npz_raises_clean_service_error(tmp_path):
    store = ArtifactStore(tmp_path)
    art, _ = store.get_or_compute(from_edges(EDGES))
    path = store.path_for(art.fingerprint)
    path.write_bytes(b"this is not an npz file at all")
    with pytest.raises(ServiceError, match="corrupted artifact"):
        store.load(path)


@pytest.mark.parametrize("problem", KINDS)
def test_truncated_npz_raises_clean_service_error(tmp_path, problem):
    store = ArtifactStore(tmp_path)
    art, _ = store.get_or_compute(gnm_random_graph(40, 80, seed=2), problem)
    path = store.path_for(art.fingerprint)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(ServiceError, match="corrupted artifact"):
        store.load(path)


@pytest.mark.parametrize("problem", KINDS)
def test_fingerprint_mismatch_rejected(tmp_path, problem):
    store = ArtifactStore(tmp_path)
    art, _ = store.get_or_compute(from_edges(EDGES), problem)
    with pytest.raises(ServiceError, match="fingerprint mismatch"):
        store.load(store.path_for(art.fingerprint), expect_fingerprint="0" * 64)


@pytest.mark.parametrize("problem", KINDS)
def test_corrupted_cache_degrades_to_recompute(tmp_path, problem):
    store = ArtifactStore(tmp_path)
    g = from_edges(EDGES)
    art, _ = store.get_or_compute(g, problem)
    store.path_for(art.fingerprint).write_bytes(b"garbage")
    again, hit = store.get_or_compute(g, problem)  # silently replaced, never raises
    assert not hit
    assert store.corrupt_replaced == 1
    assert _same(again, art)
    # the overwritten file is healthy again
    _, hit = store.get_or_compute(g, problem)
    assert hit


@pytest.mark.parametrize("problem", KINDS)
def test_version_mismatch_is_service_error(tmp_path, problem):
    store = ArtifactStore(tmp_path)
    g = from_edges(EDGES)
    art, _ = store.get_or_compute(g, problem)
    corrupt_artifact(store.path_for(art.fingerprint), "version-skew")
    with pytest.raises(ServiceError, match="version"):
        store.load(store.path_for(art.fingerprint))
    _, hit = store.get_or_compute(g, problem)  # an unknown version recomputes
    assert not hit and store.corrupt_replaced == 1


def _set_compression_99(raw: bytearray, record: int) -> None:
    raw[record + 10 : record + 12] = (99).to_bytes(2, "little")


def _set_encrypted_flag(raw: bytearray, record: int) -> None:
    raw[record + 8] |= 1  # "encrypted, password required"


@pytest.mark.parametrize("damage", [_set_compression_99, _set_encrypted_flag])
def test_damaged_zip_member_header_recomputes(tmp_path, damage):
    """zipfile raises RuntimeError/NotImplementedError for these headers."""
    g = from_edges(EDGES)
    store = ArtifactStore(tmp_path)
    art, _ = store.get_or_compute(g)
    path = store.path_for(art.fingerprint)
    raw = bytearray(path.read_bytes())
    damage(raw, raw.index(b"PK\x01\x02"))  # the first central-directory record
    path.write_bytes(bytes(raw))
    with pytest.raises(ServiceError, match="corrupted artifact"):
        load_npz_artifact(path)
    again, hit = store.get_or_compute(g)
    assert not hit and store.corrupt_replaced == 1
    assert _same_content(again, art)


@pytest.mark.parametrize("problem", KINDS)
def test_seeded_corruption_is_refused_or_harmless(tmp_path, problem):
    """Every truncation, bit flip and garbage span either raises
    ServiceError or leaves the loaded content exactly as written."""
    clean = tmp_path / "clean.npz"
    save_npz_artifact(solve_artifact(gnm_random_graph(40, 80, seed=2), problem), clean)
    reference = load_npz_artifact(clean)
    path = tmp_path / "corrupt.npz"
    for kind in ("truncate", "bitflip", "garbage"):
        for seed in range(256):
            shutil.copy(clean, path)
            corrupt_artifact(path, kind, seed=seed)
            try:
                loaded = load_npz_artifact(path)
            except ServiceError:
                continue
            assert _same_content(loaded, reference), (kind, seed)


def test_msf_file_without_the_problem_header_is_an_old_version(tmp_path):
    path = save_npz_artifact(solve_artifact(from_edges(EDGES)), tmp_path / "a.npz")
    with np.load(path) as data:
        payload = {k: np.array(data[k]) for k in data.files if k != "problem"}
    payload["format_version"] = np.int64(1)
    np.savez_compressed(path, **payload)
    with pytest.raises(ServiceError, match="unsupported artifact version 1"):
        load_npz_artifact(path)


def test_mst_service_refuses_a_problem_file(tmp_path):
    from repro.service import MSTService

    path = save_npz_artifact(solve_artifact(from_edges(EDGES), "cc"), tmp_path / "cc.npz")
    with pytest.raises(ServiceError, match="artifact solves 'cc', service hosts 'mst'"):
        MSTService().load_artifact(path)


def test_problem_service_refuses_an_msf_file(tmp_path):
    from repro.solve.service import ProblemService

    path = save_npz_artifact(solve_artifact(from_edges(EDGES)), tmp_path / "msf.npz")
    with pytest.raises(ServiceError, match="artifact solves 'mst', service hosts 'cc'"):
        ProblemService(problem="cc").load_artifact(path)


# ----------------------------------------------------------------------
# Portable JSON artifacts
# ----------------------------------------------------------------------
def test_json_round_trip(tmp_path):
    g = gnm_random_graph(40, 90, seed=3)
    art = solve_artifact(g, algorithm="kruskal")
    path = tmp_path / "msf.json"
    save_json_artifact(art, path)
    loaded = load_json_artifact(path)
    assert loaded.fingerprint == art.fingerprint
    assert loaded.n_components == art.n_components
    assert np.array_equal(loaded.msf_u, art.msf_u)
    assert loaded.total_weight == pytest.approx(art.total_weight)
    assert loaded.oracle().path_max(0, 0) == -1


def test_json_corruption_raises_service_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ServiceError):
        load_json_artifact(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ServiceError):
        load_json_artifact(path)
    path.write_text('{"format": "repro-msf", "version": 99}')
    with pytest.raises(ServiceError, match="version"):
        load_json_artifact(path)


def test_artifact_local_rank_layout():
    g = from_edges(EDGES)
    art = artifact_from_result(g, kruskal(g), "kruskal")
    # stored forest edges are sorted by weight, so position == local rank
    assert list(art.msf_w) == sorted(art.msf_w)
    assert art.n_forest_edges == 3
    assert art.n_components == 2


def test_npz_offline_load_without_store(tmp_path):
    store = ArtifactStore(tmp_path)
    art, _ = store.get_or_compute(from_edges(EDGES))
    loaded = load_npz_artifact(store.path_for(art.fingerprint))
    assert loaded.fingerprint == art.fingerprint


def test_int64_fingerprint_distinguishes_beyond_2_53():
    from repro.graphs.csr import CSRGraph
    from repro.graphs.edgelist import EdgeList

    base = 1 << 53

    def make(delta):
        return CSRGraph.from_edgelist(EdgeList.from_arrays(
            2,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([base + delta], dtype=np.int64),
        ))

    assert float(base) == float(base + 1)  # the float64 collision guarded
    assert graph_fingerprint(make(0), "kruskal") != graph_fingerprint(
        make(1), "kruskal"
    )
    # Same weights, same address: the int path is itself stable.
    assert graph_fingerprint(make(0), "kruskal") == graph_fingerprint(
        make(0), "kruskal"
    )


def test_float_fingerprint_layout_unchanged():
    """Existing float-weight stores must stay warm across this fix.

    The int64 fidelity change added a dtype tag only on the integer
    branch, so float fingerprints hash byte-for-byte as before; this pin
    catches any accidental change to the float layout.
    """
    from repro.graphs.csr import CSRGraph
    from repro.graphs.edgelist import EdgeList

    g = from_edges(EDGES)
    assert graph_fingerprint(g, "kruskal") == graph_fingerprint(
        from_edges(EDGES), "kruskal"
    )
    # A float graph with integral values hashes differently from the same
    # values stored as int64: distinct dtypes are distinct graphs, so the
    # tagged int branch can never collide with a float store entry.
    m = g.n_edges
    u, v = np.asarray(g.edge_u[:m]), np.asarray(g.edge_v[:m])
    w = np.asarray(g.edge_w[:m])
    as_int = CSRGraph.from_edgelist(
        EdgeList.from_arrays(g.n_vertices, u, v, w.astype(np.int64))
    )
    assert graph_fingerprint(as_int, "kruskal") != graph_fingerprint(
        g, "kruskal"
    )
