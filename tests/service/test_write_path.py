"""What a write builds, and that what it serves equals a fresh solve.

A write ends at the repair: the engine serves the repaired forest of
:class:`~repro.mst.dynamic.DynamicMSF` and its own path-max index,
rebuilt only when the forest changed.  It builds no CSR and packages,
fingerprints and persists nothing: the first read of ``svc.artifact`` or
``svc.graph`` does that, once per version, and the store keeps at most
one mutated version per service.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.checking.faults import _same_content
from repro.graphs.builder import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.graphs.generators import gnm_random_graph
from repro.obs.trace import Tracer, use_tracer
from repro.service.artifacts import ArtifactStore, solve_artifact
from repro.service.core import MSTService

CSR_ARRAYS = (
    "indptr", "indices", "weights", "edge_ids", "edge_u", "edge_v", "edge_w",
    "ranks", "half_ranks",
)


def _spans(fn) -> Counter:
    """Names of the obs spans ``fn()`` opens, counted."""
    tracer = Tracer()
    with use_tracer(tracer):
        fn()
    return Counter(s.name for s in tracer.sorted_spans())


def test_a_write_builds_no_csr_and_an_index_only_when_the_forest_changes(tmp_path):
    g = gnm_random_graph(60, 240, seed=3)
    svc = MSTService(ArtifactStore(tmp_path))
    svc.load_graph(g)
    assert svc.artifact.n_components == 1
    heavy = float(g.edge_w.max()) + 1.0
    light = float(g.edge_w.min()) / 2
    # The first write seeds the repair from the loaded graph and the
    # engine's index: no CSR, no index.
    first = _spans(lambda: svc.insert_edge(0, 59, heavy))
    assert first["csr:build"] == 0
    assert first["index:build"] == 0

    # Forest unchanged: a non-tree insert, then that edge's delete.
    for write in (lambda: svc.insert_edge(1, 58, heavy),
                  lambda: svc.delete_edge(1, 58, heavy)):
        spans = _spans(write)
        assert spans["service:mutation"] == 1
        assert spans["csr:build"] == 0
        assert spans["index:build"] == 0

    # The lightest edge joins the forest: one index, for both sides.
    before = svc.artifact.msf_edge_ids.size
    changed = _spans(lambda: svc.insert_edge(2, 57, light))
    assert changed["csr:build"] == 0
    assert changed["index:build"] == 1
    assert svc.artifact.msf_w[0] == light and svc.artifact.msf_edge_ids.size == before
    assert _spans(lambda: svc.bottleneck(2, 57))["index:build"] == 0

    # The snapshot's CSR is built on the first read of svc.graph, once.
    assert _spans(lambda: svc.graph)["csr:build"] == 1
    assert _spans(lambda: svc.graph)["csr:build"] == 0


def _tied(g: CSRGraph) -> CSRGraph:
    """``g`` with its weights folded onto three values."""
    w = np.ceil(g.edge_w * 3)
    return CSRGraph.from_edgelist(EdgeList.from_arrays(g.n_vertices, g.edge_u, g.edge_v, w))


PARALLEL, TIED, NON_TREE, TREE, JOIN = range(5)


def _next_write(svc: MSTService, kind: int, rng):
    """The ``(op, u, v, w)`` of one write of the mixed sequence."""
    art = svc.artifact
    comp = svc.component_id(np.arange(art.n_vertices))
    k = int(rng.integers(0, art.n_forest_edges))
    fu, fv, fw = int(art.msf_u[k]), int(art.msf_v[k]), float(art.msf_w[k])
    if kind == PARALLEL:  # beside a tree edge, tied with it
        return "insert", fu, fv, fw
    if kind == TIED:  # tied with a tree edge, inside its tree
        u, v = rng.choice(np.flatnonzero(comp == comp[fu]), 2, replace=False)
        return "insert", int(u), int(v), fw
    if kind == NON_TREE:
        forest = set(zip(art.msf_u.tolist(), art.msf_v.tolist()))
        off = [(min(u, v), max(u, v), w) for _, (u, v, w) in svc._dyn
               if (min(u, v), max(u, v)) not in forest]
        return ("delete", *off[int(rng.integers(0, len(off)))])
    if kind == TREE:  # replaced when its cut has another edge
        return "delete", fu, fv, fw
    a, b = rng.choice(np.unique(comp), 2, replace=False)  # JOIN
    return "insert", int(a), int(b), float(rng.choice(art.msf_w))


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "distinct"])
def test_mixed_writes_serve_the_index_and_graph_of_a_fresh_load(tmp_path, tied):
    g = gnm_random_graph(90, 80, seed=11)  # 16 trees
    g = _tied(g) if tied else g
    store = ArtifactStore(tmp_path)
    svc, bare = MSTService(store), MSTService(None)
    for s in (svc, bare):
        s.load_graph(g)
    svc.insert_edge(0, 1, 1.0)  # seeds svc._dyn, which the sequence reads
    bare.insert_edge(0, 1, 1.0)
    rng = np.random.default_rng(5)
    seen = Counter()
    for step in range(60):
        kind = step % 5
        op, u, v, w = _next_write(svc, kind, rng)
        trees = svc.artifact.n_components
        for s in (svc, bare):
            if op == "insert":
                spans = _spans(lambda: s.insert_edge(u, v, w))
            else:
                spans = _spans(lambda: s.delete_edge(u, v, w))
            # One index per write at most: a tree-edge delete finds its cut
            # on the index it already has and builds only the engine's.
            builds = spans["index:build"]
            assert (builds == 1) if kind == TREE else (builds <= 1), (step, kind, builds)
        seen[kind, svc.artifact.n_components - trees] += 1
        served, fresh = svc.ensure_ready()._oracle, svc.artifact.oracle()
        for name in ("depth", "comp", "_up", "_mx"):
            assert np.array_equal(getattr(served, name), getattr(fresh, name)), (step, name)
    # Tree-edge deletes with and without a replacement; joining inserts.
    assert seen[TREE, 0] and seen[TREE, 1] and seen[JOIN, -1] == 12, seen

    snapshot = svc._dyn.snapshot()
    for name in CSR_ARRAYS:
        got, want = getattr(svc.graph, name), getattr(snapshot, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    served = svc.artifact
    assert _same_content(served, solve_artifact(svc.graph, algorithm=svc.algorithm))
    counts = store.stats()
    # The reload after an eviction is one index over the kept repair: no
    # store access, no solve, no CSR, no fingerprint.
    for s in (svc, bare):
        s.invalidate()
        spans = _spans(lambda: s.connected(0, 1))
        assert spans["index:build"] == 1 and spans["csr:build"] == 0, spans
        assert not [name for name in spans if name.startswith(("solve:", "artifact:"))], spans
        assert s.total_weight() == served.total_weight
        rebuilt = s.ensure_ready()._oracle
        for name in ("depth", "comp", "_up", "_mx"):
            assert np.array_equal(getattr(rebuilt, name), getattr(served.oracle(), name)), name
    assert store.stats() == counts
    assert _same_content(bare.artifact, served)


# A parallel copy beside a tree edge, then deletes that take the key-least
# copy first: lost if an eviction's reload re-seeds the repair from the
# snapshot, where parallel copies are collapsed and ids renumbered.
EVICTION_WRITES = [
    ("insert", 0, 1, 5.0), ("insert", 2, 0, 4.0), ("delete", 0, 1),
    ("insert", 1, 3, 0.5), ("delete", 0, 1), ("insert", 0, 1, 2.0),
]


def _run_writes(svc: MSTService, evict: bool):
    """Apply :data:`EVICTION_WRITES`, with ``evict`` evicting and reloading first.

    Returns the insert ids and, per eviction, whether the served index
    was freed by ``invalidate()``.
    """
    ids, freed = [], []
    for op, u, v, *w in EVICTION_WRITES:
        if evict:
            index = weakref.ref(svc.ensure_ready()._oracle)
            svc.invalidate()
            gc.collect()
            freed.append(index() is None)
            svc.total_weight()
        if op == "insert":
            ids.append(svc.insert_edge(u, v, *w))
        else:
            svc.delete_edge(u, v, *w)
    return ids, freed


@pytest.mark.parametrize("stored", [True, False], ids=["store", "no-store"])
def test_an_eviction_neither_changes_a_mutated_graph_nor_keeps_its_index(tmp_path, stored):
    g = from_edges([(0, 1, 3.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 9.0)], n_vertices=4)
    runs = {}
    for evict in (False, True):
        svc = MSTService(ArtifactStore(tmp_path / str(evict)) if stored else None)
        svc.load_graph(g)
        tracer = Tracer()
        with use_tracer(tracer):
            ids, freed = _run_writes(svc, evict)
        builds = sum(s.name == "index:build" for s in tracer.sorted_spans())
        runs[evict] = svc, ids, freed, builds
    (plain, plain_ids, _, plain_builds), (evicted, ids, freed, builds) = runs[False], runs[True]
    assert ids == plain_ids == [4, 5, 6, 7]
    assert plain.total_weight() == evicted.total_weight() == 3.5
    assert _same_content(evicted.artifact, plain.artifact)
    for name in CSR_ARRAYS:
        got, want = getattr(evicted.graph, name), getattr(plain.graph, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert freed == [True] * len(EVICTION_WRITES)
    # Each eviction costs one index, the reload's: the next write reuses it.
    assert builds <= plain_builds + len(EVICTION_WRITES)


def test_a_write_persists_nothing_until_its_version_is_read(tmp_path):
    store = ArtifactStore(tmp_path)
    svc = MSTService(store)
    svc.load_graph(gnm_random_graph(60, 240, seed=4))
    for write in (lambda: svc.insert_edge(0, 59, 0.001), lambda: svc.delete_edge(0, 59)):
        spans = _spans(write)
        assert spans["artifact:save"] == spans["artifact:fingerprint"] == 0, spans
        first = _spans(lambda: svc.artifact)
        assert first["artifact:save"] == first["artifact:fingerprint"] == 1, first
        again = _spans(lambda: (svc.artifact, svc.graph))
        assert again["artifact:save"] == again["artifact:fingerprint"] == 0, again
    # The delete's version is the loaded content, whose file stays; the
    # insert's version that it superseded is gone.
    assert [p.stem for p in tmp_path.iterdir()] == [svc.artifact.fingerprint]
    # A version nobody reads is never packaged.
    svc.insert_edge(1, 58, 0.002)
    svc.insert_edge(2, 57, 0.003)
    assert _spans(lambda: svc.total_weight())["artifact:fingerprint"] == 0
    assert len(list(tmp_path.iterdir())) == 1


def test_the_store_keeps_one_mutated_version_per_service(tmp_path):
    store = ArtifactStore(tmp_path)
    graphs = [gnm_random_graph(40, 120, seed=s) for s in (1, 2)]
    services = [MSTService(store) for _ in graphs]
    loaded = {s.load_graph(g).fingerprint for s, g in zip(services, graphs)}
    versions = {}  # fingerprint -> the graph a read saw it for
    rng = np.random.default_rng(8)
    for step in range(80):
        svc = services[step % 2]
        if rng.random() < 0.5 or svc._dyn is None:
            u, v = (int(x) for x in rng.choice(40, 2, replace=False))
            svc.insert_edge(u, v, float(rng.choice([0.001, 0.5, 2.0])))
        else:  # the newest live edge: versions revisit earlier content
            _, (u, v, w) = max(svc._dyn)
            svc.delete_edge(u, v, w)
        roll = rng.random()
        if roll < 0.4:
            versions[svc.artifact.fingerprint] = svc.graph
        elif roll < 0.5:
            svc.invalidate()
        mutated = {p.stem for p in tmp_path.glob("*.npz")} - loaded
        assert len(mutated) <= len(services), (step, mutated)
        assert mutated <= {s._saved for s in services}, step
    assert len(versions) > 10
    assert {p.stem for p in tmp_path.glob("*.npz")} >= loaded
    graph_of = {**{s._loaded: g for s, g in zip(services, graphs)}, **versions}
    for path in tmp_path.glob("*.npz"):
        assert _same_content(store.load(path), solve_artifact(graph_of[path.stem])), path.stem


def test_a_reader_of_a_removed_version_re_solves(tmp_path):
    writer = MSTService(ArtifactStore(tmp_path))
    writer.load_graph(gnm_random_graph(40, 120, seed=3))
    writer.insert_edge(0, 39, 0.001)
    snapshot = writer.graph  # persists this version
    reader = MSTService(ArtifactStore(tmp_path))
    reader.load_graph(snapshot)
    assert reader.store.hits == 1
    writer.insert_edge(1, 38, 0.002)
    writer.artifact  # persists the next version, removing the one read
    assert reader.artifact.fingerprint not in writer.store
    reader.invalidate()
    fresh = solve_artifact(snapshot)
    assert reader.total_weight() == fresh.total_weight
    assert reader.store.stats() == {"hits": 1, "misses": 1, "corrupt_replaced": 0}
    assert _same_content(reader.artifact, fresh)
