"""What a write builds, and that what it serves equals a fresh solve.

A write sorts the live edges once and packages the repaired forest
straight from :class:`~repro.mst.dynamic.DynamicMSF`: it builds no CSR
(``svc.graph`` builds the snapshot on its first read) and serves the
repair's own path-max index, rebuilt only when the forest changed.
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
from repro.service.artifacts import ArtifactStore
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
    # The first write seeds the repair from the loaded graph: no CSR.
    first = _spans(lambda: svc.insert_edge(0, 59, heavy))
    assert first["csr:build"] == 0

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
                s.insert_edge(u, v, w)
            else:
                s.delete_edge(u, v, w)
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
    hits, misses = store.hits, store.misses
    svc.invalidate()
    svc.connected(0, 1)
    assert (store.hits, store.misses) == (hits + 1, misses)
    assert _same_content(svc.artifact, served)

    bare.invalidate()  # no store: re-solves the lazily built graph
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
    # Each eviction costs at most two indexes, the reload's and the next
    # write's: what re-seeding the repair from the snapshot cost.
    assert builds <= plain_builds + 2 * len(EVICTION_WRITES)
