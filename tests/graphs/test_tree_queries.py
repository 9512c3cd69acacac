"""Forest path-max oracle (binary lifting) against a brute-force walker."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.datasets import build_dataset
from repro.checking.families import family_names, generate_case
from repro.errors import GraphError
from repro.graphs.tree_queries import DISCONNECTED, ForestPathMax
from repro.service.artifacts import solve_artifact


def _brute_force(n, fu, fv, frank):
    """Dict-based DFS path-max for cross-checking."""
    adj = {v: [] for v in range(n)}
    for a, b, r in zip(fu, fv, frank):
        adj[a].append((b, r))
        adj[b].append((a, r))

    def query(u, v):
        if u == v:
            return -1
        stack = [(u, -1, -1)]
        seen = {u}
        while stack:
            x, mx, _ = stack.pop()
            for y, r in adj[x]:
                if y in seen:
                    continue
                seen.add(y)
                best = max(mx, r)
                if y == v:
                    return best
                stack.append((y, best, 0))
        return DISCONNECTED

    return query


def test_single_path():
    # path 0-1-2-3 with ranks 5, 2, 9
    o = ForestPathMax(4, [0, 1, 2], [1, 2, 3], [5, 2, 9])
    assert o.path_max(0, 3) == 9
    assert o.path_max(0, 2) == 5
    assert o.path_max(1, 2) == 2
    assert o.path_max(2, 0) == 5  # symmetric
    assert o.path_max(1, 1) == -1


def test_disconnected_components():
    o = ForestPathMax(5, [0, 3], [1, 4], [7, 8])
    assert o.path_max(0, 1) == 7
    assert o.path_max(0, 3) == DISCONNECTED
    assert not o.connected(1, 4)
    assert o.connected(3, 4)


def test_star_queries():
    n = 9
    o = ForestPathMax(n, [0] * (n - 1), list(range(1, n)), list(range(10, 18)))
    for a in range(1, n):
        for b in range(1, n):
            if a != b:
                assert o.path_max(a, b) == max(a + 9, b + 9)


def test_rejects_cycle():
    with pytest.raises(GraphError):
        ForestPathMax(3, [0, 1, 2], [1, 2, 0], [1, 2, 3])


def test_rejects_too_many_edges():
    with pytest.raises(GraphError):
        ForestPathMax(2, [0, 0], [1, 1], [1, 2])


def test_rejects_out_of_range_query():
    o = ForestPathMax(2, [0], [1], [3])
    with pytest.raises(GraphError):
        o.path_max(0, 5)


def test_empty_forest():
    o = ForestPathMax(3, [], [], [])
    assert o.path_max(0, 0) == -1
    assert o.path_max(0, 2) == DISCONNECTED


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_matches_brute_force_on_random_forests(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    # random forest: each vertex > 0 attaches to an earlier one with prob 0.8
    fu, fv, frank = [], [], []
    rank = 0
    for v in range(1, n):
        if rng.random() < 0.8:
            fu.append(int(rng.integers(0, v)))
            fv.append(v)
            frank.append(rank)
            rank += 1
    o = ForestPathMax(n, fu, fv, frank)
    brute = _brute_force(n, fu, fv, frank)
    qs = rng.integers(0, n, size=(30, 2))
    for u, v in qs:
        assert o.path_max(int(u), int(v)) == brute(int(u), int(v))


def test_path_max_many():
    o = ForestPathMax(4, [0, 1, 2], [1, 2, 3], [5, 2, 9])
    out = o.query_many([0, 1, 0], [3, 2, 0])
    assert out.tolist() == [9, 2, -1]


def test_query_many_mixed_batch():
    o = ForestPathMax(6, [0, 1, 2, 4], [1, 2, 3, 5], [5, 2, 9, 1])
    out = o.query_many([0, 3, 0, 4, 5], [3, 0, 4, 5, 5])
    assert out.tolist() == [9, 9, DISCONNECTED, 1, -1]
    assert o.connected_many([0, 0, 4], [3, 4, 5]).tolist() == [True, False, True]


def test_query_many_empty_batch():
    o = ForestPathMax(3, [0], [1], [4])
    assert o.query_many([], []).size == 0
    assert o.connected_many([], []).size == 0


def test_query_many_rejects_bad_input():
    o = ForestPathMax(3, [0], [1], [4])
    with pytest.raises(GraphError):
        o.query_many([0, 1], [2])
    with pytest.raises(GraphError):
        o.query_many([0], [7])
    with pytest.raises(GraphError):
        o.connected_many([-1], [0])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_query_many_matches_scalar_on_random_forests(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    fu, fv, frank = [], [], []
    rank = 0
    for v in range(1, n):
        if rng.random() < 0.75:
            fu.append(int(rng.integers(0, v)))
            fv.append(v)
            frank.append(rank)
            rank += 1
    o = ForestPathMax(n, fu, fv, frank)
    qu = rng.integers(0, n, size=80)
    qv = rng.integers(0, n, size=80)
    batched = o.query_many(qu, qv)
    for i in range(qu.size):
        assert batched[i] == o.path_max(int(qu[i]), int(qv[i]))


def test_deep_chain_lifting():
    n = 300
    o = ForestPathMax(n, list(range(n - 1)), list(range(1, n)), list(range(n - 1)))
    assert o.path_max(0, n - 1) == n - 2
    assert o.path_max(10, 20) == 19
    assert o.path_max(250, 100) == 249


# ----------------------------------------------------------------------
# The build: pinned bytes and an ascending-root DFS reference
# ----------------------------------------------------------------------
def _msf(dataset):
    art = solve_artifact(build_dataset(dataset, 8))
    return art.n_vertices, art.msf_u, art.msf_v, np.arange(art.msf_u.size)


def _pinned_forests():
    path = np.arange(999)
    return {
        "usa-road-8": _msf("usa-road"),
        "graph500-8": _msf("graph500"),
        "path-1000": (1000, path + 1, path, (path * 7919) % 999),
        "star": (8, [3] * 7, [0, 1, 2, 4, 5, 6, 7], [6, 5, 4, 3, 2, 1, 0]),
        "three-trees": (
            12, [4, 7, 2, 10, 10, 11, 8], [7, 2, 9, 1, 5, 1, 6], [3, 0, 6, 1, 5, 2, 4],
        ),
        "n1": (1, [], [], []),
        "n0": (0, [], [], []),
    }


# SHA-256 of the depth|comp|up|mx bytes, recorded from the traversal
# build (a DFS from each least unvisited vertex) the pointer-jumping
# build replaced.
PINNED_DIGESTS = {
    "usa-road-8": "508620a2cbec3e7f49acbd35c5a348acb90b97ba1da02299d1addd0834a2a0d3",
    "graph500-8": "d4194b38daa9be5499a5ebc45a4fc104ee2d28dd9c822f931dcac2c9cd2851b2",
    "path-1000": "fafca5c0e8cdd405c4f62606811b40868c9cf3d09051a3cebb5177bee2873b30",
    "star": "d3ada599711d373813cba7d685947ccd82a7cb037341c6067663386e93bb2965",
    "three-trees": "10b960ee3ab1a07e93efdabb8d009b3c0472b31b524e1773760b8d7558f85473",
    "n1": "d03d098dd666459f80af4f5e2370ca5de35fc8de8aaf01ff712980ef52a0e6f3",
    "n0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_build_reproduces_pinned_digests():
    for name, args in _pinned_forests().items():
        o = ForestPathMax(*args)
        h = hashlib.sha256()
        for arr in (o.depth, o.comp, o._up, o._mx):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        assert h.hexdigest() == PINNED_DIGESTS[name], name
    assert ForestPathMax(*_pinned_forests()["path-1000"]).depth.max() == 999


def _dfs_reference(n, fu, fv, frank):
    """Parent, parent-edge rank, depth and root per vertex; roots ascend."""
    adj = [[] for _ in range(n)]
    for a, b, r in zip(fu, fv, frank):
        adj[a].append((b, r))
        adj[b].append((a, r))
    parent, pedge, depth, comp = ([-1] * n for _ in range(4))
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root], depth[root] = root, 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, r in adj[x]:
                if comp[y] < 0:
                    parent[y], pedge[y], depth[y], comp[y] = x, r, depth[x] + 1, root
                    stack.append(y)
    return parent, pedge, depth, comp


def _assert_matches_reference(n, fu, fv, frank):
    o = ForestPathMax(n, fu, fv, frank)
    parent, pedge, depth, comp = _dfs_reference(n, list(fu), list(fv), list(frank))
    assert o._up[0].tolist() == parent
    assert o._mx[0].tolist() == pedge
    assert o.depth.tolist() == depth
    assert o.comp.tolist() == comp


def _random_forest(rng, n, p_edge=0.8):
    """Edges of a random forest, relabelled, shuffled and randomly oriented."""
    label = rng.permutation(n)
    pairs = [(label[int(rng.integers(0, v))], label[v])
             for v in range(1, n) if rng.random() < p_edge]
    rng.shuffle(pairs)
    flip = rng.random(len(pairs)) < 0.5
    fu = [int(b if f else a) for (a, b), f in zip(pairs, flip)]
    fv = [int(a if f else b) for (a, b), f in zip(pairs, flip)]
    return fu, fv, rng.permutation(len(pairs)).tolist()


@pytest.mark.parametrize("seed", range(60))
def test_build_matches_dfs_reference_on_random_forests(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    _assert_matches_reference(n, *_random_forest(rng, n))


@pytest.mark.parametrize("family", family_names())
def test_build_matches_dfs_reference_on_family_msfs(family):
    for seed in range(3):
        art = solve_artifact(generate_case(family, seed, 16).graph)
        ranks = np.arange(art.msf_u.size)
        _assert_matches_reference(art.n_vertices, art.msf_u, art.msf_v, ranks)


@pytest.mark.parametrize("seed", range(40))
def test_build_rejects_cycles_self_loops_and_parallel_edges(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    fu, fv, frank = _random_forest(rng, n, p_edge=0.6)
    if not fu:
        fu, fv, frank = [0], [1], [0]
    a = int(rng.integers(0, len(fu)))
    # A parallel edge, a self-loop, and a chord closing a longer cycle
    # (the path a..c through the first edge's tree, when one exists).
    bad = [(fv[a], fu[a]), (fu[a], fu[a])]
    o = ForestPathMax(n, fu, fv, frank)
    same_tree = np.flatnonzero(o.comp == o.comp[fu[a]])
    far = same_tree[o.depth[same_tree] >= 2]
    if far.size:
        c = int(far[0])
        bad.append((c, int(o.comp[c])))
    for x, y in bad:
        if len(fu) + 1 >= n:
            continue
        with pytest.raises(GraphError, match="cycle"):
            ForestPathMax(n, fu + [x], fv + [y], frank + [len(fu)])


def test_build_rejects_out_of_range_endpoints():
    with pytest.raises(GraphError, match="out of range"):
        ForestPathMax(3, [0, -1], [1, 1], [0, 1])
    with pytest.raises(GraphError, match="out of range"):
        ForestPathMax(3, [0], [3], [0])
    with pytest.raises(GraphError, match="out of range"):
        ForestPathMax(0, [0], [0], [0])


def test_build_rejects_mismatched_shapes():
    with pytest.raises(GraphError, match="identical shape"):
        ForestPathMax(4, [0, 1], [1], [0, 1])
