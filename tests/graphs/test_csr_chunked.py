"""Chunked CSR build: byte-identical to the one-shot build.

The chunked counting-sort construction exists purely to bound peak
memory; it must never change a single array element.  The checking
families cover every adversarial shape the repo knows (parallel edges,
duplicate weights, empty graphs, isolated vertices, huge int64 weights),
so identity across all of them at several chunk sizes is the strongest
equivalence statement the test tier can make.
"""

import zlib

import numpy as np
import pytest

from repro.checking.families import FAMILIES
from repro.graphs.csr import CSRGraph
from repro.graphs.validation import validate_csr


def _family_edgelist(family, size=24, seed=3):
    rng = np.random.default_rng((zlib.crc32(family.encode()), seed))
    return FAMILIES[family](rng, size)


def _assert_identical(a: CSRGraph, b: CSRGraph):
    # dtype and bytes, not np.array_equal: -0.0 == 0.0 would hide a sign flip.
    assert a.n_vertices == b.n_vertices
    assert a.n_edges == b.n_edges
    for name in (
        "indptr", "indices", "edge_ids", "weights", "edge_u", "edge_v", "edge_w", "ranks",
    ):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes(), name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chunked_build_identical_to_direct(family):
    el = _family_edgelist(family)
    direct = CSRGraph.from_edgelist(el)
    for chunk_edges in (1, 7, 1 << 20):
        chunked = CSRGraph.from_edgelist(el, chunk_edges=chunk_edges)
        _assert_identical(direct, chunked)
        validate_csr(chunked)


@pytest.mark.parametrize("family", ["parallel-edges", "random-duplicates"])
def test_memmap_build_identical_to_direct(family, tmp_path):
    el = _family_edgelist(family, size=40)
    direct = CSRGraph.from_edgelist(el)
    mapped = CSRGraph.from_edgelist(el, chunk_edges=11, memmap_dir=tmp_path)
    _assert_identical(direct, mapped)
    validate_csr(mapped)
    # Anonymous memmaps: nothing left behind on disk.
    assert list(tmp_path.iterdir()) == []


def test_memmap_arrays_are_readonly(tmp_path):
    el = _family_edgelist("random-duplicates", size=30)
    g = CSRGraph.from_edgelist(el, chunk_edges=8, memmap_dir=tmp_path)
    with pytest.raises((ValueError, RuntimeError)):
        g.indices[0] = 99


def test_chunked_build_on_multigraph_keeps_all_half_edges():
    el = _family_edgelist("parallel-edges", size=40)
    direct = CSRGraph.from_edgelist(el)
    chunked = CSRGraph.from_edgelist(el, chunk_edges=3)
    assert chunked.indices.size == 2 * el.n_edges
    _assert_identical(direct, chunked)
