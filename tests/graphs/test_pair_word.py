"""Sorting edges by one int64 pair word: pinned bytes and the int64 limit.

The dedup in :meth:`EdgeList.from_arrays` and both CSR builds order
edges by :func:`~repro.graphs.edgelist.pair_word`.  The digests below
were recorded from the three-key ``lexsort((w, hi, lo))`` dedup and the
``lexsort((dst, src))`` half-edge order that the pair word replaced, so
a changed kept edge, weight byte (signed zeros included), half-edge
order or rank fails here.
"""

from __future__ import annotations

import hashlib
import math
import zlib

import numpy as np
import pytest

from repro.checking.families import FAMILIES
from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import MAX_PAIR_WORD_VERTICES, EdgeList, pair_word
from repro.graphs.io.dimacs import read_dimacs

EDGE_ARRAYS = ("u", "v", "w")
CSR_ARRAYS = (
    "indptr", "indices", "weights", "edge_ids", "edge_u", "edge_v", "edge_w", "ranks",
)
BUILDS = {"direct": {}, "chunk-1": {"chunk_edges": 1}, "chunk-7": {"chunk_edges": 7}}


def _arcs(el: EdgeList, rng):
    """``el`` as shuffled arcs in both directions; reversed zeros turn -0.0."""
    back = el.w.copy()
    back[back == 0] *= -1
    u = np.concatenate([el.u, el.v])
    v = np.concatenate([el.v, el.u])
    w = np.concatenate([el.w, back])
    p = rng.permutation(u.size)
    return el.n_vertices, u[p], v[p], w[p]


def _cases():
    """Case name -> list of ``(n, u, v, w)`` arc sets."""
    cases = {}
    for family in sorted(FAMILIES):
        arcsets = []
        for seed in (3, 4):
            rng = np.random.default_rng((zlib.crc32(family.encode()), seed))
            arcsets.append(_arcs(FAMILIES[family](rng, 24), rng))
        cases[family] = arcsets
    rng = np.random.default_rng(22)
    u, v = rng.integers(0, 12, 200), rng.integers(0, 12, 200)
    # Parallel int64 weights that collide once rounded to float64.
    cases["int64-beyond-2**53"] = [
        (2, [0, 1, 0], [1, 0, 1], np.array([2**53 + 1, 2**53, 2**53 + 2])),
        (12, u, v, (1 << 53) + rng.integers(0, 4, 200)),
    ]
    # Tied under comparison, distinct in bytes: only input order decides.
    cases["all-tied"] = [
        (12, u, v, np.ones(200)),
        (12, u, v, np.where(rng.random(200) < 0.5, 0.0, -0.0)),
    ]
    cases["signed-zero"] = [(2, [0, 1], [1, 0], [0.0, -0.0])]
    return cases


def _digest(arcsets, **build) -> str:
    h = hashlib.sha256()
    for n, u, v, w in arcsets:
        for dedup in (True, False):
            el = EdgeList.from_arrays(n, u, v, w, dedup=dedup)
            g = CSRGraph.from_edgelist(el, **build)
            arrays = [getattr(el, a) for a in EDGE_ARRAYS]
            arrays += [getattr(g, a) for a in CSR_ARRAYS]
            for arr in arrays:
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# SHA-256 over dtype, shape and bytes of every array above, recorded from
# the lexsort dedup and CSR build (direct path).
PINNED_DIGESTS = {
    "all-equal-weights": "f7bbf5ec6f42080e6363693f1e1d5a99a24549134cb5a0c36bc28aaed220f893",
    "all-tied": "3be16d91a8d57314e645974882c45a775c49ff6254842d7a4a2c3f18a6f6e719",
    "complete-small": "31ced6211940c0aefeb8b02b7500bef1b34e738980ce2e495d3d21ab527ec597",
    "denormal-floats": "1a307987f14436010293ddea4f43436df2359ec8dac9f95ec576f6bcbb75e9fa",
    "disconnected": "42348658fe0f08f324b1509ec20b62dbcf82b3dc4be1bdb8a6003043dbca7837",
    "empty": "7920596e1f1fab6409d32999a506eb17d5b4283bcc1b7da09c083bcbf34fce2b",
    "few-distinct-weights": "77dd8c7ef6d79a1302b69935a977fc51e20059723594afee4a81f88343f393e1",
    "huge-floats": "cfee3f1dbdc6bd5ff0d8a095e617a368c3ff94a0b20fc5a029ef4d7a3d305e38",
    "int64-beyond-2**53": "c800ef66c496d883f2feacab526b095a2fff05abee97ebf1556d127c1993ba85",
    "int64-huge": "d43e6e506ea86fd0ded5cab1dc4a0974a375a94e4518051f82606b7a93300706",
    "isolated": "c011af8a1ed9f771afd359edb2968329e27e99be31f476c1eaf33f2423c1425f",
    "mixed-magnitude": "dc413390184418e26e871f623ed8540855dc16bd91ecc469f171cd97a990319c",
    "negative-weights": "420b11773006dbc9acf0e87c62d7ec03f16e9ad730f6ec6dec5867c231957f89",
    "parallel-edges": "88e0d9e1c8c38fab10edb50a5a1f7a0b36c3c049075ab5c8eb527db13b35b192",
    "random-duplicates": "ef1620fe8f9fff0478e9378a395294dc0e7c0370b6d669d21d7a1c0a8967b944",
    "self-loops": "09cb4dece2bf84dfe270dd7dfe43af4c3b381f08da968637dc901ef04154959f",
    "signed-zero": "fb2150b9b8e01682ef660143fb38b3175530fc176736dd607496a5fad9d80be5",
    "single-edge": "cd3fbe54fbc05d65c7ff5278e659370a41407b8d1062089d4309b0b2df8a43a8",
    "single-vertex": "ee6fc15aa104fd2a0efc7423c69a7cea15fb81f6a4a8986480538ec62456c2df",
    "zero-weights": "d873a5a50fbd7e9e4aaab5af8c12d64803b1316f482f7b8f3b74d7ba46f293d5",
}


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_arrays_reproduce_pinned_digests(case, build):
    assert _digest(_cases()[case], **BUILDS[build]) == PINNED_DIGESTS[case]


def test_every_case_is_pinned():
    assert sorted(_cases()) == sorted(PINNED_DIGESTS)


def test_dedup_keeps_the_first_of_tied_signed_zeros():
    # np.minimum.reduceat over [0.0, -0.0] gives -0.0; the dedup must keep
    # the first arc's own bytes.
    el = EdgeList.from_arrays(2, [0, 1], [1, 0], [0.0, -0.0])
    assert el.w.tobytes() == np.float64(0.0).tobytes()
    el = EdgeList.from_arrays(2, [1, 0], [0, 1], [-0.0, 0.0])
    assert el.w.tobytes() == np.float64(-0.0).tobytes()


def test_dedup_keeps_the_lightest_parallel_edge_in_pair_order():
    el = EdgeList.from_arrays(
        5, [3, 0, 1, 4, 1, 0], [1, 2, 3, 2, 3, 2], [5.0, 2.0, 4.0, 1.0, 6.0, 2.5]
    )
    assert el.u.tolist() == [0, 1, 2]
    assert el.v.tolist() == [2, 3, 4]
    assert el.w.tolist() == [2.0, 4.0, 1.0]


# ----------------------------------------------------------------------
# The int64 limit: refused by name, before any per-vertex allocation
# ----------------------------------------------------------------------
PAST = MAX_PAIR_WORD_VERTICES + 1


def test_limit_is_the_int64_square_root():
    assert MAX_PAIR_WORD_VERTICES == math.isqrt(2**63 - 1) == 3_037_000_499
    top = MAX_PAIR_WORD_VERTICES
    assert int(pair_word(np.int64(top - 2), np.int64(top - 1), top)) == (
        (top - 2) * top + top - 1
    )


def test_dedup_refuses_n_past_the_limit():
    with pytest.raises(GraphError, match="3037000499"):
        EdgeList.from_arrays(PAST, [0], [1], [1.0])


def test_dedup_builds_at_the_limit():
    top = MAX_PAIR_WORD_VERTICES
    el = EdgeList.from_arrays(
        top, [top - 1, 0, top - 2], [top - 2, 1, top - 1], [3.0, 2.0, 1.0]
    )
    assert el.u.tolist() == [0, top - 2]
    assert el.v.tolist() == [1, top - 1]
    assert el.w.tolist() == [2.0, 1.0]


@pytest.mark.parametrize("build", [{}, {"chunk_edges": 1}], ids=["direct", "chunk-1"])
def test_csr_build_refuses_n_past_the_limit(build):
    el = EdgeList.from_arrays(PAST, [0, 0], [1, 1], [1.0, 2.0], dedup=False)
    with pytest.raises(GraphError, match="3037000499"):
        CSRGraph.from_edgelist(el, **build)


def test_read_dimacs_refuses_a_problem_line_past_the_limit(tmp_path):
    path = tmp_path / "huge.gr"
    path.write_text(f"p sp {PAST} 2\na 1 2 1.0\na 2 1 1.0\n")
    with pytest.raises(GraphError, match="3037000499"):
        read_dimacs(path)
