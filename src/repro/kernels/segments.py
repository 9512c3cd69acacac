"""Segmented min/argmin primitives over edge and half-edge arrays.

Three formulations, fastest applicable first:

* :func:`segmented_min` — the input is already grouped by segment
  (CSR-style ``indptr`` delimiters); one ``np.minimum.reduceat`` call
  reduces every segment, with the classic valid-starts trick to keep
  empty segments at the identity.
* :func:`minimum_edge_per_vertex` — scatter-min (``np.minimum.at``) of
  unique edge keys into a per-vertex slot, then an O(1)-per-edge inverse
  lookup from the winning key back to its edge.  This is the hot kernel
  of the Boruvka family: two scatter passes and one gather, no sorting.
* :func:`segmented_argmin` — the general unsorted ``(segment, key)``
  stream, for callers whose keys are not globally unique: a scatter-min
  of keys finds each segment's minimum, and a second scatter-min of
  positions over the elements achieving it picks the earliest — two
  ``np.minimum.at`` passes, no sorting.

All three model the parallel semisort + grouped-scan pass that the
loop-mode implementations charge, collapsed into whole-array calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segmented_min", "segmented_argmin", "minimum_edge_per_vertex"]

INT64_MAX = np.iinfo(np.int64).max


def _charge(backend, work: int, n_chunks: int | None) -> None:
    if backend is not None and work > 0:
        backend.charge_parallel(work, n_chunks)


def segmented_min(
    values: np.ndarray,
    indptr: np.ndarray,
    *,
    empty: int | float = INT64_MAX,
    backend=None,
    n_chunks: int | None = None,
) -> np.ndarray:
    """Per-segment minimum of ``values`` delimited by ``indptr``.

    ``indptr`` has ``n_segments + 1`` entries; segment ``i`` covers
    ``values[indptr[i]:indptr[i+1]]``.  Empty segments yield ``empty``.
    Charged as one balanced parallel pass over ``values``.
    """
    n_segments = indptr.size - 1
    out = np.full(n_segments, empty, dtype=values.dtype if values.size else np.int64)
    if values.size == 0 or n_segments == 0:
        return out
    starts = np.asarray(indptr[:-1], dtype=np.int64)
    valid = indptr[1:] > starts
    # reduceat over only the non-empty starts: because empty segments have
    # start == end, each reduced stretch still ends exactly at its
    # segment's true boundary.
    out[valid] = np.minimum.reduceat(values, starts[valid])
    _charge(backend, int(values.size), n_chunks)
    return out


def segmented_argmin(
    seg: np.ndarray,
    keys: np.ndarray,
    n_segments: int,
    *,
    backend=None,
    n_chunks: int | None = None,
) -> np.ndarray:
    """Index (into ``seg``/``keys``) of each segment's minimum key.

    ``seg`` need not be sorted; ties break toward the earliest input
    position.  Segments with no element get ``-1``.  Charged as a
    semisort plus a grouped scan over the input.
    """
    out = np.full(n_segments, -1, dtype=np.int64)
    if seg.size == 0 or n_segments == 0:
        return out
    seg = np.asarray(seg, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    best = np.full(n_segments, INT64_MAX, dtype=np.int64)
    np.minimum.at(best, seg, keys)
    # Among the elements achieving their segment's minimum, keep the
    # earliest input position — the stable tiebreak a grouped scan gives.
    achieves = np.flatnonzero(keys == best[seg])
    pos = np.full(n_segments, INT64_MAX, dtype=np.int64)
    np.minimum.at(pos, seg[achieves], achieves)
    hit = pos < INT64_MAX
    out[hit] = pos[hit]
    _charge(backend, 2 * int(seg.size), n_chunks)
    return out


def minimum_edge_per_vertex(
    n_vertices: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    keys: np.ndarray,
    edge_ids: np.ndarray,
    *,
    backend=None,
    n_chunks: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex minimum-key incident edge of an undirected edge list.

    Returns ``(to, eid, key)`` arrays of length ``n_vertices``: the
    opposite endpoint, edge id, and key of each vertex's minimum edge, or
    ``(-1, -1, INT64_MAX)`` for isolated vertices.  This is the ``mwe(v)``
    oracle of Algorithms 3/6.

    Ties between equal keys break lexicographically toward the earliest
    input position — the same symmetry-breaking rule the loop-mode sweeps
    apply with their strict ``<`` comparisons.  The library's callers pass
    unique weight *ranks* (the paper's distinct-weights assumption
    realised at graph construction) so ties never arise internally, but
    the kernel must not silently diverge from the loop path when handed
    duplicate keys: the previous dense key->position inversion assumed
    pairwise-distinct keys and returned an arbitrary (last-writer)
    edge for duplicated ones.

    Implementation: scatter-min each edge's key into both endpoint slots
    (``np.minimum.at``), then scatter-min the input positions of the edges
    achieving each slot's minimum — O(n + m), no sorting.  Charged as the
    same two balanced passes (grouping + grouped scan) the loop
    formulation performs.
    """
    to = np.full(n_vertices, -1, dtype=np.int64)
    eid = np.full(n_vertices, -1, dtype=np.int64)
    best = np.full(n_vertices, INT64_MAX, dtype=np.int64)
    m = edge_u.size
    if m == 0 or n_vertices == 0:
        return to, eid, best
    np.minimum.at(best, edge_u, keys)
    np.minimum.at(best, edge_v, keys)
    verts = np.flatnonzero(best < INT64_MAX)
    # Earliest input position among the edges achieving each endpoint's
    # minimum key — deterministic under duplicate keys.
    pos = np.full(n_vertices, INT64_MAX, dtype=np.int64)
    ach_u = np.flatnonzero(keys == best[edge_u])
    np.minimum.at(pos, edge_u[ach_u], ach_u)
    ach_v = np.flatnonzero(keys == best[edge_v])
    np.minimum.at(pos, edge_v[ach_v], ach_v)
    win = pos[verts]
    wu, wv = edge_u[win], edge_v[win]
    to[verts] = np.where(wu == verts, wv, wu)
    eid[verts] = edge_ids[win]
    _charge(backend, 4 * m, n_chunks)  # grouping pass + grouped scan
    return to, eid, best
