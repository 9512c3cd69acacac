"""Frontier-sparse CSR slicing and batched additive relaxation.

These kernels operate on a **frontier** — a batch of vertices whose
adjacency must be scanned this round — and touch only the frontier's
half-edges (the sparse-matrix-kernel shape of Baer et al., PAPERS.md):

* :func:`frontier_edges` gathers the CSR half-edge positions of every
  frontier vertex in one shot (the classic ``repeat``/``cumsum`` slice
  concatenation), so a round pays the NumPy dispatch cost once for the
  whole batch instead of once per vertex;
* :func:`frontier_relax_additive` runs one Bellman-Ford round over that
  gather: a ``np.minimum.at`` scatter-min of ``dist[src] + w`` into the
  distance array — O(sum of frontier degrees) plus one O(n) dedup mask.

They drive the vectorized SSSP mode of :mod:`repro.solve.sssp`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["frontier_edges", "frontier_relax_additive"]


def frontier_edges(
    indptr: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Half-edge positions and sources of every frontier vertex's slice.

    Returns ``(pos, src)``: ``pos`` indexes the CSR half-edge arrays
    (``indices``/``half_ranks``/``edge_ids``) covering the concatenated
    adjacency slices of ``frontier``, and ``src[i]`` is the frontier
    vertex owning position ``pos[i]``.  One vectorized gather for the
    whole batch — no per-vertex Python iteration.
    """
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    total = int(lens.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Offsets within the concatenation where each slice begins; the
    # repeat/arange difference turns them into absolute CSR positions.
    ends = np.cumsum(lens)
    pos = np.repeat(starts - (ends - lens), lens) + np.arange(total, dtype=np.int64)
    src = np.repeat(frontier, lens)
    return pos, src


def frontier_relax_additive(
    frontier: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    dist: np.ndarray,
    *,
    backend=None,
) -> tuple[np.ndarray, int]:
    """One Bellman-Ford round: relax every out-edge of the ``frontier``.

    Candidate keys are ``dist[src] + w`` (path extension), scattered
    into ``dist`` with one ``np.minimum.at``.  Returns the sorted unique
    vertices whose distance improved this round (the next frontier) and
    the number of live relaxations performed.  ``dist``
    must be float64; float addition of nonnegative weights is monotone,
    so iterating to fixpoint yields the exact minimum over per-path
    left-to-right float sums — the same values the sequential queue
    algorithm converges to (see :mod:`repro.solve.sssp`).
    """
    pos, src = frontier_edges(indptr, frontier)
    if backend is not None and pos.size:
        backend.charge_serial(int(pos.size))
    if pos.size == 0:
        return np.empty(0, dtype=np.int64), 0
    tgt = indices[pos]
    # Overflow to inf is the intended absorbing behaviour for huge
    # weights (an inf candidate never wins a minimum) — not an error.
    with np.errstate(over="ignore"):
        cand = dist[src] + weights[pos]
    live = cand < dist[tgt]
    if not live.any():
        return np.empty(0, dtype=np.int64), 0
    tgt, cand = tgt[live], cand[live]
    np.minimum.at(dist, tgt, cand)
    # Dedup via a scatter mask rather than np.unique: one O(n) scan beats
    # hashing ~|frontier edges| values per round, and flatnonzero returns
    # the same sorted order, keeping the next round's gather deterministic.
    mask = np.zeros(dist.shape[0], dtype=bool)
    mask[tgt] = True
    return np.flatnonzero(mask), int(tgt.size)
