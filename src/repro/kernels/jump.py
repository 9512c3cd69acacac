"""Batched synchronous pointer jumping.

The loop-mode LLP instance advances each vertex asynchronously
(``G[j] := G[G[j]]`` until ``G[j]`` is a root, no barriers — Lemma 4).
The vectorized formulation runs the same advance as Jacobi-style whole
array sweeps: every sweep squares the pointer structure, so a forest of
depth ``d`` converges in ``ceil(log2 d)`` sweeps.  Each sweep is one
barrier round over the whole array — an upper bound on the asynchronous
cost that keeps the work/span trace honest (see ``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError

__all__ = ["pointer_jump"]


def pointer_jump(
    G: np.ndarray,
    *,
    backend=None,
    n_chunks: int | None = None,
    max_sweeps: int | None = None,
) -> tuple[np.ndarray, int, list[int]]:
    """Jump ``G = G[G]`` to fixed point; returns ``(roots, sweeps, changes)``.

    ``G`` must encode a rooted forest — every chain must end at a vertex
    with ``G[r] == r``.  Unbroken 2-cycles (the mutual minimum-edge pairs
    of Boruvka-family algorithms) must be broken before calling: squaring
    collapses a 2-cycle into *two* self-rooted vertices, silently
    splitting their component.  Longer cycles never reach a fixed point;
    ``max_sweeps`` (default ``log2(n) + 2``) turns that misuse into
    :class:`~repro.errors.AlgorithmError` instead of an infinite loop.

    The input array is not modified.  ``changes`` holds the per-sweep
    count of vertices that moved — the change masks that drive both the
    fixed-point test and the charged work.
    """
    G = np.asarray(G, dtype=np.int64).copy()
    n = G.size
    if n == 0:
        return G, 0, []
    if max_sweeps is None:
        max_sweeps = int(np.log2(n) + 2) if n > 1 else 1
    changes: list[int] = []
    for _ in range(max_sweeps):
        GG = G[G]
        moved = int(np.count_nonzero(GG != G))
        if backend is not None:
            # One barrier sweep: a gather + compare over every pointer.
            backend.charge_parallel(n, n_chunks)
        if moved == 0:
            return G, len(changes), changes
        changes.append(moved)
        G = GG
    if np.array_equal(G[G], G):
        return G, len(changes), changes
    raise AlgorithmError(
        "pointer_jump did not converge — the pointer structure contains a "
        "cycle (unbroken mutual pair?)"
    )
