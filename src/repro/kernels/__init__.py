"""Vectorized array kernels for the MST hot loops.

The loop-mode MST implementations iterate vertex-by-vertex in pure Python
so that the Fig 2-4 comparisons measure *algorithmic* work.  On this
runtime, however, interpreter overhead dominates wall-clock time; these
kernels re-express the same phases as whole-array NumPy primitives (the
sparse-kernel formulation of Baer et al., see PAPERS.md) and serve as the
``mode="vectorized"`` fast path of the algorithms in :mod:`repro.mst`.

Primitives
----------
:func:`~repro.kernels.segments.segmented_min`
    ``np.minimum.reduceat`` over CSR-style segment pointers.
:func:`~repro.kernels.segments.segmented_argmin`
    Per-segment argmin of unsorted (segment id, key) pairs.
:func:`~repro.kernels.segments.minimum_edge_per_vertex`
    Per-vertex minimum-weight incident edge over an undirected edge list
    (phase 1 of Boruvka-family algorithms).
:func:`~repro.kernels.jump.pointer_jump`
    Batched synchronous pointer jumping ``G = G[G]`` to fixed point.
:func:`~repro.kernels.contract.contract_edges`
    Fused relabel + self-loop filter + dense renumber (+ optional
    lightest-per-pair dedup) edge contraction.
:func:`~repro.kernels.relax.relax_neighbors`
    Vectorized dense-array Prim relaxation of one vertex's neighbor slice.
:func:`~repro.kernels.frontier.frontier_edges`
    One-shot gather of the CSR half-edge slices of a whole vertex batch.
:func:`~repro.kernels.frontier.frontier_relax_additive`
    One Bellman-Ford scatter-min round of ``dist[src] + w`` path
    extensions over a whole frontier, the engine of the vectorized SSSP
    mode in :mod:`repro.solve.sssp`.

Cost accounting
---------------
Every kernel accepts an optional ``backend`` and charges the work a real
parallel runtime would perform for the pass through
:meth:`~repro.runtime.backend.Backend.charge_parallel`, so the simulated
work/span traces — and the modelled Fig 3/4 plots — remain valid whichever
mode executed.  See ``docs/kernels.md`` for the exact charging rules.
"""

from repro.kernels.contract import contract_edges
from repro.kernels.frontier import frontier_edges, frontier_relax_additive
from repro.kernels.jump import pointer_jump
from repro.kernels.relax import relax_neighbors
from repro.kernels.segments import (
    minimum_edge_per_vertex,
    segmented_argmin,
    segmented_min,
)

__all__ = [
    "segmented_min",
    "segmented_argmin",
    "minimum_edge_per_vertex",
    "pointer_jump",
    "contract_edges",
    "relax_neighbors",
    "frontier_edges",
    "frontier_relax_additive",
]
