"""MST verification on one forest certificate.

Every verifier stands on the claimed forest's path-max index
(:class:`~repro.graphs.tree_queries.ForestPathMax`, the verification
step of Karger-Klein-Tarjan that :mod:`repro.mst.kkt` also runs).  Its
build rejects a cycle, its component labels show whether the forest
spans, and one batched query answers every non-tree edge's cycle
maximum: whole-array NumPy work, no Python loop over edges.

* :func:`verify_spanning_forest` — structural: the claimed edges form an
  acyclic subgraph spanning each connected component of the input, and
  the result's ``n_components`` and total match them.
* :func:`verify_minimum_cycle_property` — exact and oracle-free: every
  non-tree edge outranks each forest edge on the cycle it closes.  The
  ranks are :attr:`~repro.graphs.csr.CSRGraph.ranks`, the unique
  ``(weight, edge id)`` order of the paper's §V-A, under which only the
  unique MSF passes; that forest has the cut property at every tree edge.
* :func:`verify_minimum` — exact against a reference: the edge set must
  equal the Kruskal oracle's.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AlgorithmError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.tree_queries import ForestPathMax
from repro.mst.base import MSTResult

__all__ = [
    "verify_spanning_forest",
    "verify_minimum",
    "verify_minimum_cycle_property",
    "stable_weight_sum",
    "weight_sums_consistent",
]


def stable_weight_sum(w: np.ndarray) -> float:
    """Order-independent float sum of a weight array (``math.fsum``).

    ``fsum`` tracks partial sums exactly, so the result does not depend on
    accumulation order — the reference every implementation's running
    total is compared against.
    """
    if w.size == 0:
        return 0.0
    try:
        return math.fsum(np.asarray(w, dtype=np.float64).tolist())
    except OverflowError:
        # Partial sums beyond float range (weights near 1e308): fall back
        # to the naive accumulation, which saturates at +-inf.
        with np.errstate(over="ignore"):
            return float(np.asarray(w, dtype=np.float64).sum())


def weight_sums_consistent(total: float, w: np.ndarray) -> bool:
    """Whether ``total`` is a plausible accumulation of the weights ``w``.

    Any left-to-right, pairwise, or vectorised accumulation of ``n``
    doubles differs from the exact sum by at most ``n * eps`` relative to
    the sum of absolute values, so the tolerance scales with
    ``sum(|w|)`` — a fixed ``rtol``/``atol`` pair (the old
    ``np.isclose(..., 1e-12)``) spuriously rejects correct forests whose
    loop- and vectorized-mode totals were accumulated in different orders
    over large or mixed-magnitude weights.
    """
    if w.size == 0:
        return float(total) == 0.0
    w64 = np.asarray(w, dtype=np.float64)
    try:
        exact = math.fsum(w64.tolist())
        scale = math.fsum(np.abs(w64).tolist())
    except OverflowError:
        # sum(|w|) overflows, so the scale-aware tolerance is infinite and
        # every accumulation is vacuously consistent — there is nothing a
        # finite-precision total can be checked against.
        return True
    eps = np.finfo(np.float64).eps
    tol = 8.0 * eps * (w64.size + 1) * max(scale, 1.0)
    return abs(float(total) - exact) <= tol


def _certify(g: CSRGraph, result: MSTResult) -> ForestPathMax:
    """The path-max index (ranks ``g.ranks``) of ``result``'s spanning forest.

    Raises :class:`AlgorithmError` unless the edge ids are in range and
    distinct, the edges are acyclic (the index build rejects a cycle), no
    edge of ``g`` joins two of the forest's trees, and ``result``'s
    ``n_components`` and total match the edges.
    """
    ids = result.edge_ids
    if ids.size:
        if int(ids.min()) < 0 or int(ids.max()) >= g.n_edges:
            raise AlgorithmError("edge id out of range")
        if np.unique(ids).size != ids.size:
            raise AlgorithmError("duplicate edges in forest")
    try:
        index = ForestPathMax(g.n_vertices, g.edge_u[ids], g.edge_v[ids], g.ranks[ids])
    except GraphError as exc:  # a cycle, or more edges than a forest holds
        raise AlgorithmError(f"not a forest: {exc}") from exc
    joins = np.flatnonzero(index.comp[g.edge_u] != index.comp[g.edge_v])
    if joins.size:
        raise AlgorithmError(
            f"forest does not span the graph: edge {int(joins[0])} joins two of its trees"
        )
    if result.n_components != g.n_vertices - ids.size:
        raise AlgorithmError("result.n_components inconsistent with edge set")
    if not weight_sums_consistent(result.total_weight, g.edge_w[ids]):
        raise AlgorithmError("total_weight inconsistent with edge set")
    return index


def verify_spanning_forest(g: CSRGraph, result: MSTResult) -> None:
    """Raise :class:`AlgorithmError` unless the result is a spanning forest.

    Checks: valid distinct edge ids; acyclic; spanning (it connects
    everything the graph connects); ``n_components`` and the total
    consistent with the edges.
    """
    _certify(g, result)


def verify_minimum(g: CSRGraph, result: MSTResult) -> None:
    """Raise unless the edge set equals the unique MSF (Kruskal oracle)."""
    from repro.mst.kruskal import kruskal

    verify_spanning_forest(g, result)
    oracle = kruskal(g)
    if result.edge_set() != oracle.edge_set():
        extra = sorted(result.edge_set() - oracle.edge_set())
        missing = sorted(oracle.edge_set() - result.edge_set())
        raise AlgorithmError(
            f"not the minimum forest: extra edges {extra[:5]}, missing {missing[:5]}"
        )


def verify_minimum_cycle_property(g: CSRGraph, result: MSTResult) -> None:
    """Complete MST verification via the cycle property (oracle-free).

    A spanning forest is minimum iff every non-tree edge is the heaviest
    edge on the cycle it closes — equivalently, its rank exceeds the
    maximum rank on the forest path between its endpoints.  Checked for
    *all* non-tree edges with one batched
    :meth:`~repro.graphs.tree_queries.ForestPathMax.query_many` over the
    certificate's index (O((n + m) log n) array work), independently of
    any other MST implementation.
    """
    index = _certify(g, result)
    in_tree = np.zeros(g.n_edges, dtype=bool)
    in_tree[result.edge_ids] = True
    off = np.flatnonzero(~in_tree)
    lighter = off[index.query_many(g.edge_u[off], g.edge_v[off]) > g.ranks[off]]
    if lighter.size:
        raise AlgorithmError(
            f"cycle property violated: non-tree edge {int(lighter[0])} is lighter "
            f"than a tree edge on its cycle"
        )
