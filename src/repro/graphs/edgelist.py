"""Canonical undirected weighted edge lists.

An :class:`EdgeList` stores each undirected edge exactly once in canonical
orientation ``u < v`` as three parallel NumPy arrays (structure-of-arrays,
per the HPC idiom: contiguous typed columns rather than an array of edge
objects).  It is the interchange format between generators, file readers,
and the CSR builder.

Weights are ``float64`` unless the input array has an integer dtype, in
which case they are kept as ``int64``: converting large integers (beyond
2**53) to float silently merges distinct weights, which would corrupt both
the weight total order and the content-addressed artifact fingerprints
downstream.

Sorting by vertex pair goes through :func:`pair_word`, one int64 key per
``(lo, hi)`` pair, so one stable ``argsort`` replaces a multi-key lexsort
wherever edges are ordered by their endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.errors import GraphError, WeightError

__all__ = ["EdgeList", "MAX_PAIR_WORD_VERTICES", "check_pair_word_limit", "pair_word"]

_VERTEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64

# Largest vertex count whose pair words all fit int64: the largest word,
# (n - 1) * n + (n - 1) = n * n - 1, must not pass 2**63 - 1.
MAX_PAIR_WORD_VERTICES = math.isqrt(2**63 - 1)


def check_pair_word_limit(n_vertices: int) -> None:
    """Raise :class:`GraphError` when ``n_vertices`` pair words overflow int64."""
    if n_vertices > MAX_PAIR_WORD_VERTICES:
        raise GraphError(
            f"{n_vertices} vertices exceed the pair-word limit of "
            f"{MAX_PAIR_WORD_VERTICES}: lo * n + hi would overflow int64"
        )


def pair_word(lo, hi, n_vertices: int) -> np.ndarray:
    """The int64 sort key ``lo * n + hi`` of each vertex pair.

    For ids in ``[0, n)`` the words order exactly as the ``(lo, hi)``
    pairs do, so a stable ``argsort`` of them is a stable two-key
    lexsort.  Raises :class:`GraphError` above
    :data:`MAX_PAIR_WORD_VERTICES` vertices.
    """
    check_pair_word_limit(n_vertices)
    return lo * np.int64(n_vertices) + hi


def _as_weight_array(w) -> np.ndarray:
    """Coerce weights to the canonical dtype, preserving integer fidelity.

    Integer inputs stay ``int64`` (exact beyond 2**53); everything else
    becomes ``float64``.
    """
    w = np.asarray(w)
    if w.dtype.kind in "iu":
        return w.astype(np.int64).ravel()
    return w.astype(_WEIGHT_DTYPE).ravel()


@dataclass(frozen=True)
class EdgeList:
    """An immutable list of undirected weighted edges.

    Attributes
    ----------
    n_vertices:
        Number of vertices; vertex ids are ``0 .. n_vertices - 1``.
    u, v:
        Endpoint arrays with ``u[i] < v[i]`` for every edge ``i``.
    w:
        Edge weights (float64, finite).
    """

    n_vertices: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    _validated: bool = field(default=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(
        n_vertices: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        *,
        dedup: bool = True,
        validate: bool = True,
    ) -> "EdgeList":
        """Build a canonical edge list from raw endpoint/weight arrays.

        Edges are canonicalised to ``u < v`` orientation.  Self loops are
        dropped.  When ``dedup`` is true, parallel edges are collapsed
        keeping the minimum weight (the only weight that can ever appear in
        an MST).
        """
        u = np.asarray(u, dtype=_VERTEX_DTYPE).ravel()
        v = np.asarray(v, dtype=_VERTEX_DTYPE).ravel()
        w = _as_weight_array(w)
        if not (u.shape == v.shape == w.shape):
            raise GraphError(
                f"endpoint/weight arrays must match: {u.shape}, {v.shape}, {w.shape}"
            )
        if n_vertices < 0:
            raise GraphError(f"n_vertices must be >= 0, got {n_vertices}")
        if u.size:
            lo = min(int(u.min()), int(v.min()))
            hi = max(int(u.max()), int(v.max()))
            if lo < 0 or hi >= n_vertices:
                raise GraphError(
                    f"vertex ids must lie in [0, {n_vertices}); saw [{lo}, {hi}]"
                )
            if not np.isfinite(w).all():
                raise WeightError("edge weights must be finite")

        # Canonical orientation and self-loop removal.
        lo_end = np.minimum(u, v)
        hi_end = np.maximum(u, v)
        keep = lo_end != hi_end
        lo_end, hi_end, w = lo_end[keep], hi_end[keep], w[keep]

        if dedup and lo_end.size:
            # One stable sort of the pair words groups parallel edges in
            # input order; each group keeps its first edge whose weight
            # equals the group minimum.  Matching by ``==`` keeps that
            # edge's own weight bytes, where reduceat's minimum of 0.0
            # and -0.0 may be either zero.
            key = pair_word(lo_end, hi_end, n_vertices)
            order = np.argsort(key, kind="stable")
            key = key[order]
            head = np.empty(key.size, dtype=bool)
            head[0] = True
            np.not_equal(key[1:], key[:-1], out=head[1:])
            if not head.all():
                ws = w[order]
                group = np.cumsum(head) - 1
                low = ws == np.minimum.reduceat(ws, np.flatnonzero(head))[group]
                at = np.flatnonzero(low)
                first = np.r_[True, group[at[1:]] != group[at[:-1]]]
                order = order[at[first]]
            lo_end, hi_end, w = lo_end[order], hi_end[order], w[order]

        for arr in (lo_end, hi_end, w):
            arr.setflags(write=False)
        return EdgeList(n_vertices, lo_end, hi_end, w, _validated=validate)

    @staticmethod
    def from_pairs(
        n_vertices: int,
        pairs: Iterable[Tuple[int, int, float]],
    ) -> "EdgeList":
        """Build from an iterable of ``(u, v, weight)`` triples."""
        triples = list(pairs)
        if not triples:
            empty = np.empty(0, dtype=_VERTEX_DTYPE)
            return EdgeList.from_arrays(
                n_vertices, empty, empty.copy(), np.empty(0, dtype=_WEIGHT_DTYPE)
            )
        arr = np.asarray(triples, dtype=_WEIGHT_DTYPE)
        return EdgeList.from_arrays(
            n_vertices,
            arr[:, 0].astype(_VERTEX_DTYPE),
            arr[:, 1].astype(_VERTEX_DTYPE),
            arr[:, 2],
        )

    @staticmethod
    def empty(n_vertices: int = 0) -> "EdgeList":
        """An edge list with ``n_vertices`` isolated vertices."""
        e = np.empty(0, dtype=_VERTEX_DTYPE)
        return EdgeList.from_arrays(
            n_vertices, e, e.copy(), np.empty(0, dtype=_WEIGHT_DTYPE)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.u.size)

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.w.sum()) if self.w.size else 0.0

    def __len__(self) -> int:
        return self.n_edges

    def __iter__(self) -> Iterator[Tuple[int, int, float]]:
        for i in range(self.n_edges):
            yield int(self.u[i]), int(self.v[i]), float(self.w[i])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeList(n={self.n_vertices}, m={self.n_edges})"

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def with_weights(self, w: np.ndarray) -> "EdgeList":
        """Return a copy with replaced weights (same topology)."""
        w = _as_weight_array(w)
        if w.shape != self.w.shape:
            raise GraphError(
                f"weight array shape {w.shape} does not match edge count {self.w.shape}"
            )
        if w.size and not np.isfinite(w).all():
            raise WeightError("edge weights must be finite")
        w = w.copy()
        w.setflags(write=False)
        return EdgeList(self.n_vertices, self.u, self.v, w, _validated=self._validated)

    def subset(self, mask: np.ndarray) -> "EdgeList":
        """Return the edge list restricted to edges where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.u.shape:
            raise GraphError("mask shape does not match edge count")
        return EdgeList.from_arrays(
            self.n_vertices, self.u[mask], self.v[mask], self.w[mask], dedup=False
        )

    def has_unique_weights(self) -> bool:
        """True when no two edges share a weight."""
        if self.n_edges <= 1:
            return True
        s = np.sort(self.w)
        return bool((s[1:] != s[:-1]).all())
