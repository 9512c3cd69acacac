"""Adaptive kernel-mode selection: the ``mode="auto"`` cost model.

Every algorithm with a vectorized fast path trades per-edge Python work
for whole-array NumPy dispatch, and the exchange rate depends on graph
shape.  The Boruvka family vectorizes its *rounds* — a handful of
whole-edge-list scatters regardless of density — so its vectorized mode
wins at every size for the hook-and-jump variants and from a few hundred
edges up for BFS-labelling ``boruvka``.  Dense-array
Prim instead trades O(deg) Python per pop for an O(n) NumPy ``argmin``
per pop, which only pays above an average-degree crossover.  Algorithms
without a vectorized mode always resolve to ``"loop"``.

The cost model is deliberately tiny: per algorithm, a
:class:`Crossover` of ``(min_edges, min_avg_degree)`` thresholds that a
graph must clear for the vectorized mode to be selected.  The shipped
:data:`DEFAULT_CROSSOVERS` are the only input: no per-machine file
overrides them, so ``auto`` picks the same mode for the same graph
shape on every host.  :func:`calibrate` re-measures the crossovers on
the current machine — timing loop vs vectorized on synthetic graphs
across a degree/size grid — and returns the table, for whoever updates
the shipped values.  Every mode returns the same forest, so a
crossover only moves latency.

``mode="auto"`` is accepted by :func:`repro.mst.registry.get_algorithm`
for **every** algorithm: loop-only algorithms simply resolve to their
only mode, so callers (CLI, service, shard workers) can default to
``auto`` without special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = [
    "Crossover",
    "DEFAULT_CROSSOVERS",
    "choose_mode",
    "calibrate",
]


@dataclass(frozen=True)
class Crossover:
    """Thresholds above which an algorithm's vectorized mode is selected.

    A graph must clear **both**: at least ``min_edges`` edges (below
    that, array setup dominates any kernel win) and average degree
    (``2m/n``) at least ``min_avg_degree`` (the density crossover of
    dense-array Prim; ``0.0`` for algorithms whose vectorized rounds win
    at any density).
    """

    min_edges: int
    min_avg_degree: float


# Measured on the reference machine (single core, NumPy BLAS defaults).
DEFAULT_CROSSOVERS: Dict[str, Crossover] = {
    # argmin-Prim: O(n) scan per pop needs dense graphs to amortize.
    # Vectorized speed over loop on G(n, m) with m = 60,000 and
    # n = 2m/degree, three sweeps of three alternating rounds: 0.74-1.08x
    # at average degree 48, 0.71-1.07x at 64, 0.95-1.32x at 96 and
    # 1.07-1.30x at 128, the lowest degree at which vectorized won every
    # round of every sweep.
    "prim": Crossover(min_edges=2048, min_avg_degree=128.0),
    # Round-vectorized Boruvka variants win at any density.  On calibrate()'s
    # size sweep (G(n, m), n = max(16, m/3)), parallel-boruvka and
    # llp-boruvka win already at its smallest point, 16 edges (1.8x and
    # 1.7x, best of 7; 6.9x and 3.0x at 256).  BFS-labelling boruvka loses
    # up to 256 edges (0.5-0.9x) and wins from 512 (1.1x); three calibrate()
    # runs put its crossover at 512, 512 and 2048 edges.
    "boruvka": Crossover(min_edges=512, min_avg_degree=0.0),
    "llp-boruvka": Crossover(min_edges=16, min_avg_degree=0.0),
    "parallel-boruvka": Crossover(min_edges=16, min_avg_degree=0.0),
}

def choose_mode(name: str, n_vertices: int, n_edges: int) -> str:
    """The kernel mode ``mode="auto"`` resolves to for this graph shape.

    Returns ``"loop"`` unless the algorithm has a vectorized mode **and**
    the graph clears the algorithm's :class:`Crossover` thresholds.
    """
    from repro.mst.registry import algorithm_info

    if not algorithm_info(name).has_vectorized:
        return "loop"
    cross = DEFAULT_CROSSOVERS.get(name)
    if cross is None:
        return "loop"
    if n_edges < cross.min_edges:
        return "loop"
    avg_degree = (2.0 * n_edges / n_vertices) if n_vertices else 0.0
    return "vectorized" if avg_degree >= cross.min_avg_degree else "loop"


def _time_mode(name: str, mode: str, g, repeats: int) -> float:
    import time

    from repro.mst.registry import get_algorithm

    fn = get_algorithm(name, mode=mode)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(g)
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(
    algorithms: Iterable[str] | None = None,
    *,
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, Crossover]:
    """Measure this machine's crossovers and return them as a table.

    For each calibratable algorithm, times loop vs vectorized on
    ``gnm`` graphs across a measurement grid and records the smallest
    point where vectorized wins: a degree sweep for ``prim`` (its
    crossover is a density), an edge-count sweep for the Boruvka family
    (their crossover is a size).  An algorithm whose vectorized mode
    never wins on the grid gets an unreachable threshold.  Algorithms
    not measured keep their shipped crossover in the returned table.
    """
    from repro.graphs.generators.random_graphs import gnm_random_graph

    names = list(algorithms) if algorithms is not None else sorted(DEFAULT_CROSSOVERS)
    table = dict(DEFAULT_CROSSOVERS)
    for name in names:
        if name not in DEFAULT_CROSSOVERS:
            continue
        if name == "prim":
            # Degree sweep at fixed edge budget: find the density where
            # the O(n)-per-pop argmin starts beating the Python heap.
            m = 60_000
            crossover_deg = float("inf")
            for deg in (16, 32, 64, 128, 256):
                n = max(16, (2 * m) // deg)
                g = gnm_random_graph(n, m, seed=seed)
                if _time_mode(name, "vectorized", g, repeats) < _time_mode(
                    name, "loop", g, repeats
                ):
                    crossover_deg = float(deg)
                    break
            table[name] = Crossover(min_edges=2048, min_avg_degree=crossover_deg)
        else:
            # Size sweep at a sparse degree: find where round
            # vectorization overtakes the interpreter.
            min_edges = 1 << 62  # unreachable unless a win is measured
            for m in (16, 32, 64, 128, 256, 512, 2048, 8192, 32768):
                n = max(16, m // 3)
                g = gnm_random_graph(n, m, seed=seed)
                if _time_mode(name, "vectorized", g, repeats) < _time_mode(
                    name, "loop", g, repeats
                ):
                    min_edges = m
                    break
            table[name] = Crossover(min_edges=min_edges, min_avg_degree=0.0)
    return table