"""Name-based algorithm registry (CLI and bench harness plumbing).

Sequential algorithms take ``(graph)``; parallel ones also accept a
``backend`` keyword.  :func:`get_algorithm` returns a uniform
``fn(graph, backend=None) -> MSTResult`` adapter for either kind.

Algorithms that grew a vectorized array-kernel fast path (see
:mod:`repro.kernels`) accept a ``mode`` keyword; the registry records
which ones in :class:`AlgorithmInfo` metadata so the CLI, benchmarks, and
docs can discover the fast paths by name instead of hard-coding them.

:data:`DEFAULT_ALGORITHM` names the solver every serving entry point
(service, artifact store, platform, sharded coordinator, load drivers
and their CLI verbs) runs when the caller names none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.errors import BenchmarkError
from repro.graphs.csr import CSRGraph
from repro.mst.base import MSTResult
from repro.obs.trace import span as _obs_span

__all__ = [
    "DEFAULT_ALGORITHM",
    "AlgorithmInfo",
    "get_algorithm",
    "available_algorithms",
    "algorithm_info",
    "list_algorithm_info",
    "PARALLEL_ALGORITHMS",
]

# The GBBS-style parallel Boruvka: in mode "auto" it runs its vectorized
# hook-and-jump rounds, and like every registered solver it breaks ties
# by CSRGraph.ranks, so it returns Kruskal's edge ids.
DEFAULT_ALGORITHM = "parallel-boruvka"

_SEQUENTIAL: Dict[str, Callable[[CSRGraph], MSTResult]] = {}
_PARALLEL: Dict[str, Callable[..., MSTResult]] = {}

# Kernel modes per algorithm; everything absent from this table is
# loop-only.  Kept next to the registration tables so adding a vectorized
# path is a one-line registry change.  "auto" resolves per graph via the
# repro.mst.autotune cost model (and is accepted by get_algorithm for
# loop-only algorithms too, where it trivially resolves to "loop").
_MODES: Dict[str, tuple[str, ...]] = {
    "prim": ("loop", "vectorized", "auto"),
    "boruvka": ("loop", "vectorized", "auto"),
    "llp-boruvka": ("loop", "vectorized", "auto"),
    "parallel-boruvka": ("loop", "vectorized", "auto"),
}
# "sharded" runs DEFAULT_ALGORITHM on every shard and takes its modes;
# "auto" passes through unresolved and resolves per shard.
_MODES["sharded"] = _MODES[DEFAULT_ALGORITHM]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry metadata for one algorithm name.

    ``modes`` always contains ``"loop"``; it also contains
    ``"vectorized"`` (and ``"auto"``) when the algorithm has an
    array-kernel fast path.
    """

    name: str
    parallel: bool
    modes: tuple[str, ...]

    @property
    def has_vectorized(self) -> bool:
        """Whether a ``mode="vectorized"`` fast path exists."""
        return "vectorized" in self.modes


def _sharded(g: CSRGraph, **kwargs) -> MSTResult:
    """:func:`repro.shard.coordinator.sharded_mst`, imported on first call.

    The shard subsystem (arenas, worker pool, merge tree) loads only in
    processes that ask for ``"sharded"``, not on every registry lookup.
    """
    from repro.shard.coordinator import sharded_mst

    return sharded_mst(g, **kwargs)


def _register() -> None:
    from repro.mst.boruvka import boruvka
    from repro.mst.ghs import ghs
    from repro.mst.kkt import kkt
    from repro.mst.kruskal import kruskal
    from repro.mst.llp_boruvka import llp_boruvka
    from repro.mst.llp_prim import llp_prim
    from repro.mst.llp_prim_parallel import llp_prim_parallel
    from repro.mst.parallel_boruvka import parallel_boruvka
    from repro.mst.prim import prim
    from repro.mst.prim_lazy import prim_lazy

    _SEQUENTIAL.update(
        {
            "prim": prim,
            "prim-lazy": prim_lazy,
            "llp-prim": llp_prim,
            "boruvka": boruvka,
            "kruskal": kruskal,
            "kkt": kkt,
            "ghs": ghs,
            # Partition → per-process local solves → merge tree; registered
            # sequential because the coordinator itself runs in-process (the
            # parallelism lives in its worker processes, not a Backend).
            "sharded": _sharded,
        }
    )
    _PARALLEL.update(
        {
            "llp-prim-parallel": llp_prim_parallel,
            "parallel-boruvka": parallel_boruvka,
            "llp-boruvka": llp_boruvka,
        }
    )


PARALLEL_ALGORITHMS = (
    "llp-prim-parallel",
    "parallel-boruvka",
    "llp-boruvka",
)


def available_algorithms() -> list[str]:
    """Names of every registered algorithm."""
    if not _SEQUENTIAL:
        _register()
    return sorted(_SEQUENTIAL) + sorted(_PARALLEL)


def algorithm_info(name: str) -> AlgorithmInfo:
    """Metadata (parallelism, kernel modes) for a registered name."""
    if not _SEQUENTIAL:
        _register()
    if name not in _SEQUENTIAL and name not in _PARALLEL:
        raise BenchmarkError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        )
    return AlgorithmInfo(
        name=name,
        parallel=name in _PARALLEL,
        modes=_MODES.get(name, ("loop",)),
    )


def list_algorithm_info() -> list[AlgorithmInfo]:
    """Metadata for every registered algorithm, in listing order."""
    return [algorithm_info(name) for name in available_algorithms()]


def _effective_mode(name: str, mode: str | None, g: CSRGraph) -> str | None:
    """Resolve ``"auto"`` to a concrete kernel mode for this graph."""
    if mode != "auto" or name == "sharded":
        return mode
    if name not in _MODES:
        return None  # loop-only: the algorithm takes no mode kwarg
    from repro.mst.autotune import choose_mode

    return choose_mode(name, g.n_vertices, g.n_edges)


def get_algorithm(name: str, mode: str | None = None) -> Callable[..., MSTResult]:
    """Uniform ``fn(graph, backend=None)`` adapter for a registered name.

    ``mode`` selects the kernel mode ("loop" / "vectorized") for
    algorithms that support it; requesting a mode the algorithm does not
    implement raises :class:`~repro.errors.BenchmarkError`.  ``None``
    leaves the algorithm's own default (loop) in effect.  ``"auto"`` is
    accepted for *every* algorithm and resolves per graph through the
    :mod:`repro.mst.autotune` cost model at call time (trivially to loop
    for loop-only algorithms).
    """
    if not _SEQUENTIAL:
        _register()
    info = algorithm_info(name)
    if mode is not None and mode != "auto" and mode not in info.modes:
        raise BenchmarkError(
            f"algorithm {name!r} has no {mode!r} mode; supported: "
            f"{', '.join(info.modes)}"
        )
    # Every registry-dispatched solve runs inside one "solve" span (the
    # anchor the service, shard, and checking layers nest under); the
    # span is also the opt-in cProfile attachment point.
    if name in _SEQUENTIAL:
        seq = _SEQUENTIAL[name]

        def run_sequential(g: CSRGraph, backend=None, **kw) -> MSTResult:
            eff = _effective_mode(name, mode, g)
            mode_kw = {"mode": eff} if eff is not None and name in _MODES else {}
            with _obs_span(
                f"solve:{name}", "mst", profile=True, algorithm=name,
                mode=eff or "default", mode_requested=mode or "default",
                n_vertices=g.n_vertices, n_edges=g.n_edges,
            ) as sp:
                result = seq(g, **mode_kw, **kw)
                sp.set_attr("forest_edges", result.n_edges)
            return result

        run_sequential.__name__ = f"run_{name}"
        return run_sequential
    par = _PARALLEL[name]

    def run_parallel(g: CSRGraph, backend=None, **kw) -> MSTResult:
        eff = _effective_mode(name, mode, g)
        mode_kw = {"mode": eff} if eff is not None and name in _MODES else {}
        with _obs_span(
            f"solve:{name}", "mst", profile=True, algorithm=name,
            mode=eff or "default", mode_requested=mode or "default",
            n_vertices=g.n_vertices, n_edges=g.n_edges,
        ) as sp:
            result = par(g, backend=backend, **mode_kw, **kw)
            sp.set_attr("forest_edges", result.n_edges)
        return result

    run_parallel.__name__ = f"run_{name}"
    return run_parallel
