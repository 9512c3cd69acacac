"""Differential oracle: every algorithm × mode × backend against Kruskal.

Kruskal's algorithm is the reference because its correctness argument is
the shortest in the library (sort once, union–find, cut property) and it
shares no kernels with the implementations under test.  Each case's
Kruskal forest is certified once by
:func:`~repro.mst.verify.verify_minimum_cycle_property` before any cell
is compared with it, so two independent oracles must agree.  A result
equal to the certified forest is therefore correct; any other is
classified, most severe first:

``exception``
    The algorithm raised instead of producing a result.
``invalid-forest``
    The claimed edge set is not a spanning forest of the input (cycle,
    out-of-range edge, missed component, or inconsistent bookkeeping).
``not-minimum``
    A valid spanning forest whose sorted weight multiset differs from the
    oracle's.  Because any spanning forest with the oracle's exact weight
    multiset is itself minimum, the multiset check *is* the minimality
    check "up to tie-class" — no edge-identity assumption is needed.
``tie-divergence``
    A minimum forest whose *edge ids* differ from the oracle's.  With the
    unique ``(weight, edge_id)`` ranks assigned at construction the MSF is
    unique, so this never indicates a wrong weight; it indicates an
    implementation that broke ties by a different rule than the documented
    one, violating the library's byte-identical determinism guarantee.

:func:`run_matrix` sweeps generated cases (see
:mod:`repro.checking.families`) and returns a :class:`CheckReport`; the CLI
feeds its mismatches to :mod:`repro.checking.shrink`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.checking.families import GraphCase, iter_cases
from repro.graphs.csr import CSRGraph
from repro.mst.base import MSTResult, result_from_edge_ids
from repro.mst.registry import algorithm_info, available_algorithms, get_algorithm
from repro.mst.verify import verify_minimum_cycle_property, verify_spanning_forest
from repro.obs.trace import span as _obs_span
from repro.runtime.sequential import SequentialBackend
from repro.runtime.simulated import SimulatedBackend
from repro.structures.union_find import UnionFind

__all__ = [
    "Mismatch",
    "CheckReport",
    "BACKENDS",
    "classify_result",
    "check_one",
    "iter_checks",
    "run_matrix",
    "broken_max_forest",
    "BROKEN_ALGORITHM_NAME",
]

# Label -> factory.  A fresh backend per check keeps traces independent;
# "simulated-4" exercises the chunked parallel scheduling paths that the
# sequential backend short-circuits.
BACKENDS: Dict[str, Callable[[], object]] = {
    "sequential": SequentialBackend,
    "simulated-4": lambda: SimulatedBackend(4),
}


@dataclass(frozen=True, eq=False)
class Mismatch:
    """One divergence between an implementation and the Kruskal oracle."""

    case_name: str
    algorithm: str
    mode: str | None
    backend: str
    kind: str  # exception | invalid-forest | not-minimum | tie-divergence
    detail: str
    graph: CSRGraph

    @property
    def label(self) -> str:
        """Compact ``algorithm/mode@backend`` identifier."""
        mode = self.mode or "default"
        return f"{self.algorithm}/{mode}@{self.backend}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}: {self.label} on {self.case_name}: {self.detail}"


@dataclass
class CheckReport:
    """Aggregate outcome of one differential sweep."""

    cases_run: int = 0
    checks_run: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check agreed with the oracle."""
        return not self.mismatches


def _oracle(g: CSRGraph) -> MSTResult:
    """Kruskal's forest of ``g``, certified by the cycle-property verifier."""
    from repro.mst.kruskal import kruskal

    oracle = kruskal(g)
    verify_minimum_cycle_property(g, oracle)
    return oracle


def classify_result(
    g: CSRGraph, result: MSTResult, oracle: MSTResult | None = None
) -> Tuple[str, str] | None:
    """Classify ``result`` against the oracle; ``None`` when it agrees.

    ``oracle`` is ``g``'s certified Kruskal forest (computed when
    omitted).  A result with its edge ids, ``n_components`` and total
    agrees at once; any other gets ``(kind, detail)`` for the most severe
    applicable mismatch kind (see the module docstring for the severity
    order).
    """
    if oracle is None:
        oracle = _oracle(g)
    if (
        result.n_components == oracle.n_components
        and result.total_weight == oracle.total_weight
        and np.array_equal(np.sort(result.edge_ids), oracle.edge_ids)
    ):
        return None
    try:
        verify_spanning_forest(g, result)
    except Exception as exc:
        return "invalid-forest", str(exc)
    w_got = np.sort(np.asarray(g.edge_w[result.edge_ids]))
    w_ref = np.sort(np.asarray(g.edge_w[oracle.edge_ids]))
    # Exact multiset comparison — weights pass through both implementations
    # untouched, so any difference is a wrong edge choice, not roundoff.
    if w_got.size != w_ref.size or not np.array_equal(w_got, w_ref):
        return (
            "not-minimum",
            f"weight multiset differs from oracle "
            f"({result.n_edges} edges, total {result.total_weight!r} "
            f"vs {oracle.total_weight!r})",
        )
    if result.edge_set() != oracle.edge_set():
        extra = sorted(result.edge_set() - oracle.edge_set())[:5]
        missing = sorted(oracle.edge_set() - result.edge_set())[:5]
        return (
            "tie-divergence",
            f"minimum forest but edges differ from oracle: "
            f"extra {extra}, missing {missing}",
        )
    return None


def check_one(
    g: CSRGraph,
    algorithm: str,
    mode: str | None,
    backend_label: str,
    *,
    case_name: str = "<adhoc>",
    oracle: MSTResult | None = None,
    extra_algorithms: Dict[str, Callable] | None = None,
) -> Mismatch | None:
    """Run one (algorithm, mode, backend) cell on one graph.

    ``extra_algorithms`` maps names to ``fn(graph, backend=None)``
    callables checked alongside the registry (the self-test plants its
    deliberately broken implementation this way).
    """
    if extra_algorithms and algorithm in extra_algorithms:
        fn = extra_algorithms[algorithm]
    else:
        fn = get_algorithm(algorithm, mode)
    backend = BACKENDS[backend_label]()
    with _obs_span(
        "check:cell", "checking", case=case_name, algorithm=algorithm,
        mode=mode or "default", backend=backend_label,
    ) as sp:
        try:
            result = fn(g, backend=backend)
        except Exception as exc:
            sp.set_attr("verdict", "exception")
            return Mismatch(
                case_name, algorithm, mode, backend_label,
                "exception", f"{type(exc).__name__}: {exc}", g,
            )
        verdict = classify_result(g, result, oracle)
        if verdict is None:
            sp.set_attr("verdict", "ok")
            return None
        kind, detail = verdict
        sp.set_attr("verdict", kind)
        return Mismatch(case_name, algorithm, mode, backend_label, kind, detail, g)


def iter_checks(
    algorithms: Sequence[str] | None = None,
    *,
    backends: Sequence[str] | None = None,
    extra_algorithms: Dict[str, Callable] | None = None,
) -> List[Tuple[str, str | None, str]]:
    """The (algorithm, mode, backend) cells of the check matrix.

    Sequential algorithms run on the sequential backend only (they ignore
    the backend argument, so sweeping it would re-run identical work);
    parallel algorithms run on every requested backend.
    """
    names = list(algorithms) if algorithms is not None else available_algorithms()
    if extra_algorithms:
        for name in extra_algorithms:
            if name not in names:
                names.append(name)
    labels = list(backends) if backends is not None else list(BACKENDS)
    for label in labels:
        if label not in BACKENDS:
            raise KeyError(
                f"unknown backend label {label!r}; available: {', '.join(BACKENDS)}"
            )
    cells: List[Tuple[str, str | None, str]] = []
    for name in names:
        if extra_algorithms and name in extra_algorithms:
            modes: Tuple[str | None, ...] = (None,)
            parallel = True  # run injected stubs on every backend
        else:
            info = algorithm_info(name)
            modes = info.modes
            parallel = info.parallel
        for mode in modes:
            for label in labels if parallel else labels[:1]:
                cells.append((name, mode, label))
    return cells


def run_matrix(
    cases: Iterable[GraphCase] | None = None,
    *,
    seed: int = 0,
    count: int = 200,
    families: Sequence[str] | None = None,
    max_size: int = 20,
    algorithms: Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
    extra_algorithms: Dict[str, Callable] | None = None,
    max_mismatches: int = 25,
    progress: Callable[[str], None] | None = None,
) -> CheckReport:
    """Differential sweep: every matrix cell on every generated case.

    ``cases`` defaults to the deterministic
    :func:`~repro.checking.families.iter_cases` stream for
    ``(seed, count, families, max_size)``.  The sweep stops early once
    ``max_mismatches`` distinct failures are collected — shrinking needs
    only a handful, and a systematically broken implementation would
    otherwise fail every single case.
    """
    if cases is None:
        cases = iter_cases(
            seed, count, families=list(families) if families else None,
            max_size=max_size,
        )
    cells = iter_checks(
        algorithms, backends=backends, extra_algorithms=extra_algorithms
    )
    report = CheckReport()
    for case in cases:
        report.cases_run += 1
        oracle = _oracle(case.graph)
        for name, mode, label in cells:
            report.checks_run += 1
            mismatch = check_one(
                case.graph, name, mode, label,
                case_name=case.name, oracle=oracle,
                extra_algorithms=extra_algorithms,
            )
            if mismatch is not None:
                report.mismatches.append(mismatch)
                if progress is not None:
                    progress(str(mismatch))
                if len(report.mismatches) >= max_mismatches:
                    return report
        if progress is not None and report.cases_run % 50 == 0:
            progress(
                f"{report.cases_run} cases, {report.checks_run} checks, "
                f"{len(report.mismatches)} mismatches"
            )
    return report


# ----------------------------------------------------------------------
# Self-test stub
# ----------------------------------------------------------------------
BROKEN_ALGORITHM_NAME = "broken-max-forest"


def broken_max_forest(g: CSRGraph, backend=None) -> MSTResult:
    """Deliberately wrong: the MAXIMUM spanning forest (inverted ranks).

    Planted by ``repro check --self-test`` to prove the harness end to
    end: on any graph with >= 2 spanning forests of different weight the
    oracle must flag it ``not-minimum``, and the shrinker must reduce the
    counterexample to a handful of vertices.  It still produces a valid
    spanning forest, so only the differential check — not the structural
    verifier — can catch it.
    """
    order = np.argsort(-g.ranks, kind="stable")
    uf = UnionFind(g.n_vertices)
    chosen = [
        int(e) for e in order if uf.union(int(g.edge_u[e]), int(g.edge_v[e]))
    ]
    return result_from_edge_ids(g, np.asarray(chosen, dtype=np.int64))
