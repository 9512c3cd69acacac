"""Multi-problem LLP solver surface.

The paper's LLP engine is problem-agnostic; this package makes the
non-MST problems first-class tenants of every production layer:

* :mod:`repro.solve.registry` — the problem registry (name, modes,
  oracle, artifact schema), the generalisation of ``mst/registry``;
* :mod:`repro.solve.sssp` / :mod:`repro.solve.cc` — the first two
  registered problems (Bellman-Ford SSSP, hook-and-jump components),
  each with the MST-style loop/vectorized/auto mode split and
  byte-identical results across modes;
* :mod:`repro.solve.service` — the compute-once/serve-many query
  service on the MST service's lifecycle and its one artifact store
  (:mod:`repro.service.artifacts`), async-servable through the shared
  coalescing front-end.

Differential coverage lives in :mod:`repro.checking.problems`; CLI entry
points are ``repro solve`` and ``repro query --problem``/``serve
--problem``.
"""

from repro.solve.base import ProblemResult
from repro.solve.cc import CCResult, cc_oracle, solve_cc
from repro.solve.registry import (
    ProblemInfo,
    available_problems,
    get_oracle,
    get_problem,
    list_problem_info,
    problem_info,
)
from repro.solve.service import (
    PROBLEM_QUERY_KINDS,
    ProblemQueryEngine,
    ProblemService,
)
from repro.solve.sssp import SSSPResult, canonical_parents, solve_sssp, sssp_oracle

__all__ = [
    "ProblemResult",
    "ProblemInfo",
    "available_problems",
    "problem_info",
    "list_problem_info",
    "get_problem",
    "get_oracle",
    "SSSPResult",
    "solve_sssp",
    "sssp_oracle",
    "canonical_parents",
    "CCResult",
    "solve_cc",
    "cc_oracle",
    "ProblemQueryEngine",
    "ProblemService",
    "PROBLEM_QUERY_KINDS",
]
