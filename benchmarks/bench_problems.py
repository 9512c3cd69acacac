"""Benchmarks of the registered solver problems, loop vs vectorized mode.

Every problem in :mod:`repro.solve.registry` (SSSP, connected
components, ...) runs end-to-end in both execution modes on the same
random graph, asserting the modes agree byte-for-byte so a benchmark run
doubles as a correctness smoke.  The service-layer benchmark times the
content-addressed artifact path through the one artifact store: a cold
``get_or_compute`` (solve + serialize) against a warm one (fingerprint
hit, load only).

``tools/bench_problems_report.py`` runs the same comparison at the ISSUE
target size (100k-edge random graph) and writes ``BENCH_problems.json``;
``tools/bench_gate.py`` holds its speedups to the committed reference
and the absolute 5x floor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import gnm_random_graph
from repro.service.artifacts import ArtifactStore
from repro.solve.registry import get_oracle, get_problem, list_problem_info

PROBLEMS = [info.name for info in list_problem_info()]


@pytest.fixture(scope="module")
def problem_graph():
    g = gnm_random_graph(20_000, 60_000, seed=9)
    g.indptr  # prewarm the CSR arrays every mode shares
    return g


@pytest.mark.parametrize("mode", ["loop", "vectorized"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_problem_mode_end_to_end(benchmark, problem_graph, problem, mode):
    benchmark.group = f"problem-{problem}"
    run = get_problem(problem, mode)
    result = benchmark(lambda: run(problem_graph))
    oracle = get_oracle(problem)(problem_graph)
    for name, arr in result.arrays().items():
        assert np.array_equal(arr, oracle.arrays()[name])


@pytest.mark.parametrize("problem", PROBLEMS)
def test_problem_store_warm_vs_cold(benchmark, problem_graph, problem, tmp_path):
    """Warm artifact hits must amortize the solve away entirely."""
    benchmark.group = f"store-{problem}"
    store = ArtifactStore(tmp_path / "store")
    artifact, hit = store.get_or_compute(problem_graph, problem, "vectorized")
    assert not hit

    def warm():
        return store.get_or_compute(problem_graph, problem, "vectorized")

    warmed, hit = benchmark(warm)
    assert hit
    assert warmed.fingerprint == artifact.fingerprint
