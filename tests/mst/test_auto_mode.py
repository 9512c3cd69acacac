"""mode="auto" cost-model dispatch: correctness and safety.

Two properties pin the adaptive selector down:

* **universality** — ``get_algorithm(name, mode="auto")`` works for
  *every* registered algorithm (loop-only ones resolve to their only
  mode) and returns the exact Kruskal-oracle MSF on every adversarial
  graph family;
* **safety** — :func:`repro.mst.autotune.choose_mode` returns only a
  mode the registry lists for the algorithm, on any graph shape.
"""

from __future__ import annotations

import pytest

from repro.checking.families import family_names, generate_case
from repro.mst.autotune import DEFAULT_CROSSOVERS, choose_mode
from repro.mst.kruskal import kruskal
from repro.mst.registry import (
    PARALLEL_ALGORITHMS,
    algorithm_info,
    get_algorithm,
    list_algorithm_info,
)
from repro.runtime.simulated import SimulatedBackend

# A spread of (n_vertices, n_edges) shapes from degenerate to dense.
SHAPES = [
    (0, 0), (1, 0), (2, 1), (10, 9), (100, 99), (100, 5000),
    (1_000, 2_000), (1_000, 100_000), (33_000, 100_000),
    (1_000_000, 3_000_000), (10_000, 10_000_000),
]


def _run(name: str, mode: str | None, g):
    algo = get_algorithm(name, mode=mode)
    backend = SimulatedBackend(4) if name in PARALLEL_ALGORITHMS else None
    return algo(g, backend=backend) if backend else algo(g)


def test_auto_is_accepted_by_every_algorithm(fig1_graph):
    oracle = kruskal(fig1_graph).edge_set()
    for info in list_algorithm_info():
        if info.name == "sharded":
            continue  # exercised by tests/shard (needs shard kwargs)
        assert _run(info.name, "auto", fig1_graph).edge_set() == oracle, info.name


@pytest.mark.parametrize("family", family_names())
def test_auto_matches_oracle_on_every_family(family):
    """Auto-mode solves == Kruskal oracle across the adversarial families."""
    for seed in (0, 1):
        g = generate_case(family, seed=seed, size=12).graph
        oracle = kruskal(g).edge_set()
        for name in ("prim", "boruvka", "llp-prim", "llp-boruvka"):
            res = _run(name, "auto", g)
            assert res.edge_set() == oracle, (family, seed, name)


def test_choose_mode_picks_only_registered_modes():
    for info in list_algorithm_info():
        for n, m in SHAPES:
            mode = choose_mode(info.name, n, m)
            assert mode in info.modes, (info.name, n, m)


def test_llp_prim_auto_resolves_to_loop_even_when_dense():
    """LLP-Prim is registered with loop mode alone: every shape stays loop."""
    assert algorithm_info("llp-prim").modes == ("loop",)
    for n, m in SHAPES:
        assert choose_mode("llp-prim", n, m) == "loop", (n, m)


def test_choose_mode_thresholds_for_prim():
    cross = DEFAULT_CROSSOVERS["prim"]
    # Too few edges -> loop, regardless of density.
    assert choose_mode("prim", 4, cross.min_edges - 1) == "loop"
    # Dense and big enough -> vectorized (avg degree 2m/n >= crossover).
    n = 1_000
    m = int(n * cross.min_avg_degree)  # avg degree 2x the crossover
    assert choose_mode("prim", n, m) == "vectorized"
    # Big but sparse -> loop.
    assert choose_mode("prim", 100_000, 150_000) == "loop"


def test_prim_crossover_sits_at_measured_degree():
    """In the degree sweeps behind DEFAULT_CROSSOVERS, vectorized Prim did
    not beat loop in every round at average degree 64 or 96; it did at 128."""
    n = 1_000
    assert choose_mode("prim", n, 32_000) == "loop"  # degree 64
    assert choose_mode("prim", n, 48_000) == "loop"  # degree 96
    assert choose_mode("prim", n, 64_000) == "vectorized"  # degree 128


@pytest.mark.parametrize("name,n,m,mode", [
    ("parallel-boruvka", 16, 16, "vectorized"),
    ("llp-boruvka", 16, 16, "vectorized"),
    ("boruvka", 85, 256, "loop"),
])
def test_boruvka_family_crossover_sits_at_measured_size(name, n, m, mode):
    """calibrate()'s size sweep from 16 edges: the hook-and-jump variants
    win vectorized at its smallest point; boruvka loses up to 256 edges."""
    assert choose_mode(name, n, m) == mode


def test_choose_mode_loop_only_algorithms():
    assert choose_mode("kruskal", 1_000_000, 10_000_000) == "loop"
    assert choose_mode("ghs", 1_000, 100_000) == "loop"
    assert choose_mode("llp-prim", 1_000, 100_000) == "loop"
