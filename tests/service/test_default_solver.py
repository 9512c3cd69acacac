"""The served default solver: one constant, and Kruskal's forest bit for bit.

Every serving entry point defaults to
:data:`repro.mst.registry.DEFAULT_ALGORITHM`.  These tests read each
default where it is declared (signatures, the manifest fallback, the
soak's service, the CLI parser) and hold the default solver's artifact
to Kruskal's, field for field, on every adversarial family, on all-tied
graphs and on graphs with parallel edges.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.checking.families import family_names, generate_case
from repro.cli import build_parser
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.graphs.generators import gnm_random_graph
from repro.load.soak import run_soak
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.platform import GraphPlatform, build_platform, save_manifest
from repro.service.artifacts import (
    ArtifactStore,
    artifact_fingerprint,
    load_npz_artifact,
    solve_artifact,
)
from repro.service.core import MSTService
from repro.shard import sharded_mst, solve_shard_local

FOREST_FIELDS = (
    "msf_edge_ids", "msf_u", "msf_v", "msf_w", "total_weight", "n_components",
)


def _assert_kruskals_forest(g: CSRGraph) -> None:
    served = MSTService().load_graph(g)
    oracle = solve_artifact(g, "mst", "auto", algorithm="kruskal")
    assert served.algorithm == DEFAULT_ALGORITHM
    for name in FOREST_FIELDS:
        got, want = getattr(served, name), getattr(oracle, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert type(got) is type(want) and got == want, (name, got, want)


def _with_weights(g: CSRGraph, w: np.ndarray, *, dedup: bool = True) -> CSRGraph:
    return CSRGraph.from_edgelist(EdgeList.from_arrays(
        g.n_vertices, g.edge_u, g.edge_v, w, dedup=dedup
    ))


@pytest.mark.parametrize("family", family_names())
@pytest.mark.parametrize("seed", range(3))
def test_default_solver_artifact_is_kruskals(family, seed):
    _assert_kruskals_forest(generate_case(family, seed=seed, size=24).graph)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("weight", [1.0, 7], ids=["float", "int64"])
def test_default_solver_artifact_is_kruskals_all_tied(seed, weight):
    g = gnm_random_graph(60, 200, seed=seed)
    _assert_kruskals_forest(_with_weights(g, np.full(g.n_edges, weight)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_default_solver_artifact_is_kruskals_with_parallel_edges(seed, dtype):
    """Every edge twice, once at its weight and once tied or heavier."""
    rng = np.random.default_rng(seed)
    g = gnm_random_graph(50, 150, seed=seed)
    w = rng.integers(0, 5, size=g.n_edges).astype(dtype)
    twin = w + rng.integers(0, 2, size=g.n_edges).astype(dtype)
    multi = CSRGraph.from_edgelist(EdgeList.from_arrays(
        g.n_vertices,
        np.concatenate([g.edge_u, g.edge_v]),
        np.concatenate([g.edge_v, g.edge_u]),
        np.concatenate([w, twin]),
        dedup=False,
    ))
    assert multi.n_edges == 2 * g.n_edges
    _assert_kruskals_forest(multi)


@pytest.mark.parametrize("fn", [
    MSTService.__init__, ArtifactStore.get_or_compute, solve_artifact,
    artifact_fingerprint, GraphPlatform.add_graph, sharded_mst,
    solve_shard_local,
], ids=lambda fn: fn.__qualname__)
def test_serving_signatures_default_to_the_constant(fn):
    default = inspect.signature(fn).parameters["algorithm"].default
    assert default == DEFAULT_ALGORITHM


@pytest.mark.parametrize("argv", [
    ["query"],
    ["serve"],
    ["tenant", "add-graph", "acme", "mesh", "--root", "r", "--gnm", "10:20"],
    ["load", "run"],
    ["load", "record", "--out", "events.jsonl"],
    ["load", "replay", "--events", "events.jsonl"],
], ids=lambda argv: " ".join(argv[:2]))
def test_serving_cli_verbs_default_to_the_constant(argv):
    assert build_parser().parse_args(argv).algo == DEFAULT_ALGORITHM


def test_paper_cli_verbs_keep_llp_prim():
    parser = build_parser()
    assert parser.parse_args(["mst"]).algo == "llp-prim"
    assert parser.parse_args(["profile"]).algo == "llp-prim"


def test_manifest_without_algorithm_registers_the_constant(tmp_path):
    save_manifest(tmp_path, {"version": 1, "tenants": {"acme": {"graphs": {
        "mesh": {"source": {"kind": "gnm", "n": 30, "m": 60, "seed": 1}},
    }}}})
    platform = build_platform(tmp_path)
    entry = platform.tenant("acme").graphs["mesh"]
    assert entry.algorithm == DEFAULT_ALGORITHM
    assert entry.service.artifact.algorithm == DEFAULT_ALGORITHM


def test_soak_serves_the_constant(tmp_path):
    run_soak(
        scenario="soak", duration_s=0.4, rate_qps=100, seed=1,
        n_vertices=60, n_edges=240, faults=(), time_scale=0.5,
        store_dir=tmp_path,
    )
    solved = {load_npz_artifact(p).algorithm for p in tmp_path.glob("*.npz")}
    assert solved == {DEFAULT_ALGORITHM}
