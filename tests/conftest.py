"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.builder import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    cycle_graph,
    gnm_random_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    rmat_graph,
    road_network,
    star_graph,
)

# ----------------------------------------------------------------------
# The paper's running example (Fig 1): 5 vertices a..e, MST = {2, 3, 4, 7}.
# Vertices: a=0, b=1, c=2, d=3, e=4.
# ----------------------------------------------------------------------
FIG1_EDGES = [
    (0, 2, 4.0),   # a-c
    (1, 2, 3.0),   # b-c
    (0, 1, 5.0),   # a-b  (not in MST)
    (1, 3, 7.0),   # b-d
    (2, 3, 9.0),   # c-d  (not in MST)
    (3, 4, 2.0),   # d-e
    (2, 4, 11.0),  # c-e  (not in MST)
]
FIG1_MST_WEIGHTS = {2.0, 3.0, 4.0, 7.0}


@pytest.fixture
def fig1_graph() -> CSRGraph:
    """The worked example graph of the paper's Fig 1."""
    return from_edges(FIG1_EDGES)


@pytest.fixture(
    params=[
        "fig1",
        "path",
        "cycle",
        "star",
        "grid",
        "road",
        "rmat",
        "gnm",
        "connected",
    ]
)
def any_graph(request) -> CSRGraph:
    """A spread of graph morphologies for algorithm-agnostic tests."""
    return {
        "fig1": lambda: from_edges(FIG1_EDGES),
        "path": lambda: path_graph(17, seed=1),
        "cycle": lambda: cycle_graph(12, seed=2),
        "star": lambda: star_graph(15, seed=3),
        "grid": lambda: grid_graph(6, 7, seed=4),
        "road": lambda: road_network(9, 11, seed=5),
        "rmat": lambda: rmat_graph(7, 6, seed=6),
        "gnm": lambda: gnm_random_graph(40, 90, seed=7),
        "connected": lambda: random_connected_graph(35, 25, seed=8),
    }[request.param]()


def mst_weight_oracle(g: CSRGraph) -> float:
    """Reference MSF weight via networkx."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
        G.add_edge(int(u), int(v), weight=float(w))
    forest = nx.minimum_spanning_edges(G, data=True)
    return sum(d["weight"] for _, _, d in forest)


def strict_json_records(text: str) -> list:
    """Parse JSONL output under RFC 8259: bare Infinity/NaN raise."""
    import json

    def reject(constant: str):
        raise ValueError(f"{constant} is not JSON")

    return [json.loads(line, parse_constant=reject)
            for line in text.splitlines() if line]


# Graphs whose answers are infinite: two components (a bottleneck or a
# distance across them is +inf) and two -1e308 edges (their sum is -inf).
TWO_COMPONENTS_GR = "p sp 4 2\na 1 2 1.0\na 3 4 2.0\n"
NEGATIVE_OVERFLOW_TSV = "0\t1\t-1e308\n1\t2\t-1e308\n"


def mst_edge_oracle(g: CSRGraph) -> frozenset[int]:
    """Reference MSF edge-id set via Kruskal (unique with distinct ranks)."""
    from repro.mst.kruskal import kruskal

    return kruskal(g).edge_set()
