"""Problem artifacts: what only problems need from the one store.

Parameter separation, the registry schema check, and isolated vertices;
the store behaviours both kinds share are tested over both kinds in
``tests/service/test_artifacts.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.graphs.generators import gnm_random_graph
from repro.service.artifacts import (
    ArtifactStore,
    ProblemArtifact,
    load_npz_artifact,
    problem_fingerprint,
    save_npz_artifact,
    solve_artifact,
)


@pytest.fixture()
def g():
    return gnm_random_graph(40, 100, seed=6)


def test_fingerprint_separates_problem_mode_and_params(g):
    base = problem_fingerprint(g, "sssp", "loop", {"source": 0})
    assert problem_fingerprint(g, "sssp", "loop", {"source": 0}) == base
    assert problem_fingerprint(g, "cc", "loop", {"source": 0}) != base
    assert problem_fingerprint(g, "sssp", "vectorized", {"source": 0}) != base
    assert problem_fingerprint(g, "sssp", "loop", {"source": 1}) != base


def test_fingerprint_tracks_graph_content(g):
    other = gnm_random_graph(40, 100, seed=7)
    assert problem_fingerprint(g, "cc") != problem_fingerprint(other, "cc")


def test_round_trip_preserves_everything(g, tmp_path):
    artifact = solve_artifact(g, "sssp", "vectorized", params={"source": 2})
    path = save_npz_artifact(artifact, tmp_path / "a.npz")
    loaded = load_npz_artifact(path)
    assert loaded.fingerprint == artifact.fingerprint
    assert loaded.problem == "sssp" and loaded.mode == "vectorized"
    assert loaded.params == {"source": 2}
    assert loaded.scalars == {k: v for k, v in artifact.scalars.items()}
    for name, arr in artifact.arrays.items():
        assert loaded.arrays[name].dtype == arr.dtype
        assert np.array_equal(loaded.arrays[name], arr)


def test_store_params_are_separate_artifacts(g, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    a0, _ = store.get_or_compute(g, "sssp", "loop", params={"source": 0})
    a1, _ = store.get_or_compute(g, "sssp", "loop", params={"source": 1})
    assert a0.fingerprint != a1.fingerprint
    assert not np.array_equal(a0.arrays["dist"], a1.arrays["dist"])


def test_load_rejects_wrong_schema(g, tmp_path):
    # An artifact claiming to be SSSP but carrying CC's arrays must not load.
    artifact = solve_artifact(g, "cc", "loop")
    bad = ProblemArtifact(
        fingerprint=artifact.fingerprint,
        problem="sssp",
        mode=None,
        n_vertices=artifact.n_vertices,
        arrays=artifact.arrays,
        scalars={},
        params={},
    )
    path = save_npz_artifact(bad, tmp_path / "bad.npz")
    with pytest.raises(ServiceError, match="array schema"):
        load_npz_artifact(path)


def test_isolated_vertices_round_trip(tmp_path):
    g = CSRGraph.from_edgelist(EdgeList.from_arrays(
        3, np.empty(0, np.int64), np.empty(0, np.int64),
        np.empty(0, np.float64), dedup=False,
    ))
    store = ArtifactStore(tmp_path / "store")
    artifact, _ = store.get_or_compute(g, "cc")
    assert np.array_equal(artifact.arrays["labels"], np.arange(3))
