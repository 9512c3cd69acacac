"""Sharding on the serving path is one registry algorithm, ``"sharded"``.

A served graph asks for the sharded coordinator by name, like any other
solver, and is served the default solver's forest.  Every shard solves
in the mode the artifact records.  The shard library loads only in a
process that asks for it.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.graphs.generators import gnm_random_graph
from repro.obs.trace import Tracer, use_tracer
from repro.service import MSTService

FOREST_FIELDS = (
    "msf_edge_ids", "msf_u", "msf_v", "msf_w", "total_weight", "n_components",
)

_FRESH_LOAD = """
import sys

from repro.graphs.generators import gnm_random_graph
from repro.service import MSTService

MSTService(None).load_graph(gnm_random_graph(1000, 4000, seed=1))
loaded = [m for m in sys.modules
          if m.split(".")[:2] == ["repro", "shard"] or m == "repro.platform.pool"]
assert not loaded, loaded

from repro.mst.kruskal import kruskal
from repro.mst.registry import algorithm_info, get_algorithm

assert algorithm_info("sharded").name == "sharded"
g = gnm_random_graph(200, 600, seed=2)
got = get_algorithm("sharded")(g).edge_ids
assert list(got) == list(kruskal(g).edge_ids)
"""


def test_default_load_leaves_the_shard_library_unimported():
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_LOAD], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_sharded_service_serves_the_default_forest():
    g = build_dataset("graph500", 10, 0)
    sharded = MSTService(algorithm="sharded").load_graph(g)
    default = MSTService().load_graph(g)
    assert sharded.algorithm == "sharded"
    for name in FOREST_FIELDS:
        got, want = getattr(sharded, name), getattr(default, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert type(got) is type(want) and got == want, (name, got, want)


@pytest.mark.parametrize("mode", ["loop", "vectorized"])
def test_every_shard_solves_in_the_requested_mode(mode):
    """The mode an artifact and its fingerprint record is the mode every shard ran."""
    tracer = Tracer()
    with use_tracer(tracer):
        artifact = MSTService(algorithm="sharded", mode=mode).load_graph(
            gnm_random_graph(300, 2000, seed=1)
        )
    shards = [s for s in tracer.sorted_spans() if s.name == "solve:parallel-boruvka"]
    assert artifact.mode == mode
    assert len(shards) == 4
    assert all(s.attrs["mode"] == artifact.mode for s in shards), [
        s.attrs for s in shards
    ]
