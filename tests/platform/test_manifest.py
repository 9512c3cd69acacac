"""Platform manifest: persistence round-trips and source-spec materialisation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.platform import (
    GraphPlatform,
    TenantQuota,
    build_platform,
    graph_from_spec,
    load_manifest,
    manifest_path,
    platform_to_manifest,
    save_manifest,
)


class TestLoadSave:
    def test_missing_manifest_defaults_empty(self, tmp_path):
        manifest = load_manifest(tmp_path)
        assert manifest == {"version": 1, "tenants": {}}

    def test_save_then_load_round_trips(self, tmp_path):
        manifest = {
            "version": 1,
            "tenants": {"acme": {"quota": {"rate_qps": 3.0}, "graphs": {}}},
        }
        path = save_manifest(tmp_path, manifest)
        assert path == manifest_path(tmp_path)
        assert load_manifest(tmp_path) == manifest

    def test_bad_json_raises_service_error(self, tmp_path):
        manifest_path(tmp_path).write_text("{not json")
        with pytest.raises(ServiceError, match="unreadable"):
            load_manifest(tmp_path)

    def test_wrong_version_raises_service_error(self, tmp_path):
        save_manifest(tmp_path, {"version": 99, "tenants": {}})
        with pytest.raises(ServiceError, match="unsupported.*version"):
            load_manifest(tmp_path)

    def test_missing_tenants_map_raises(self, tmp_path):
        manifest_path(tmp_path).parent.mkdir(parents=True, exist_ok=True)
        manifest_path(tmp_path).write_text(json.dumps({"version": 1}))
        with pytest.raises(ServiceError, match="no tenants"):
            load_manifest(tmp_path)


class TestGraphFromSpec:
    def test_gnm_spec_is_deterministic_in_seed(self):
        spec = {"kind": "gnm", "n": 80, "m": 240, "seed": 5}
        a, b = graph_from_spec(spec), graph_from_spec(spec)
        assert a.n_vertices == 80 and a.n_edges == 240
        assert np.array_equal(a.edge_w, b.edge_w)

    def test_grid_spec(self):
        g = graph_from_spec({"kind": "grid", "rows": 4, "cols": 5, "seed": 1})
        assert g.n_vertices == 20

    def test_path_spec_dispatches_on_suffix(self, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("0\t1\t2.5\n1\t2\t1.5\n")
        g = graph_from_spec({"path": str(path)})
        assert g.n_edges == 2

    def test_unknown_specs_raise(self, tmp_path):
        with pytest.raises(ServiceError, match="unknown graph source"):
            graph_from_spec({"kind": "martian"})
        with pytest.raises(ServiceError, match="unsupported graph format"):
            graph_from_spec({"path": str(tmp_path / "g.xlsx")})


class TestBuildPlatform:
    def _manifest(self):
        return {
            "version": 1,
            "tenants": {
                "acme": {
                    "quota": {"rate_qps": 50.0, "max_graphs": 4},
                    "graphs": {
                        "mesh": {
                            "source": {"kind": "gnm", "n": 60, "m": 180,
                                       "seed": 3},
                            "problem": "mst", "algorithm": "kruskal",
                            "mode": "auto", "params": {},
                        },
                        "paths": {
                            "source": {"kind": "grid", "rows": 5, "cols": 5,
                                       "seed": 1},
                            "problem": "sssp", "params": {"source": 0},
                        },
                    },
                },
            },
        }

    def test_build_registers_everything(self, tmp_path):
        save_manifest(tmp_path, self._manifest())
        platform = build_platform(tmp_path)
        assert platform.tenants() == ["acme"]
        assert platform.tenant("acme").quota.rate_qps == 50.0
        assert platform.entry("acme", "mesh").problem == "mst"
        assert platform.entry("acme", "paths").problem == "sssp"
        svc = platform.get_service("acme", "paths")
        assert float(svc.dist(0)) == 0.0

    def test_restart_reloads_warm_from_store(self, tmp_path):
        save_manifest(tmp_path, self._manifest())
        platform = build_platform(tmp_path)
        weight = platform.get_service("acme", "mesh").total_weight()
        assert platform.tenant("acme").metrics.artifact_misses > 0
        # Second boot: same manifest, same fingerprints, warm artifacts.
        platform = build_platform(tmp_path)
        assert platform.get_service("acme", "mesh").total_weight() == weight
        assert platform.tenant("acme").metrics.artifact_hits > 0

    def test_record_with_shards_boots_like_its_twin(self, tmp_path):
        """A graph record written while manifests still carried ``shards``."""
        manifest = self._manifest()
        graphs = manifest["tenants"]["acme"]["graphs"]
        graphs["mesh-x2"] = dict(graphs["mesh"], shards=2)
        save_manifest(tmp_path, manifest)
        platform = build_platform(tmp_path)
        old = platform.get_service("acme", "mesh-x2")
        twin = platform.get_service("acme", "mesh")
        assert old.artifact.algorithm == "kruskal"
        assert old.total_weight() == twin.total_weight()
        us, vs = [0, 3, 17, 59], [59, 40, 2, 1]
        assert np.array_equal(old.bottleneck(us, vs), twin.bottleneck(us, vs))

    def test_build_failure_closes_the_platform(self, tmp_path):
        manifest = self._manifest()
        manifest["tenants"]["acme"]["graphs"]["bad"] = {
            "source": {"kind": "martian"},
        }
        save_manifest(tmp_path, manifest)
        with pytest.raises(ServiceError, match="unknown graph source"):
            build_platform(tmp_path)


class TestPlatformToManifest:
    def test_round_trip_keeps_sourced_graphs(self, tmp_path):
        save_manifest(tmp_path, TestBuildPlatform()._manifest())
        platform = build_platform(tmp_path)
        manifest = platform_to_manifest(platform)
        graphs = manifest["tenants"]["acme"]["graphs"]
        assert set(graphs) == {"mesh", "paths"}
        assert graphs["paths"]["params"] == {"source": 0}
        # Writing it back and rebooting reproduces the same registry.
        save_manifest(tmp_path, manifest)
        platform = build_platform(tmp_path)
        assert set(platform.tenant("acme").graphs) == {"mesh", "paths"}

    def test_sourceless_graphs_are_skipped(self):
        from repro.graphs.generators.random_graphs import gnm_random_graph

        platform = GraphPlatform()
        platform.add_tenant("acme", TenantQuota())
        platform.add_graph("acme", "anon", gnm_random_graph(30, 90, seed=1))
        manifest = platform_to_manifest(platform)
        assert manifest["tenants"]["acme"]["graphs"] == {}
