"""GraphPlatform contracts: quotas, LRU residency, admission, mutations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QuotaExceededError, ServiceError
from repro.graphs.builder import from_edges
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.mst.kruskal import kruskal
from repro.platform import DEFAULT_QUOTA, GraphPlatform, TenantQuota


class FakeClock:
    def __init__(self, t0: float = 0.0) -> None:
        self.t = t0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def g():
    return gnm_random_graph(60, 180, seed=3)


class TestTenants:
    def test_add_lookup_remove(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        assert platform.tenants() == ["acme"]
        assert platform.tenant("acme").quota == DEFAULT_QUOTA
        platform.remove_tenant("acme")
        assert platform.tenants() == []

    def test_duplicate_and_unknown_raise(self):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        with pytest.raises(ServiceError, match="already exists"):
            platform.add_tenant("acme")
        with pytest.raises(ServiceError, match="unknown tenant"):
            platform.tenant("ghost")
        with pytest.raises(ServiceError, match="unknown tenant"):
            platform.remove_tenant("ghost")

    def test_invalid_names_rejected(self, g):
        platform = GraphPlatform()
        with pytest.raises(ServiceError, match="invalid tenant"):
            platform.add_tenant("a/b")
        platform.add_tenant("acme")
        with pytest.raises(ServiceError, match="invalid graph"):
            platform.add_graph("acme", "a/b", g)


class TestGraphQuota:
    def test_exactly_at_max_graphs_boundary(self, g):
        """The Nth registration fits; the N+1st is a structured 429."""
        platform = GraphPlatform()
        platform.add_tenant("acme", TenantQuota(max_graphs=2))
        platform.add_graph("acme", "g1", g)
        platform.add_graph("acme", "g2", g)  # exactly at the limit: OK
        with pytest.raises(QuotaExceededError) as info:
            platform.add_graph("acme", "g3", g)
        record = info.value.to_record()
        assert record["code"] == 429 and record["reason"] == "graphs"
        # Removing one frees the slot again.
        platform.remove_graph("acme", "g1")
        platform.add_graph("acme", "g3", g)

    def test_duplicate_and_unknown_graphs_raise(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        platform.add_graph("acme", "g1", g)
        with pytest.raises(ServiceError, match="already exists"):
            platform.add_graph("acme", "g1", g)
        with pytest.raises(ServiceError, match="unknown graph"):
            platform.get_service("acme", "ghost")
        with pytest.raises(ServiceError, match="unknown graph"):
            platform.remove_graph("acme", "ghost")


class TestResidency:
    def test_lru_engine_eviction_past_budget(self, g, tmp_path):
        platform = GraphPlatform(tmp_path)
        platform.add_tenant("acme", TenantQuota(resident_budget=1))
        platform.add_graph("acme", "g1", g)
        platform.add_graph("acme", "g2", g)
        # Budget 1: registering g2 evicted g1's engine, not its data.
        assert not platform.entry("acme", "g1").resident
        assert platform.entry("acme", "g2").resident
        assert platform.tenant("acme").evictions == 1

    def test_evicted_entry_rematerializes_warm(self, g, tmp_path):
        platform = GraphPlatform(tmp_path)
        platform.add_tenant("acme", TenantQuota(resident_budget=1))
        platform.add_graph("acme", "g1", g)
        weight = platform.get_service("acme", "g1").total_weight()
        platform.add_graph("acme", "g2", g)
        assert not platform.entry("acme", "g1").resident
        # The next query reloads g1 from the content-addressed store
        # and answers identically; no data was lost to eviction.
        svc = platform.get_service("acme", "g1")
        assert svc.total_weight() == weight
        assert platform.entry("acme", "g1").resident

    def test_get_service_touches_lru_order(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme", TenantQuota(resident_budget=2))
        for name in ("g1", "g2", "g3"):
            platform.add_graph("acme", name, g)
        # g1 was LRU-evicted by g3's registration; touching g2 then
        # registering g4 must evict g3 (now least recent), not g2.
        platform.get_service("acme", "g2")
        platform.add_graph("acme", "g4", g)
        assert platform.entry("acme", "g2").resident
        assert not platform.entry("acme", "g3").resident


class TestAdmission:
    def test_rate_quota_rejects_with_retry_after(self, g):
        clock = FakeClock()
        platform = GraphPlatform(clock=clock)
        platform.add_tenant("acme", TenantQuota(rate_qps=1.0, burst=1.0))
        platform.admit("acme")()
        with pytest.raises(QuotaExceededError) as info:
            platform.admit("acme")
        record = info.value.to_record()
        assert record["reason"] == "rate"
        assert 0 < record["retry_after_s"] <= 1.0
        clock.advance(1.0)  # one token accrues; admitted again
        platform.admit("acme")()
        assert platform.tenant("acme").rejected_rate == 1

    def test_queue_depth_bounds_inflight(self):
        platform = GraphPlatform()
        platform.add_tenant("acme", TenantQuota(max_queue_depth=2))
        releases = [platform.admit("acme") for _ in range(2)]
        with pytest.raises(QuotaExceededError) as info:
            platform.admit("acme")
        assert info.value.to_record()["reason"] == "queue"
        releases[0]()
        release = platform.admit("acme")  # freed slot admits again
        release()
        releases[1]()
        assert platform.tenant("acme").inflight == 0

    def test_release_is_idempotent(self):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        release = platform.admit("acme")
        release()
        release()  # double release must not underflow the window
        assert platform.tenant("acme").inflight == 0

    def test_admission_context_manager_releases_on_error(self):
        platform = GraphPlatform()
        platform.add_tenant("acme", TenantQuota(max_queue_depth=1))
        with pytest.raises(RuntimeError):
            with platform.admission("acme"):
                assert platform.tenant("acme").inflight == 1
                raise RuntimeError("query failed")
        assert platform.tenant("acme").inflight == 0


class TestMutateEndToEnd:
    def test_mutation_is_served_at_once(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        platform.add_graph("acme", "g1", g)
        eid = platform.mutate("acme", "g1", "insert", 0, 59, 0.001)
        assert isinstance(eid, int)
        mutated = platform.entry("acme", "g1").graph
        assert mutated.n_edges == g.n_edges + 1
        assert 0.001 in mutated.edge_w[
            ((mutated.edge_u == 0) & (mutated.edge_v == 59))
            | ((mutated.edge_u == 59) & (mutated.edge_v == 0))
        ]
        # The repair sums the forest in weight order, Kruskal in edge-id
        # order, so the totals may differ in their last bits only.
        assert platform.get_service("acme", "g1").total_weight() == (
            pytest.approx(kruskal(mutated).total_weight, rel=1e-12))

    def test_mutated_entry_reloads_warm_after_eviction(self, g, tmp_path):
        platform = GraphPlatform(tmp_path)
        platform.add_tenant("acme", TenantQuota(resident_budget=1))
        platform.add_graph("acme", "g1", g)
        platform.mutate("acme", "g1", "insert", 0, 59, 0.001)
        svc = platform.get_service("acme", "g1")
        weight = svc.total_weight()
        # Budget 1: registering g2 evicts g1, the least recently used.
        platform.add_graph("acme", "g2", gnm_random_graph(40, 90, seed=5))
        assert not platform.entry("acme", "g1").resident
        before = svc.store.stats()
        assert platform.get_service("acme", "g1").total_weight() == weight
        after = svc.store.stats()
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert svc.bottleneck(0, 59) == 0.001
        assert platform.entry("acme", "g1").graph.n_edges == g.n_edges + 1

    def test_an_eviction_keeps_a_mutated_entry_s_parallel_edge(self, tmp_path):
        a = from_edges([(0, 1, 3.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 9.0)], n_vertices=4)
        weights = []
        for evict in (False, True):
            platform = GraphPlatform(tmp_path / str(evict))
            platform.add_tenant("acme", TenantQuota(resident_budget=1))
            platform.add_graph("acme", "a", a)
            platform.add_graph("acme", "b", gnm_random_graph(40, 90, seed=5))
            platform.mutate("acme", "a", "insert", 0, 1, 5.0)  # beside (0, 1, 3.0)
            if evict:
                platform.get_service("acme", "b").total_weight()
                assert not platform.entry("acme", "a").resident
                platform.get_service("acme", "a").total_weight()  # the reload
            platform.mutate("acme", "a", "delete", 0, 1)  # the key-least copy
            weights.append(platform.get_service("acme", "a").total_weight())
        assert weights == [7.0, 7.0]

    def test_sharded_entry_keeps_provenance_after_mutation(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        platform.add_graph("acme", "g1", g, algorithm="sharded")
        platform.add_graph("acme", "twin", g)
        for name in ("g1", "twin"):
            platform.mutate("acme", name, "insert", 0, 59, 0.001)
        artifact = platform.get_service("acme", "g1").artifact
        assert artifact.algorithm == "sharded"
        twin = platform.get_service("acme", "twin").artifact
        for name in ("msf_edge_ids", "msf_u", "msf_v", "msf_w"):
            got, want = getattr(artifact, name), getattr(twin, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert artifact.total_weight == twin.total_weight
        assert artifact.n_components == twin.n_components

    def test_mutation_rejected_for_problem_entries(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        platform.add_graph("acme", "s", g, problem="sssp", source=0)
        with pytest.raises(ServiceError, match="mutations need an MST"):
            platform.mutate("acme", "s", "insert", 0, 1, 1.0)


class TestIntrospection:
    def test_stats_shape(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme", TenantQuota(rate_qps=5.0))
        platform.add_graph("acme", "g1", g)
        stats = platform.stats()
        tenant = stats["tenants"]["acme"]
        assert tenant["quota"]["rate_qps"] == 5.0
        row = tenant["graphs"]["g1"]
        assert row["problem"] == "mst" and row["resident"]
        assert platform.stats("acme") == tenant

    def test_metrics_providers_cover_tenants(self, g):
        platform = GraphPlatform()
        platform.add_tenant("acme")
        platform.add_graph("acme", "g1", g)
        providers = platform.metrics_providers()
        assert "platform.tenant.acme" in providers
        snapshot = providers["platform.tenant.acme"]()
        assert isinstance(snapshot, dict)
