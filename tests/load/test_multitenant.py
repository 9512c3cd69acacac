"""Multi-tenant load harness: accounting invariant, quota shedding, op_map."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.graphs.generators.grid import grid_graph
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.load.multitenant import TenantLoad, run_multitenant
from repro.load.scenarios import Scenario
from repro.platform import GraphPlatform, TenantQuota


def _scenario(rate_qps=400.0, duration_s=0.4, mix=None, seed=11,
              arrival="uniform"):
    return Scenario(
        name="test-mix", seed=seed, duration_s=duration_s, rate_qps=rate_qps,
        arrival=arrival, mix=mix or {"connected": 0.6, "weight": 0.4},
    )


def _accounting_ok(rec: dict) -> bool:
    return rec["offered"] == (
        rec["completed"] + rec["rejected"] + rec["quota_rejected"]
        + rec["timeouts"] + rec["errors"]
    )


def test_single_tenant_accounting_invariant():
    platform = GraphPlatform()
    platform.add_tenant("solo")
    platform.add_graph("solo", "g", gnm_random_graph(100, 300, seed=2))
    result = run_multitenant(
        platform, [TenantLoad("solo", "g", _scenario())])
    rec = result.tenants["solo"].to_dict()
    assert _accounting_ok(rec)
    assert rec["offered"] > 0
    assert rec["completed"] > 0
    assert rec["quota_rejected"] == 0  # unthrottled tenant sheds nothing
    assert rec["p99_ms"] >= rec["p50_ms"] >= 0


def test_hot_tenant_sheds_cold_tenant_does_not():
    platform = GraphPlatform()
    platform.add_tenant("cold", TenantQuota(rate_qps=0.0))
    platform.add_tenant("hot", TenantQuota(rate_qps=20.0, burst=5.0))
    g = gnm_random_graph(100, 300, seed=2)
    platform.add_graph("cold", "g", g)
    platform.add_graph("hot", "g", g)
    result = run_multitenant(platform, [
        TenantLoad("cold", "g", _scenario(rate_qps=150.0)),
        TenantLoad("hot", "g", _scenario(rate_qps=800.0, seed=12,
                                         arrival="poisson")),
    ])
    cold = result.tenants["cold"].to_dict()
    hot = result.tenants["hot"].to_dict()
    assert _accounting_ok(cold) and _accounting_ok(hot)
    # The hot tenant is mostly shed at admission; the cold one never is.
    assert hot["quota_rejected"] > 0
    assert cold["quota_rejected"] == 0
    assert cold["completed"] > 0
    # Quota rejections are cheap shed, not errors.
    assert hot["errors"] == 0


def test_op_map_drives_problem_tenants():
    """SSSP graphs are loadable: op_map renames MST mix kinds at issue time."""
    platform = GraphPlatform()
    platform.add_tenant("sci")
    platform.add_graph("sci", "paths", grid_graph(8, 8, seed=1),
                       problem="sssp", source=0)
    result = run_multitenant(platform, [
        TenantLoad("sci", "paths",
                   _scenario(mix={"component": 1.0}),
                   op_map={"component": "dist"}),
    ])
    rec = result.tenants["sci"].to_dict()
    assert _accounting_ok(rec)
    assert rec["completed"] > 0
    assert rec["errors"] == 0  # "dist" really is what the engine ran


def test_duplicate_tenant_loads_rejected():
    platform = GraphPlatform()
    platform.add_tenant("solo")
    platform.add_graph("solo", "g", gnm_random_graph(50, 150, seed=2))
    loads = [
        TenantLoad("solo", "g", _scenario()),
        TenantLoad("solo", "g", _scenario(seed=13)),
    ]
    with pytest.raises(ServiceError, match="one TenantLoad per tenant"):
        run_multitenant(platform, loads)


def test_mutation_events_are_dropped_from_the_mix():
    """Mutation ops in a scenario mix are skipped, not sent as queries."""
    platform = GraphPlatform()
    platform.add_tenant("solo")
    platform.add_graph("solo", "g", gnm_random_graph(80, 240, seed=2))
    scenario = Scenario(
        name="with-mutations", seed=11, duration_s=0.3, rate_qps=300.0,
        arrival="uniform",
        mix={"connected": 0.7, "insert": 0.2, "delete": 0.1},
    )
    result = run_multitenant(
        platform, [TenantLoad("solo", "g", scenario)])
    rec = result.tenants["solo"].to_dict()
    assert _accounting_ok(rec)
    assert rec["errors"] == 0
    # Dropped mutations shrink offered below the scenario's nominal count.
    assert rec["completed"] > 0


def test_result_to_dict_shape():
    platform = GraphPlatform()
    platform.add_tenant("solo")
    platform.add_graph("solo", "g", gnm_random_graph(50, 150, seed=2))
    result = run_multitenant(
        platform,
        [TenantLoad("solo", "g", _scenario(duration_s=0.2))])
    rec = result.tenants["solo"].to_dict()
    for key in ("tenant", "graph", "scenario", "offered", "completed",
                "rejected", "quota_rejected", "timeouts", "errors",
                "p50_ms", "p99_ms"):
        assert key in rec, key
    assert rec["tenant"] == "solo" and rec["graph"] == "g"
