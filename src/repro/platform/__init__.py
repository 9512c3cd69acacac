"""Multi-tenant graph platform: named graphs, quotas, one artifact store.

The serving layers below this package each manage one graph for one
caller.  :mod:`repro.platform` turns them into a platform: a
:class:`GraphPlatform` registry maps ``tenant/graph`` names to
content-addressed artifacts and resident service instances, and
per-tenant :class:`TenantQuota` limits (resident graphs, queue depth,
request rate) reject excess load with structured 429-style errors.
:class:`WorkerPool` is the process pool the sharded coordinator runs
its shard workers in.  :class:`MultiTenantServer` is the asyncio front door
(``repro serve --multi``); the manifest helpers make the whole
configuration restartable from ``platform.json``.
"""

from repro.platform.manifest import (
    build_platform,
    graph_from_spec,
    load_manifest,
    manifest_path,
    platform_to_manifest,
    save_manifest,
)
from repro.platform.pool import WorkerPool, pool_worker_main
from repro.platform.quota import DEFAULT_QUOTA, TenantQuota, TokenBucket
from repro.platform.registry import GraphEntry, GraphPlatform, TenantState
from repro.platform.server import MultiTenantServer

__all__ = [
    "GraphPlatform",
    "GraphEntry",
    "TenantState",
    "WorkerPool",
    "pool_worker_main",
    "TenantQuota",
    "TokenBucket",
    "DEFAULT_QUOTA",
    "MultiTenantServer",
    "build_platform",
    "graph_from_spec",
    "load_manifest",
    "save_manifest",
    "manifest_path",
    "platform_to_manifest",
]
