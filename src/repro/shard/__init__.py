"""Sharded multiprocess MST: filter → partition → local-solve → merge.

The subsystem first runs a global Boruvka-filter pre-pass
(:mod:`repro.shard.filter`) that banks certain MSF edges and contracts
their components, then splits the edge set into disjoint shards
(:mod:`repro.shard.partition`), solves each shard with any registered
algorithm — in separate OS processes attached zero-copy to a
shared-memory arena (:mod:`repro.shard.memory`,
:mod:`repro.shard.worker`) — and merges the per-shard forests with one
vectorized MSF pass (:mod:`repro.shard.merge`) into the exact
rank-canonical global MSF.  :mod:`repro.shard.coordinator` owns the
lifecycle: timeouts, retry-with-respawn on worker death, and graceful
fallback to in-process solving.

Front door: :func:`~repro.shard.coordinator.sharded_mst`, also registered
as algorithm ``"sharded"`` in :mod:`repro.mst.registry` and reachable via
``repro mst --shards N --partition {hash,range,block}``.
"""

from repro.shard.coordinator import (
    DEFAULT_FILTER_ROUNDS,
    DEFAULT_MIN_PROCESS_EDGES,
    EXECUTORS,
    sharded_mst,
)
from repro.shard.filter import boruvka_filter
from repro.shard.memory import (
    ArenaSpec,
    SharedEdgeArena,
    attach_readonly,
    labels_view,
    leaked_segments,
)
from repro.shard.merge import merge_pair, merge_tree, msf_of_edge_ids
from repro.shard.partition import (
    PARTITION_STRATEGIES,
    ShardPlan,
    partition_edges,
    shard_assignment,
    shard_edge_ids,
)
from repro.shard.worker import ShardFault, ShardTask, solve_shard_local

__all__ = [
    "sharded_mst",
    "EXECUTORS",
    "DEFAULT_FILTER_ROUNDS",
    "DEFAULT_MIN_PROCESS_EDGES",
    "PARTITION_STRATEGIES",
    "ShardPlan",
    "partition_edges",
    "shard_assignment",
    "shard_edge_ids",
    "ArenaSpec",
    "SharedEdgeArena",
    "attach_readonly",
    "labels_view",
    "leaked_segments",
    "boruvka_filter",
    "merge_pair",
    "merge_tree",
    "msf_of_edge_ids",
    "ShardFault",
    "ShardTask",
    "solve_shard_local",
]
