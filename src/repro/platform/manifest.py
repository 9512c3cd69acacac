"""The platform manifest — declarative multi-tenant state on disk.

``<root>/platform.json`` records every tenant, its quota, and each
graph's *source spec* (a file path or a generator recipe) plus solve
recipe, so a platform restart rebuilds exactly the same serving state:
graphs reload from their specs and their artifacts come back warm from
the content-addressed store — only the cheap registration work repeats.

Schema (version 1)::

    {"version": 1,
     "tenants": {
       "acme": {
         "quota": {"max_graphs": 8, "resident_budget": 4, ...},
         "graphs": {
           "roads": {"source": {"path": "data/roads.gr"},
                     "problem": "mst", "algorithm": "parallel-boruvka",
                     "mode": "auto", "params": {}},
           "mesh":  {"source": {"kind": "gnm", "n": 1000, "m": 4000,
                     "seed": 7}, "problem": "sssp",
                     "params": {"source": 0}, ...}}}}}

Source specs: ``{"path": ...}`` loads by suffix exactly like the CLI
(``.gr``/``.mtx``/``.tsv``/``.txt``/``.npz``); ``{"kind": "gnm"|
"grid"|"dataset", ...}`` generates deterministically from a seed, so two
hosts with the same manifest register byte-identical graphs and share
artifact fingerprints.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ServiceError
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.platform.quota import TenantQuota

__all__ = [
    "MANIFEST_NAME",
    "manifest_path",
    "load_manifest",
    "save_manifest",
    "graph_from_spec",
    "build_platform",
    "platform_to_manifest",
]

MANIFEST_NAME = "platform.json"
_MANIFEST_VERSION = 1


def manifest_path(root: str | Path) -> Path:
    """Where the manifest lives under a platform root."""
    return Path(root) / MANIFEST_NAME


def load_manifest(root: str | Path) -> dict:
    """Read and validate ``<root>/platform.json`` (empty default if absent)."""
    path = manifest_path(root)
    if not path.exists():
        return {"version": _MANIFEST_VERSION, "tenants": {}}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ServiceError(f"unreadable platform manifest {path}: {exc}") from exc
    version = data.get("version")
    if version != _MANIFEST_VERSION:
        raise ServiceError(
            f"unsupported platform manifest version {version!r} in {path}"
        )
    if not isinstance(data.get("tenants"), dict):
        raise ServiceError(f"malformed platform manifest {path}: no tenants map")
    return data


def save_manifest(root: str | Path, manifest: dict) -> Path:
    """Atomically write the manifest (tmp-then-replace); returns its path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = manifest_path(root)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def graph_from_spec(spec: dict):
    """Materialise one graph from its manifest source spec.

    ``{"path": ...}`` dispatches on suffix like ``repro mst`` does;
    generator specs are deterministic in their seed: ``{"kind": "gnm",
    "n", "m", "seed"}``, ``{"kind": "grid", "rows", "cols", "seed"}``,
    and ``{"kind": "dataset", "name", "scale", "seed"}`` (the bench
    dataset registry).
    """
    if "path" in spec:
        from repro.graphs.io import read_dimacs, read_edge_tsv, read_matrix_market
        from repro.graphs.io.binary import load_npz

        path = Path(spec["path"])
        suffix = path.suffix.lower()
        if suffix == ".gr":
            return read_dimacs(path)
        if suffix == ".mtx":
            return read_matrix_market(path)
        if suffix in (".tsv", ".txt"):
            return read_edge_tsv(path)
        if suffix == ".npz":
            return load_npz(path)
        raise ServiceError(
            f"unsupported graph format {suffix!r} in spec (use .gr/.mtx/.tsv/.npz)"
        )
    kind = spec.get("kind")
    if kind == "gnm":
        from repro.graphs.generators.random_graphs import gnm_random_graph

        return gnm_random_graph(
            int(spec["n"]), int(spec["m"]), seed=int(spec.get("seed", 0))
        )
    if kind == "grid":
        from repro.graphs.generators.grid import grid_graph

        return grid_graph(
            int(spec["rows"]), int(spec["cols"]), seed=int(spec.get("seed", 0))
        )
    if kind == "dataset":
        from repro.bench.datasets import build_dataset

        return build_dataset(
            spec["name"], spec.get("scale"), int(spec.get("seed", 0))
        )
    raise ServiceError(f"unknown graph source spec {spec!r}")


def build_platform(root: str | Path):
    """Materialise a :class:`~repro.platform.registry.GraphPlatform` from disk.

    Loads ``<root>/platform.json``, registers every tenant with its
    persisted quota, and re-adds every graph from its source spec — warm
    artifacts come straight from the content-addressed store under the
    same root, so restart cost is dominated by graph I/O, not solves.
    A ``"shards"`` key in a graph record (written by older versions) is
    ignored: such a graph solves with its recorded ``algorithm``.
    """
    from repro.platform.registry import GraphPlatform

    manifest = load_manifest(root)
    platform = GraphPlatform(root)
    for tname, trec in sorted(manifest["tenants"].items()):
        quota = TenantQuota.from_dict(trec.get("quota") or {})
        platform.add_tenant(tname, quota)
        for gname, grec in sorted((trec.get("graphs") or {}).items()):
            g = graph_from_spec(grec.get("source") or {})
            platform.add_graph(
                tname, gname, g,
                problem=grec.get("problem", "mst"),
                algorithm=grec.get("algorithm", DEFAULT_ALGORITHM),
                mode=grec.get("mode", "auto"),
                source_spec=grec.get("source"),
                **(grec.get("params") or {}),
            )
    return platform


def platform_to_manifest(platform) -> dict:
    """Serialise a live platform's registrations back to manifest form.

    Graphs registered without a source spec (in-memory arrays handed to
    ``add_graph`` directly) cannot be re-materialised and are skipped —
    callers that want restartable state must pass ``source_spec=``.
    """
    tenants: dict = {}
    for tname in platform.tenants():
        state = platform.tenant(tname)
        graphs = {}
        for gname, entry in sorted(state.graphs.items()):
            if not entry.source:
                continue
            graphs[gname] = {
                "source": entry.source,
                "problem": entry.problem,
                "algorithm": entry.algorithm,
                "mode": entry.mode,
                "params": dict(entry.params),
            }
        tenants[tname] = {"quota": state.quota.to_dict(), "graphs": graphs}
    return {"version": _MANIFEST_VERSION, "tenants": tenants}
