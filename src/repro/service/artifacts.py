"""Content-addressed store of solved artifacts: MSFs and registered problems.

The expensive part of serving queries is the solve; the serving layer
therefore treats a solved instance as a *content-addressed artifact*:
the SHA-256 fingerprint of the exact graph bytes (vertex count, endpoint
arrays, weight arrays) plus what solved it addresses one immutable
result.  Any change to the graph, the weights, or the solve recipe
yields a new fingerprint — invalidation is structural, never a guess.

Two artifact kinds share one store, one atomic writer and one reader:

* :class:`MSFArtifact` — the forest edges alone; the
  :class:`~repro.graphs.tree_queries.ForestPathMax` path-max index is
  derived data, built from them whenever an engine serves the artifact;
  addressed by :func:`graph_fingerprint` (graph + algorithm/mode);
* :class:`ProblemArtifact` — one solved registered problem (SSSP
  distances + canonical parents, CC labels, ...), its arrays checked
  against the problem's registry schema; addressed by
  :func:`problem_fingerprint` (graph + problem/mode/params).

Both fingerprints hash the same graph bytes under different salts, so
the kinds never collide in a shared directory.  A kind contributes only
its fingerprint, its payload layout, and its structural check: every
``.npz`` file starts with the same header (``format_version``,
``fingerprint``, ``problem`` — ``"mst"`` for forests — ``mode``,
``n_vertices``), and :func:`solve_artifact` is the one place that tells
an MST solve from a registered problem's.

MSF artifacts also have a portable ``.json`` form (written by
``repro mst --save``) with the same forest edges.

Corrupted or version-incompatible files surface as
:class:`~repro.errors.ServiceError`; :meth:`ArtifactStore.get_or_compute`
degrades gracefully by treating them as cache misses and overwriting.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, Optional

import numpy as np

from repro.errors import ServiceError
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import EdgeList
from repro.graphs.tree_queries import ForestPathMax
from repro.mst.base import MSTResult
from repro.mst.registry import DEFAULT_ALGORITHM
from repro.obs.trace import span as _obs_span

__all__ = [
    "MST",
    "MSFArtifact",
    "ProblemArtifact",
    "ArtifactStore",
    "graph_fingerprint",
    "problem_fingerprint",
    "artifact_fingerprint",
    "update_graph_hash",
    "artifact_from_result",
    "artifact_from_forest",
    "solve_artifact",
    "save_npz_artifact",
    "load_npz_artifact",
    "save_json_artifact",
    "load_json_artifact",
]

MST = "mst"
# One layout version per kind.  MSF layout 2 added the shared ``problem``
# header; layout 3 dropped the stored path-max index.  Older layout-3
# files also hold ``solver``/``shards`` members; the reader takes only the
# members it names, so they still load warm.  The problem layout
# is unchanged since its introduction, so problem files written before
# the stores merged (and before the writer stopped compressing) still
# load warm.
_FORMAT_VERSION = 3
_PROBLEM_FORMAT_VERSION = 1
_JSON_FORMAT = "repro-msf"
_JSON_VERSION = 1
_FINGERPRINT_SALT = b"repro-msf-artifact-v1"
_PROBLEM_FINGERPRINT_SALT = b"repro-problem-artifact-v1"


def _edge_arrays(g: CSRGraph | EdgeList):
    """``(u, v, w)``: a graph's edge tables, or the columns of the edge list it is built from."""
    if isinstance(g, EdgeList):
        return g.u, g.v, g.w
    return g.edge_u, g.edge_v, g.edge_w


def update_graph_hash(h, g: CSRGraph | EdgeList) -> None:
    """Feed the canonical graph bytes into an in-progress hash object.

    The single definition of "the graph bytes" shared by every
    content-addressed fingerprint: vertex count, endpoint arrays as
    little-endian int64, and weights in their native int64/float64
    representation with a dtype tag — int64 weights must not round
    through float64 (values beyond 2**53 would collide).  A
    :class:`CSRGraph` and the canonical :class:`EdgeList` it is built
    from hash the same bytes.
    """
    u, v, w = _edge_arrays(g)
    with _obs_span("artifact:fingerprint", "service", n_edges=int(u.size)):
        h.update(str(int(g.n_vertices)).encode())
        h.update(np.ascontiguousarray(u, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(v, dtype="<i8").tobytes())
        if w.dtype.kind in "iu":
            h.update(b"w:i8")
            h.update(np.ascontiguousarray(w, dtype="<i8").tobytes())
        else:
            h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())


def graph_fingerprint(
    g: CSRGraph | EdgeList, algorithm: str, mode: str | None = None
) -> str:
    """SHA-256 content address of ``(graph bytes, algorithm, mode)``.

    Hashes the canonical edge arrays byte-exactly, so any change to the
    vertex count, topology, or weights — and any change of algorithm —
    maps to a different address.  Deterministic across processes and
    platforms (fixed dtypes, little-endian byte order).

    Integer weights are hashed in their native int64 representation
    (plus a dtype tag): funnelling them through float64 would collide
    distinct weights beyond 2**53, silently serving one graph's forest
    for another.  Float graphs hash exactly as before, so existing
    stores stay warm.
    """
    h = hashlib.sha256()
    h.update(_FINGERPRINT_SALT)
    update_graph_hash(h, g)
    h.update(algorithm.encode())
    h.update((mode or "default").encode())
    return h.hexdigest()


def problem_fingerprint(
    g: CSRGraph, problem: str, mode: str | None = None, params: dict | None = None
) -> str:
    """SHA-256 content address of ``(graph bytes, problem, mode, params)``.

    Parameters are hashed in sorted-key order with ``repr`` values, so
    ``source=0`` and ``source=1`` solves of the same graph are distinct
    artifacts.  The salt differs from :func:`graph_fingerprint`'s, so the
    two artifact kinds cannot collide even in a shared directory.
    """
    h = hashlib.sha256()
    h.update(_PROBLEM_FINGERPRINT_SALT)
    update_graph_hash(h, g)
    h.update(problem.encode())
    h.update((mode or "default").encode())
    for key in sorted(params or {}):
        h.update(f"{key}={params[key]!r};".encode())
    return h.hexdigest()


def artifact_fingerprint(
    g: CSRGraph,
    problem: str = MST,
    mode: str | None = "auto",
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    params: dict | None = None,
) -> str:
    """The store address of ``g`` solved for ``problem`` (either kind).

    ``algorithm`` names the MST solve (``problem="mst"``), ``params`` a
    registered problem's.
    """
    if problem == MST:
        return graph_fingerprint(g, algorithm, mode)
    return problem_fingerprint(g, problem, mode, params)


@dataclass(frozen=True)
class MSFArtifact:
    """One immutable solved-MSF artifact.

    Forest edges are stored sorted by the graph's weight order, so the
    *position* of an edge doubles as its local rank: the path-max oracle
    returns rank ``r`` and ``msf_w[r]`` / ``(msf_u[r], msf_v[r])`` recover
    the bottleneck weight and edge without any global lookup table.
    """

    problem: ClassVar[str] = MST
    format_version: ClassVar[int] = _FORMAT_VERSION

    fingerprint: str
    algorithm: str
    mode: Optional[str]
    n_vertices: int
    msf_u: np.ndarray
    msf_v: np.ndarray
    msf_w: np.ndarray
    msf_edge_ids: np.ndarray
    total_weight: float | int
    n_components: int

    @property
    def n_forest_edges(self) -> int:
        """Number of edges in the stored forest."""
        return int(self.msf_u.size)

    def oracle(self) -> ForestPathMax:
        """A query-ready path-max oracle over the forest's local ranks."""
        ranks = np.arange(self.msf_u.size, dtype=np.int64)
        return ForestPathMax(self.n_vertices, self.msf_u, self.msf_v, ranks)

    def _payload(self) -> dict:
        return {
            "algorithm": np.str_(self.algorithm),
            "n_components": np.int64(self.n_components),
            # int totals persist as int64 (exact); floats as float64.
            "total_weight": np.asarray(self.total_weight),
            "msf_u": self.msf_u,
            "msf_v": self.msf_v,
            "msf_w": self.msf_w,
            "msf_edge_ids": self.msf_edge_ids,
        }

    @classmethod
    def _from_payload(cls, data, **header) -> "MSFArtifact":
        return cls(
            **header,
            algorithm=str(data["algorithm"].item()),
            msf_u=np.array(data["msf_u"], dtype=np.int64),
            msf_v=np.array(data["msf_v"], dtype=np.int64),
            # Native dtype: int64 weights must not round through float64.
            msf_w=np.array(data["msf_w"]),
            msf_edge_ids=np.array(data["msf_edge_ids"], dtype=np.int64),
            total_weight=np.asarray(data["total_weight"]).item(),
            n_components=int(data["n_components"]),
        )

    def _validate(self, path) -> None:
        """Forest bounds: at most n - 1 edges, in range, components consistent."""
        n, k = self.n_vertices, self.n_forest_edges
        if n < 0 or (n == 0 and k > 0) or (n > 0 and k > n - 1):
            raise ServiceError(f"corrupted artifact {path}: edge count exceeds forest bound")
        if not (self.msf_u.shape == self.msf_v.shape == self.msf_w.shape):
            raise ServiceError(f"corrupted artifact {path}: edge arrays disagree")
        if k and (
            int(min(self.msf_u.min(), self.msf_v.min())) < 0
            or int(max(self.msf_u.max(), self.msf_v.max())) >= n
        ):
            raise ServiceError(f"corrupted artifact {path}: vertex id out of range")
        if self.n_components != n - k:
            raise ServiceError(f"corrupted artifact {path}: component count inconsistent")


@dataclass(frozen=True)
class ProblemArtifact:
    """One immutable solved-problem artifact.

    ``arrays`` holds exactly the problem's registry schema
    (``dist``/``parent``/``parent_edge`` for SSSP, ``labels`` for CC);
    ``scalars`` the JSON-safe summary values (``source``,
    ``n_components``, ...); ``params`` the solve parameters that entered
    the fingerprint.
    """

    format_version: ClassVar[int] = _PROBLEM_FORMAT_VERSION

    fingerprint: str
    problem: str
    mode: Optional[str]
    n_vertices: int
    arrays: Dict[str, np.ndarray] = field(repr=False)
    scalars: Dict[str, object] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)

    def _payload(self) -> dict:
        payload = {
            "scalars_json": np.str_(json.dumps(self.scalars, sort_keys=True)),
            "params_json": np.str_(json.dumps(self.params, sort_keys=True)),
            "array_names": np.array(sorted(self.arrays), dtype=np.str_),
        }
        for name in sorted(self.arrays):
            payload[f"arr_{name}"] = self.arrays[name]
        return payload

    @classmethod
    def _from_payload(cls, data, **header) -> "ProblemArtifact":
        names = [str(x) for x in np.array(data["array_names"])]
        return cls(
            **header,
            problem=str(data["problem"].item()),
            arrays={name: np.array(data[f"arr_{name}"]) for name in names},
            scalars=json.loads(str(data["scalars_json"].item())),
            params=json.loads(str(data["params_json"].item())),
        )

    def _validate(self, path) -> None:
        """The array schema and shapes the problem's registry row names."""
        from repro.solve.registry import problem_info

        try:
            info = problem_info(self.problem)
        except Exception as exc:
            raise ServiceError(
                f"corrupted artifact {path}: unknown problem {self.problem!r}"
            ) from exc
        if sorted(self.arrays) != sorted(info.arrays):
            raise ServiceError(
                f"corrupted artifact {path}: array schema {sorted(self.arrays)} "
                f"does not match problem {self.problem!r} ({sorted(info.arrays)})"
            )
        for name, arr in self.arrays.items():
            if arr.ndim != 1 or arr.size != self.n_vertices:
                raise ServiceError(
                    f"corrupted artifact {path}: array {name!r} has shape "
                    f"{arr.shape}, expected ({self.n_vertices},)"
                )


def artifact_from_result(
    g: CSRGraph,
    result: MSTResult,
    algorithm: str,
    mode: str | None = None,
    *,
    fingerprint: str | None = None,
) -> MSFArtifact:
    """Package an already-computed :class:`MSTResult` as an artifact.

    Used both by :func:`solve_artifact` and by the CLI's ``mst --save``
    (which has the result in hand and should not pay for a second solve).
    ``fingerprint`` skips re-hashing the graph when the caller already
    has the address.
    """
    eids = np.asarray(result.edge_ids, dtype=np.int64)
    order = np.argsort(g.ranks[eids], kind="stable") if eids.size else eids
    return _package(
        g, eids[order], algorithm, mode, fingerprint,
        result.total_weight, int(result.n_components),
    )


def artifact_from_forest(
    edges: EdgeList, eids: np.ndarray, algorithm: str, mode: str | None = None
) -> MSFArtifact:
    """Package the forest ``eids`` of canonical ``edges``, given in rank order.

    The service's write path: a repaired
    :class:`~repro.mst.dynamic.DynamicMSF` forest arrives already in the
    ``(weight, edge id)`` order of its snapshot, so no CSR is built and
    nothing is sorted.  Every field equals what :func:`artifact_from_result`
    makes of a solve of ``CSRGraph.from_edgelist(edges)``: the same
    fingerprint bytes, and the total summed in edge-id order as
    :func:`~repro.mst.base.result_from_edge_ids` sums it.
    """
    eids = np.asarray(eids, dtype=np.int64)
    with np.errstate(over="ignore"):
        total = float(edges.w[np.sort(eids)].sum()) if eids.size else 0.0
    return _package(
        edges, eids, algorithm, mode, None, total, edges.n_vertices - int(eids.size)
    )


def _package(g, eids, algorithm, mode, fingerprint, total, n_components) -> MSFArtifact:
    """The artifact of forest ``eids`` (rank order) of ``g``, a graph or edge list."""
    u, v, w = _edge_arrays(g)
    # Weights keep the graph's dtype: int64 weights round-tripped through
    # float64 lose exactness beyond 2**53.
    fw = w[eids]
    return MSFArtifact(
        fingerprint=fingerprint or graph_fingerprint(g, algorithm, mode),
        algorithm=algorithm,
        mode=mode,
        n_vertices=g.n_vertices,
        msf_u=u[eids].astype(np.int64, copy=True),
        msf_v=v[eids].astype(np.int64, copy=True),
        msf_w=fw,
        msf_edge_ids=eids,
        total_weight=int(fw.sum()) if fw.dtype.kind in "iu" else float(total),
        n_components=n_components,
    )


def solve_artifact(
    g: CSRGraph,
    problem: str = MST,
    mode: str | None = "auto",
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    params: dict | None = None,
    fingerprint: str | None = None,
    backend=None,
):
    """Solve ``g`` for ``problem`` and package the artifact.

    The one place that tells an MST solve from a registered problem's:
    the store's miss path, an in-memory service's loads and
    ``repro solve`` all come through here.  ``problem="mst"`` runs the
    MST registry ``algorithm`` (``"sharded"`` is the sharded
    multiprocess coordinator); any other name runs that registered
    problem with ``params``.  ``fingerprint`` is the address when the
    caller already hashed the graph.
    """
    if problem != MST:
        from repro.solve.registry import get_problem

        params = dict(params or {})
        result = get_problem(problem, mode)(g, backend=backend, **params)
        return ProblemArtifact(
            fingerprint=fingerprint or problem_fingerprint(g, problem, mode, params),
            problem=problem,
            mode=mode,
            n_vertices=g.n_vertices,
            arrays={k: np.asarray(v) for k, v in result.arrays().items()},
            scalars=dict(result.scalars()),
            params=params,
        )
    from repro.mst.registry import get_algorithm

    result = get_algorithm(algorithm, mode=mode)(g, backend=backend)
    return artifact_from_result(g, result, algorithm, mode, fingerprint=fingerprint)


# ----------------------------------------------------------------------
# The .npz writer and reader (both kinds)
# ----------------------------------------------------------------------
def save_npz_artifact(artifact, path: str | Path) -> Path:
    """Atomically write one artifact of either kind; returns ``path``.

    Each write goes through its own temporary file beside ``path``, so
    concurrent writers of one artifact (two processes booting the same
    graph cold on one store) never share it: every ``os.replace``
    installs a complete file.  A failed write removes its temporary file.
    """
    with _obs_span("artifact:save", "service"):
        path = Path(path)
        payload = {
            "format_version": np.int64(artifact.format_version),
            "fingerprint": np.str_(artifact.fingerprint),
            "problem": np.str_(artifact.problem),
            "mode": np.str_(artifact.mode or ""),
            "n_vertices": np.int64(artifact.n_vertices),
            **artifact._payload(),
        }
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path


def load_npz_artifact(path: str | Path, expect_fingerprint: str | None = None):
    """Deserialise one ``.npz`` artifact of either kind.

    The ``problem`` header picks the payload layout (a file without one
    predates it: MSF layout 1, refused as an old version).  Raises
    :class:`~repro.errors.ServiceError` — never a raw traceback — on
    truncated files, missing fields, version mismatches, fingerprint
    disagreement, or a failed structural check.
    """
    with _obs_span("artifact:load", "service"):
        path = Path(path)
        try:
            # Our own handle: np.load leaks the one it opens when the zip
            # directory is unreadable.
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                problem = str(data["problem"].item()) if "problem" in data.files else MST
                kind = MSFArtifact if problem == MST else ProblemArtifact
                version = int(data["format_version"])
                if version != kind.format_version:
                    raise ServiceError(f"unsupported artifact version {version} in {path}")
                fingerprint = str(data["fingerprint"].item())
                if expect_fingerprint is not None and fingerprint != expect_fingerprint:
                    raise ServiceError(
                        f"artifact fingerprint mismatch in {path}: file claims "
                        f"{fingerprint[:12]}..., expected {expect_fingerprint[:12]}..."
                    )
                artifact = kind._from_payload(
                    data,
                    fingerprint=fingerprint,
                    mode=str(data["mode"].item()) or None,
                    n_vertices=int(data["n_vertices"]),
                )
        except ServiceError:
            raise
        except (
            OSError,
            KeyError,
            ValueError,
            zipfile.BadZipFile,
            EOFError,
            # Bit flips / garbage inside a zip member surface from the
            # decompressor and the header parser, not from zipfile.
            zlib.error,
            struct.error,
            # A damaged member header can claim encryption, an unknown
            # compression method or zip version: zipfile raises
            # RuntimeError or its subclass NotImplementedError.
            RuntimeError,
        ) as exc:
            raise ServiceError(f"corrupted artifact file {path}: {exc}") from exc
        artifact._validate(path)
        return artifact


# ----------------------------------------------------------------------
# Portable JSON artifacts (``repro mst --save`` / ``repro query --artifact``)
# ----------------------------------------------------------------------
def save_json_artifact(artifact: MSFArtifact, path: str | Path) -> None:
    """Write the portable JSON form (forest edges; index rebuilt on load).

    Integer weights are emitted as JSON integers (arbitrary precision, so
    int64 values beyond 2**53 survive the round-trip byte-exactly) and
    tagged with ``weight_dtype`` so the loader can restore the array
    dtype; float artifacts keep the pre-existing layout.
    """
    int_w = artifact.msf_w.dtype.kind in "iu"
    scal = int if int_w else float
    payload = {
        "format": _JSON_FORMAT,
        "version": _JSON_VERSION,
        "fingerprint": artifact.fingerprint,
        "algorithm": artifact.algorithm,
        "mode": artifact.mode,
        "n_vertices": artifact.n_vertices,
        "n_components": artifact.n_components,
        "weight_dtype": "int64" if int_w else "float64",
        "total_weight": scal(artifact.total_weight),
        "edges": [
            [int(u), int(v), scal(w)]
            for u, v, w in zip(artifact.msf_u, artifact.msf_v, artifact.msf_w)
        ],
        "edge_ids": [int(e) for e in artifact.msf_edge_ids],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_json_artifact(path: str | Path) -> MSFArtifact:
    """Load a ``repro mst --save`` JSON dump as a query-ready artifact."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ServiceError(f"cannot read JSON artifact {path}: {exc}") from exc
    try:
        if payload["format"] != _JSON_FORMAT:
            raise ServiceError(f"not an MSF artifact: {path}")
        if int(payload["version"]) != _JSON_VERSION:
            raise ServiceError(
                f"unsupported artifact version {payload['version']} in {path}"
            )
        wd = str(payload.get("weight_dtype", "float64"))
        if wd not in ("int64", "float64"):
            raise ServiceError(f"unknown weight_dtype {wd!r} in {path}")
        w_dtype = np.int64 if wd == "int64" else np.float64
        w_scal = int if wd == "int64" else float
        edges = payload["edges"]
        fu = np.array([e[0] for e in edges], dtype=np.int64)
        fv = np.array([e[1] for e in edges], dtype=np.int64)
        fw = np.array([e[2] for e in edges], dtype=w_dtype)
        artifact = MSFArtifact(
            fingerprint=str(payload["fingerprint"]),
            algorithm=str(payload["algorithm"]),
            mode=payload.get("mode"),
            n_vertices=int(payload["n_vertices"]),
            msf_u=fu,
            msf_v=fv,
            msf_w=fw,
            msf_edge_ids=np.array(payload["edge_ids"], dtype=np.int64),
            total_weight=w_scal(payload["total_weight"]),
            n_components=int(payload["n_components"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ServiceError(f"corrupted JSON artifact {path}: {exc}") from exc
    artifact._validate(path)
    return artifact


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class ArtifactStore:
    """Directory-backed content-addressed cache of artifacts of every kind.

    Files live at ``<root>/<fingerprint>.npz``; the fingerprint in the
    file is cross-checked against the file name on load, so a renamed or
    swapped artifact cannot serve the wrong graph.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt_replaced = 0

    def path_for(self, fingerprint: str) -> Path:
        """On-disk location of one artifact."""
        return self.root / f"{fingerprint}.npz"

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def get_or_compute(
        self,
        g: CSRGraph,
        problem: str = MST,
        mode: str | None = "auto",
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        params: dict | None = None,
        backend=None,
    ):
        """Serve ``g``'s artifact, solving and persisting it on a miss.

        Returns ``(artifact, cache_hit)``.  ``problem``, ``mode``,
        ``algorithm`` and ``params`` name the artifact (see
        :func:`artifact_fingerprint`); ``backend`` only steers a miss's
        :func:`solve_artifact`.  A corrupted or version-incompatible
        cached file counts as a miss: it is recomputed and overwritten
        (graceful degradation), never raised out of this method.
        """
        recipe = {"algorithm": algorithm, "params": params}
        fingerprint = artifact_fingerprint(g, problem, mode, **recipe)
        path = self.path_for(fingerprint)
        if path.exists():
            try:
                artifact = self.load(path, expect_fingerprint=fingerprint)
                self.hits += 1
                return artifact, True
            except ServiceError:
                self.corrupt_replaced += 1
        self.misses += 1
        artifact = solve_artifact(
            g, problem, mode, fingerprint=fingerprint, backend=backend, **recipe
        )
        self.save(artifact)
        return artifact, False

    def save(self, artifact) -> Path:
        """Atomically write one artifact; returns its path."""
        return save_npz_artifact(artifact, self.path_for(artifact.fingerprint))

    def load(self, path: str | Path, expect_fingerprint: str | None = None):
        """Deserialise one ``.npz`` artifact (see :func:`load_npz_artifact`)."""
        return load_npz_artifact(path, expect_fingerprint)

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one cached artifact; True when a file was removed."""
        path = self.path_for(fingerprint)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def stats(self) -> dict:
        """Hit/miss/corruption counters as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_replaced": self.corrupt_replaced,
        }
