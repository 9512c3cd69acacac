"""Deterministic fault injection for the serving layer.

The service's resilience claims are explicit: a corrupted artifact is a
cache miss (degrade to recompute, never an error), a cancelled request
must not poison its coalesced batch, and a malformed JSON-lines request
gets a structured error record instead of tearing down the event loop.
This module *proves* each claim by injecting the fault deterministically
and checking the documented behaviour:

* :func:`corrupt_artifact` — seeded truncation, bit flips, garbage
  overwrite, and format-version skew of ``.npz`` artifact files;
* :func:`check_artifact_degradation` — every corruption kind against
  :meth:`~repro.service.artifacts.ArtifactStore.get_or_compute`, for MSF
  and registered-problem artifacts alike: the service must recompute,
  overwrite the bad file, count it in ``corrupt_replaced``, and serve
  answers identical to a fresh solve;
* :func:`check_mid_batch_cancellation` — cancels awaiting requests while
  their batch is in flight: peers still get answers, the worker survives,
  and later queries are served;
* :func:`check_serve_malformed` — drives the real ``repro serve`` CLI
  with interleaved valid/invalid/oversized request lines and checks the
  response stream answers all of them (structured errors for the bad
  ones, results for the good ones, exit code 0).

Everything is seeded; a failing fault report reproduces from its seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence

import numpy as np

from repro.checking.families import generate_case
from repro.errors import ServiceError
from repro.graphs.csr import CSRGraph

__all__ = [
    "FAULT_KINDS",
    "FaultReport",
    "corrupt_artifact",
    "check_artifact_degradation",
    "check_mid_batch_cancellation",
    "malformed_request_lines",
    "check_serve_malformed",
    "check_worker_crash",
    "run_fault_suite",
]

FAULT_KINDS = ("truncate", "bitflip", "garbage", "version-skew")


@dataclass
class FaultReport:
    """Outcome of one fault-injection check suite."""

    checks_run: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every injected fault degraded as documented."""
        return not self.failures

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        """Count one check; collect a failure message when it failed."""
        self.checks_run += 1
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def merge(self, other: "FaultReport") -> "FaultReport":
        """Fold another report into this one."""
        self.checks_run += other.checks_run
        self.failures.extend(other.failures)
        return self


def _fault_graph(seed: int) -> CSRGraph:
    """A small connected graph with a non-trivial forest, deterministically."""
    return generate_case("few-distinct-weights", seed, 10).graph


# ----------------------------------------------------------------------
# Artifact corruption
# ----------------------------------------------------------------------
def corrupt_artifact(path: str | Path, kind: str, seed: int = 0) -> None:
    """Deterministically corrupt one ``.npz`` artifact file in place.

    ``truncate`` cuts the file at a seeded fraction; ``bitflip`` flips one
    seeded bit; ``garbage`` overwrites a seeded span with random bytes;
    ``version-skew`` rewrites the archive intact but with a bumped
    ``format_version`` (the forward-compatibility case: a newer writer,
    an older reader).
    """
    path = Path(path)
    rng = np.random.default_rng(seed)
    raw = bytearray(path.read_bytes())
    if kind == "truncate":
        cut = int(len(raw) * float(rng.uniform(0.1, 0.9)))
        path.write_bytes(bytes(raw[:cut]))
    elif kind == "bitflip":
        pos = int(rng.integers(0, len(raw)))
        raw[pos] ^= 1 << int(rng.integers(0, 8))
        path.write_bytes(bytes(raw))
    elif kind == "garbage":
        start = int(rng.integers(0, max(len(raw) - 64, 1)))
        span = rng.integers(0, 256, size=min(64, len(raw) - start), dtype=np.uint8)
        raw[start : start + span.size] = span.tobytes()
        path.write_bytes(bytes(raw))
    elif kind == "version-skew":
        with np.load(path, allow_pickle=False) as data:
            payload = {key: np.array(data[key]) for key in data.files}
        payload["format_version"] = np.int64(int(payload["format_version"]) + 1)
        np.savez_compressed(path, **payload)
    else:
        raise ServiceError(
            f"unknown fault kind {kind!r}; available: {', '.join(FAULT_KINDS)}"
        )


def _same_content(a, b) -> bool:
    """Field-by-field equality of two artifacts of one kind (arrays exact)."""
    def same(x, y) -> bool:
        if isinstance(x, dict):
            return isinstance(y, dict) and x.keys() == y.keys() and all(
                same(x[k], y[k]) for k in x
            )
        if isinstance(x, np.ndarray):
            return isinstance(y, np.ndarray) and np.array_equal(x, y)
        return x == y

    return type(a) is type(b) and all(
        same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


def check_artifact_degradation(
    store_dir: str | Path,
    *,
    seed: int = 0,
    kinds: Sequence[str] | None = None,
    problem: str = "mst",
) -> FaultReport:
    """Every corruption kind must degrade to a recompute, never an error.

    ``problem`` picks the artifact kind under attack: ``"mst"`` (MSF
    artifacts) or a registered problem such as ``"cc"``; both go through
    the one :class:`~repro.service.artifacts.ArtifactStore`.
    """
    from repro.service import service_for
    from repro.service.artifacts import ArtifactStore

    report = FaultReport()
    g = _fault_graph(seed)
    store_dir = Path(store_dir)

    def serve(kind: str):
        """A fresh service over the store: (service, artifact, first answers)."""
        svc = service_for(problem, ArtifactStore(store_dir / kind), algorithm="kruskal")
        artifact = svc.load_graph(g)
        engine = svc.ensure_ready()
        answers = engine.execute(svc.query_kinds[0], [0, 1, 2], [3, 4, 5], None)
        return svc, artifact, answers.tolist()

    for i, kind in enumerate(kinds if kinds is not None else FAULT_KINDS):
        name = f"{problem} {kind}"
        svc, clean, reference = serve(kind)
        path = svc.store.path_for(clean.fingerprint)
        report.record(
            f"{name}: artifact persisted", path.exists(), f"missing {path}"
        )
        corrupt_artifact(path, kind, seed=seed + i)
        # Fresh service over the corrupted store: must silently recompute.
        try:
            svc2, again, answers = serve(kind)
        except Exception as exc:
            report.record(f"{name}: degrade to recompute", False, repr(exc))
            continue
        # A bit flip can land in zip padding or an unused flag byte: the
        # decoded content is then byte-identical (data-region flips are
        # caught by the zip CRC) and serving the file warm is correct —
        # only content-preserving corruption may go uncounted.
        content_same = _same_content(again, clean)
        report.record(
            f"{name}: corruption counted",
            svc2.store.corrupt_replaced == 1 or content_same,
            f"corrupt_replaced={svc2.store.corrupt_replaced}",
        )
        report.record(
            f"{name}: recomputed artifact matches",
            content_same,
            "recomputed artifact differs from clean solve",
        )
        report.record(
            f"{name}: answers match clean solve",
            answers == reference,
            f"{answers} != {reference}",
        )
        # The rewritten file must now load warm.
        svc3, _, _ = serve(kind)
        report.record(
            f"{name}: overwritten artifact serves warm",
            svc3.store.hits == 1,
            f"hits={svc3.store.hits}",
        )
    return report


# ----------------------------------------------------------------------
# Mid-batch cancellation
# ----------------------------------------------------------------------
def check_mid_batch_cancellation(*, seed: int = 0) -> FaultReport:
    """Cancelled requests must not poison their batch or kill the worker."""
    from repro.service import MSTService
    from repro.service.server import AsyncMSTService

    report = FaultReport()
    g = _fault_graph(seed)
    svc = MSTService(None, algorithm="kruskal")
    svc.load_graph(g)
    n = g.n_vertices

    async def probe() -> None:
        # The tasks enqueue their requests during this coroutine's yield,
        # and the cancellations below run before the batch worker's next
        # turn: each cancelled request is still queued and joins the batch
        # with its live peers — the race under test.
        async with AsyncMSTService(svc, max_batch=64) as server:
            tasks = [
                asyncio.create_task(server.query("connected", i % n, (i + 1) % n))
                for i in range(16)
            ]
            await asyncio.sleep(0)  # let the requests enqueue
            for t in tasks[::2]:
                t.cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            cancelled = sum(isinstance(r, asyncio.CancelledError) for r in results)
            answered = sum(isinstance(r, (bool, np.bool_)) for r in results)
            report.record(
                "cancellations observed", cancelled == 8, f"cancelled={cancelled}"
            )
            report.record(
                "peers still answered", answered == 8, f"answered={answered}"
            )
            # The worker must have survived to serve fresh queries.
            late = await server.query("component", 0)
            report.record(
                "worker survives cancellation", isinstance(late, int), repr(late)
            )
            report.record(
                "queue drained", server.pending == 0, f"pending={server.pending}"
            )

    asyncio.run(probe())
    return report


# ----------------------------------------------------------------------
# Malformed JSON-lines requests against the real CLI
# ----------------------------------------------------------------------
def malformed_request_lines(seed: int = 0) -> List[str]:
    """A deterministic battery of malformed ``repro serve`` request lines."""
    rng = np.random.default_rng(seed)
    oversized = json.dumps({"op": "connected", "pad": "x" * (70 * 1024)})
    return [
        "{not json at all",
        '"just a string"',
        "[1, 2, 3]",
        "{}",
        json.dumps({"op": 42}),
        json.dumps({"op": "connected", "u": "zero", "v": 1}),
        json.dumps({"op": "connected", "u": True, "v": 1}),
        json.dumps({"op": "connected", "u": 0, "v": 1.5}),
        json.dumps({"op": "bottleneck", "u": 0, "v": None, "w": "heavy"}),
        json.dumps({"op": "no-such-op", "u": 0, "v": 1}),
        json.dumps({"op": "connected", "u": int(rng.integers(10**6, 10**9)), "v": 0}),
        oversized,
    ]


def check_serve_malformed(work_dir: str | Path, *, seed: int = 0) -> FaultReport:
    """Drive ``repro serve`` end to end with hostile request lines.

    Interleaves every malformed line with valid requests and checks the
    CLI's contract: exit code 0, one structured response record per
    non-empty input line (``error`` for the bad, ``result`` for the
    good), in input order, each one strict JSON (RFC 8259 has no
    ``Infinity`` or ``NaN``).
    """
    from repro.cli import main
    from repro.graphs.io.binary import save_npz

    report = FaultReport()
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    g = _fault_graph(seed)
    graph_path = work_dir / "fault-graph.npz"
    save_npz(g, graph_path)

    bad = malformed_request_lines(seed)
    good = [
        json.dumps({"op": "connected", "u": 0, "v": 1}),
        json.dumps({"op": "component", "u": 2}),
        json.dumps({"op": "component_size", "u": 0}),
        json.dumps({"op": "weight"}),
    ]
    lines: List[str] = []
    for i, line in enumerate(bad):
        lines.append(line)
        lines.append(good[i % len(good)])
    requests_path = work_dir / "requests.jsonl"
    requests_path.write_text("\n".join(lines) + "\n")

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "serve", "--input", str(graph_path),
            "--queries", str(requests_path),
        ])
    report.record("serve exits 0", code == 0, f"exit code {code}")

    def reject(constant: str):
        raise ValueError(f"{constant} is not JSON")

    records, not_json = [], []
    for line in filter(None, out.getvalue().splitlines()):
        try:
            records.append(json.loads(line, parse_constant=reject))
        except ValueError:
            not_json.append(line)
    report.record(
        "every response line is strict JSON", not not_json,
        f"{len(not_json)} non-JSON line(s), first: {not_json[:1]}",
    )
    report.record(
        "one record per request",
        len(records) == len(lines),
        f"{len(records)} records for {len(lines)} lines",
    )
    n_err = sum("error" in r for r in records)
    n_ok = sum("result" in r for r in records)
    # Some malformed lines parse fine but fail in the engine ("no-such-op",
    # out-of-range vertex): they must surface as per-request errors too.
    report.record(
        "every malformed line got a structured error",
        n_err == len(bad),
        f"{n_err} errors for {len(bad)} bad lines",
    )
    report.record(
        "every valid line got a result",
        n_ok == len(lines) - len(bad),
        f"{n_ok} results for {len(lines) - len(bad)} good lines",
    )
    return report


# ----------------------------------------------------------------------
# Shard-worker death mid-solve
# ----------------------------------------------------------------------
def check_worker_crash(*, seed: int = 0) -> FaultReport:
    """Killing a shard worker mid-solve must never corrupt the answer.

    The sharded coordinator's resilience contract, checked fault by
    fault against the Kruskal oracle:

    * a worker that dies once (``os._exit`` mid-solve) is respawned and
      the retry produces the exact oracle forest;
    * a worker that dies on *every* attempt exhausts its retries and the
      shard is solved in-process — same forest, ``fallback_shards`` 1;
    * a hung worker is reaped at its timeout and treated like a crash;
    * no shared-memory segment survives any of it (the leak check is the
      reason the arena is owner-unlinked rather than worker-tracked).
    """
    from repro.graphs.generators import gnm_random_graph
    from repro.mst.kruskal import kruskal
    from repro.shard import ShardFault, leaked_segments, sharded_mst

    report = FaultReport()
    g = gnm_random_graph(200, 800, seed=seed)
    oracle = kruskal(g)
    before = set(leaked_segments())

    scenarios = [
        (
            "crash once, retry succeeds",
            dict(fault=ShardFault(shard=1, kind="exit", attempts=1)),
            {"retries": 1, "fallback_shards": 0},
        ),
        (
            "crash always, fallback solves in-process",
            dict(max_retries=1, fault=ShardFault(shard=2, kind="exit", attempts=10)),
            {"retries": 1, "fallback_shards": 1},
        ),
        (
            "hang reaped at timeout, retry succeeds",
            dict(timeout_s=1.5, fault=ShardFault(shard=0, kind="hang", attempts=1)),
            {"retries": 1, "fallback_shards": 0},
        ),
    ]
    for name, kwargs, expect in scenarios:
        try:
            result = sharded_mst(
                g, n_shards=4, executor="process", seed=seed, **kwargs
            )
        except Exception as exc:
            report.record(f"worker-crash: {name}", False, repr(exc))
            continue
        report.record(
            f"worker-crash: {name} — forest matches oracle",
            np.array_equal(
                np.asarray(result.edge_ids), np.asarray(oracle.edge_ids)
            ),
            "sharded forest diverged from Kruskal oracle",
        )
        for key, want in expect.items():
            got = int(result.stats.get(key, -1))
            report.record(
                f"worker-crash: {name} — {key}",
                got == want,
                f"{key}={got}, expected {want}",
            )
    leaked = sorted(set(leaked_segments()) - before)
    report.record(
        "worker-crash: no leaked shared-memory segments",
        not leaked,
        f"segments left behind: {leaked}",
    )
    return report


def run_fault_suite(work_dir: str | Path, *, seed: int = 0) -> FaultReport:
    """All fault-injection checks against one scratch directory."""
    work_dir = Path(work_dir)
    report = FaultReport()
    for problem in ("mst", "cc"):
        report.merge(check_artifact_degradation(
            work_dir / "artifacts", seed=seed, problem=problem,
        ))
    report.merge(check_mid_batch_cancellation(seed=seed))
    report.merge(check_serve_malformed(work_dir / "serve", seed=seed))
    report.merge(check_worker_crash(seed=seed))
    return report
