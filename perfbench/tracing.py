"""The benchmark's own timing wrappers around the program's layer entry points.

Each wrapper records a span — name, start, end, parent, and a request or
batch id — in memory; nothing is written until the run ends.  A wrapper
is installed at every name its callers resolve: the attribute on the
defining module or class, and every ``from module import name`` copy
held by an already-imported ``repro`` module.  The program's own
``repro.obs`` spans are never read.

An entry point that no longer exists is reported absent and skipped.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

# (span name, module, attribute path)
ENTRY_POINTS = (
    ("read_dimacs", "repro.graphs.io.dimacs", "read_dimacs"),
    ("CSRGraph.from_edgelist", "repro.graphs.csr", "CSRGraph.from_edgelist"),
    ("get_algorithm", "repro.mst.registry", "get_algorithm"),
    ("graph_fingerprint", "repro.service.artifacts", "graph_fingerprint"),
    ("ArtifactStore.save", "repro.service.artifacts", "ArtifactStore.save"),
    ("ArtifactStore.load", "repro.service.artifacts", "ArtifactStore.load"),
    ("ForestPathMax.__init__", "repro.graphs.tree_queries", "ForestPathMax.__init__"),
    ("QueryEngine.execute", "repro.service.engine", "QueryEngine.execute"),
    ("MSTService.insert_edge", "repro.service.core", "MSTService.insert_edge"),
    ("MSTService.delete_edge", "repro.service.core", "MSTService.delete_edge"),
    ("DynamicMSF.insert_edge", "repro.mst.dynamic", "DynamicMSF.insert_edge"),
    ("DynamicMSF.delete_edge", "repro.mst.dynamic", "DynamicMSF.delete_edge"),
    ("DynamicMSF.find_edge", "repro.mst.dynamic", "DynamicMSF.find_edge"),
    ("DynamicMSF.snapshot", "repro.mst.dynamic", "DynamicMSF.snapshot"),
    ("DynamicMSF.forest_arrays", "repro.mst.dynamic", "DynamicMSF.forest_arrays"),
)
SOLVE = "mst.solve"  # span of the solver get_algorithm returned


def _resolve(module: str, path: str):
    """``(owner, attr, raw)`` for an entry point, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Patcher:
    """Replaces entry points with wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def patch(self, module: str, path: str, make_wrapper) -> bool:
        found = _resolve(module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return False
        owner, attr, raw = found
        if isinstance(raw, staticmethod):
            new = staticmethod(make_wrapper(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._set(owner, attr, raw, new)
        if not inspect.isclass(owner):
            # ``from module import fn`` copies in other loaded modules.
            for mod in list(sys.modules.values()):
                if mod is owner or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, name, raw, new)
        return True

    def _set(self, owner, attr, old, new) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


class Tracer:
    """In-memory span recorder over the entry points in :data:`ENTRY_POINTS`.

    Spans are ``[name, start_ns, end_ns, parent, ctx, attrs]``; parents
    precede their children.  ``ctx`` is the request, write, load or batch
    id the benchmark sets before calling into the program.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ctx = -1
        self.key_hook = None  # called with (span id, kind, us, vs, ws) per engine call
        self._patcher = Patcher()
        self.absent: list[str] = []
        self.solver: dict = {}

    @property
    def installed(self) -> bool:
        return bool(self._patcher._undo)

    @contextlib.contextmanager
    def span(self, name: str, ctx: int | None = None):
        """A benchmark-owned span (a load, a write, the answers batch)."""
        sid = self._open(name, self.ctx if ctx is None else ctx, None)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name: str, ctx: int, attrs) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, ctx, attrs])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter_ns()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = tracer._open(name, tracer.ctx, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(sid)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _wrap_engine(self, fn):
        tracer = self

        def execute(engine, kind, us=None, vs=None, ws=None):
            sid = tracer._open("QueryEngine.execute", tracer.ctx, None)
            try:
                return fn(engine, kind, us, vs, ws)
            finally:
                tracer._close(sid)
                tracer.spans[sid][5] = {"items": int(np.size(us)) if us is not None else 1}
                if tracer.key_hook is not None:
                    tracer.key_hook(sid, kind, us, vs, ws)

        execute.__wrapped__ = fn
        return execute

    def _wrap_get_algorithm(self, fn):
        tracer = self

        def get_algorithm(name, mode=None):
            solver = fn(name, mode)

            def solve(g, *args, **kwargs):
                tracer.solver = {
                    "algorithm": name,
                    "mode_requested": mode or "default",
                    "mode_resolved": _resolved_mode(name, mode, g),
                }
                sid = tracer._open(SOLVE, tracer.ctx, None)
                try:
                    return solver(g, *args, **kwargs)
                finally:
                    tracer._close(sid)

            return solve

        get_algorithm.__wrapped__ = fn
        return get_algorithm

    def install(self) -> None:
        """Wrap every entry point that exists; record the absent ones once."""
        patcher = Patcher()
        for name, module, path in ENTRY_POINTS:
            if name == "get_algorithm":
                make = self._wrap_get_algorithm
            elif name == "QueryEngine.execute":
                make = self._wrap_engine
            else:
                make = self._wrap(name)
            patcher.patch(module, path, make)
        self._patcher = patcher
        self.absent = patcher.absent

    def uninstall(self) -> None:
        self._patcher.restore()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, ctx, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": t0, "end_ns": t1,
                    "parent": parent, "ctx": ctx, "attrs": attrs,
                }) + "\n")


def _resolved_mode(name: str, mode, g) -> str:
    """The kernel mode ``mode="auto"`` resolves to, from public registry calls."""
    if mode != "auto":
        return mode or "default"
    try:
        from repro.mst.autotune import choose_mode
    except ImportError:  # a later program may drop the selector
        return "unknown"
    return choose_mode(name, g.n_vertices, g.n_edges)


def inject_sleep(patcher: Patcher, module: str, path: str, seconds: float) -> bool:
    """Slow one entry point down by a fixed sleep (the slowdown test's hook)."""

    def make(fn):
        def slowed(*args, **kwargs):
            time.sleep(seconds)
            return fn(*args, **kwargs)

        slowed.__wrapped__ = fn
        return slowed

    return patcher.patch(module, path, make)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times_ns(spans) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    self_ns = dur.copy()
    for sid, s in enumerate(spans):
        if s[3] >= 0:
            self_ns[s[3]] -= dur[sid]
    return self_ns


def roots(spans) -> np.ndarray:
    out = np.empty(len(spans), dtype=np.int64)
    for sid, s in enumerate(spans):
        out[sid] = sid if s[3] < 0 else out[s[3]]
    return out


def per_root_totals(spans, root_names, names_by_stage, *, self_time=True):
    """``{stage: [ns per root span]}`` for root spans named in ``root_names``.

    A stage sums the self (or total) time of its spans under each root;
    roots come back in order so stage lists align.
    """
    st = self_times_ns(spans) if self_time else np.array(
        [s[2] - s[1] for s in spans], dtype=np.int64
    )
    rt = roots(spans)
    root_ids = [sid for sid, s in enumerate(spans) if s[3] < 0 and s[0] in root_names]
    index = {r: i for i, r in enumerate(root_ids)}
    out = {stage: np.zeros(len(root_ids), dtype=np.int64) for stage in names_by_stage}
    counts = {stage: np.zeros(len(root_ids), dtype=np.int64) for stage in names_by_stage}
    stage_of = {n: stage for stage, names in names_by_stage.items() for n in names}
    for sid, s in enumerate(spans):
        stage = stage_of.get(s[0])
        i = index.get(int(rt[sid]))
        if stage is None or i is None:
            continue
        out[stage][i] += st[sid]
        counts[stage][i] += 1
    return root_ids, out, counts
