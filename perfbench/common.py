"""Helpers shared by the benchmark's processes."""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np


def percentile(values, q: float) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else float("nan")


def beyond(n: int, q: float) -> int:
    """Samples lying beyond the ``q``-th percentile of ``n`` samples."""
    return int(n * (100.0 - q) / 100.0)


def host_probe_ms(rounds: int = 10) -> float:
    """A fixed pure-Python + NumPy loop; its time tracks host speed only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000 * rounds):
        acc += i * i % 7
    rng = np.random.default_rng(12345)
    for _ in range(rounds):
        np.sort(rng.random(80_000))
    return (time.perf_counter() - t0) * 1000.0


def host_steal():
    """``(steal, total)`` CPU ticks of the host so far, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def host_steal_share(before, after) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None or after[1] <= before[1]:
        return float("nan")
    return (after[0] - before[0]) / (after[1] - before[1])


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True))


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def save_arrays(path: Path, arrays: dict) -> None:
    np.savez(path, **arrays)


def load_arrays(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}
