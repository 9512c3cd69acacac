"""Multi-tenant isolation benchmark: BENCH_platform.json.

Measures the platform's core fairness claim: one tenant blowing through
its rate quota must be shed with structured 429s, not served at the
expense of everyone else's latency.  Two tenants share one platform
(one worker pool, one artifact store):

* **cold** — unthrottled, offered a modest steady query rate;
* **hot** — rate-quota'd far below its offered rate, so most of its
  load is rejected at admission.

The cold tenant runs twice — once alone, once with the hot tenant
hammering concurrently — and the report's headline figure is
``isolation_ratio``: contended cold p99 over alone cold p99.  A
machine-independent within-report ratio, gated by
``tools/bench_gate.py --fresh-platform`` (hard checks: per-tenant
accounting invariant, quota actually enforced; soft check: the ratio
against the committed reference with a noise floor).

Run:  PYTHONPATH=src python tools/bench_platform_report.py BENCH_platform.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

SCHEMA_VERSION = 1


def _tenant_accounting_ok(rec: dict) -> bool:
    """The open-loop invariant: outcome buckets partition offered load."""
    return rec["offered"] == (
        rec["completed"] + rec["rejected"] + rec["quota_rejected"]
        + rec["timeouts"] + rec["errors"]
    )


def build_report(args: argparse.Namespace) -> dict:
    """Run the alone and contended phases; returns the JSON-able report."""
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.load.multitenant import TenantLoad, run_multitenant
    from repro.load.scenarios import Scenario
    from repro.platform import GraphPlatform, TenantQuota

    g = gnm_random_graph(args.n, args.m, seed=args.seed)

    def cold_load() -> TenantLoad:
        return TenantLoad("cold", "g", Scenario(
            name="cold-steady", seed=args.seed, duration_s=args.duration,
            rate_qps=args.cold_rate, arrival="uniform",
            mix={"connected": 0.5, "bottleneck": 0.3, "component": 0.2},
        ))

    def hot_load() -> TenantLoad:
        return TenantLoad("hot", "s", Scenario(
            name="hot-flood", seed=args.seed + 1, duration_s=args.duration,
            rate_qps=args.hot_rate, arrival="poisson",
            mix={"component": 1.0},
        ), op_map={"component": "dist"})

    def run(loads):
        with tempfile.TemporaryDirectory(prefix="bench-platform-") as root:
            platform = GraphPlatform(root)
            platform.add_tenant("cold", TenantQuota(rate_qps=0.0))
            platform.add_tenant("hot", TenantQuota(
                rate_qps=args.hot_quota_qps, burst=args.hot_quota_burst,
            ))
            platform.add_graph("cold", "g", g)
            platform.add_graph("hot", "s", g, problem="sssp", source=0)
            return run_multitenant(platform, loads)

    alone = run([cold_load()])
    contended = run([cold_load(), hot_load()])

    alone_cold = alone.tenants["cold"].to_dict()
    cont_cold = contended.tenants["cold"].to_dict()
    cont_hot = contended.tenants["hot"].to_dict()
    alone_p99 = alone_cold["p99_ms"]
    isolation_ratio = (cont_cold["p99_ms"] / alone_p99) if alone_p99 > 0 else 1.0

    hot_offered = cont_hot["offered"]
    quota_rejected = cont_hot["quota_rejected"]
    return {
        "schema": SCHEMA_VERSION,
        "params": {
            "n_vertices": args.n, "n_edges": args.m, "seed": args.seed,
            "duration_s": args.duration, "cold_rate_qps": args.cold_rate,
            "hot_rate_qps": args.hot_rate,
            "hot_quota_qps": args.hot_quota_qps,
            "hot_quota_burst": args.hot_quota_burst,
        },
        "alone": {"cold": alone_cold},
        "contended": {"cold": cont_cold, "hot": cont_hot},
        "isolation_ratio": round(isolation_ratio, 4),
        "quota": {
            "hot_offered": hot_offered,
            "hot_quota_rejected": quota_rejected,
            "hot_rejected_fraction": round(
                quota_rejected / hot_offered, 4) if hot_offered else 0.0,
            "quota_enforced": quota_rejected > 0,
        },
        "accounting_ok": all(
            _tenant_accounting_ok(rec)
            for rec in (alone_cold, cont_cold, cont_hot)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; writes the report JSON to the given path."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="report JSON output path")
    parser.add_argument("--n", type=int, default=2000, help="graph vertices")
    parser.add_argument("--m", type=int, default=8000, help="graph edges")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=2.0,
                        help="each phase's offered-load window (seconds)")
    parser.add_argument("--cold-rate", type=float, default=200.0,
                        help="cold tenant's offered rate (unthrottled)")
    parser.add_argument("--hot-rate", type=float, default=2000.0,
                        help="hot tenant's offered rate (mostly shed)")
    parser.add_argument("--hot-quota-qps", type=float, default=100.0,
                        help="hot tenant's rate quota")
    parser.add_argument("--hot-quota-burst", type=float, default=20.0,
                        help="hot tenant's token-bucket burst capacity")
    args = parser.parse_args(argv)

    report = build_report(args)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    q = report["quota"]
    print(f"platform bench: isolation_ratio={report['isolation_ratio']}x "
          f"(cold p99 {report['alone']['cold']['p99_ms']}ms alone -> "
          f"{report['contended']['cold']['p99_ms']}ms contended), "
          f"hot shed {q['hot_quota_rejected']}/{q['hot_offered']} "
          f"({q['hot_rejected_fraction']:.0%}) -> {args.out}")
    if not report["accounting_ok"]:
        print("accounting invariant violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
