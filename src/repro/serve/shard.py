"""Sharded serving at scale: the ``serve-scale`` grid's cells.

The engine itself (:mod:`repro.serve.engine`) runs any number of shards
in one process.  The scale grid instead runs **one cell per shard**:
the placement plan is a pure function of the config, so each cell
replans independently, boots only its shard's members, and serves only
the arrivals routed there.  :func:`merge_scale_shards` folds the cells
back into scheme x tenants x shards scaling rows, byte-exact under any
worker fan-out.

``ShardedServeConfig`` and ``run_serve_sharded`` are aliases of the
engine's ``ServeConfig`` and ``run_serve``, kept because the end-to-end
benchmark (``benchmarks/e2e``) imports them, with ``ShardScheduler``
and ``memo_tables_of``, from this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any

from repro.serve.engine import (
    CORE_HZ,
    ServeConfig,
    ShardScheduler,
    boot_shard,
    config_from_params,
    memo_tables_of,
    plan_placement,
    run_serve,
    serve_arrivals,
)

ShardedServeConfig = ServeConfig
run_serve_sharded = run_serve

__all__ = ["ShardedServeConfig", "run_serve_sharded", "ShardScheduler",
           "memo_tables_of", "SCALE_LATENCY_BUCKETS", "latency_histogram",
           "histogram_percentile", "scale_shard_cell", "merge_scale_shards"]

#: Fixed latency buckets for cross-process scale aggregation (a 1-2-5
#: ladder).  Shard cells ship bucket counts instead of raw latencies, so
#: merged p50/p99 are bucket-resolution -- the same contract
#: :mod:`repro.obs.slo` uses -- and stay byte-exact under any fan-out.
SCALE_LATENCY_BUCKETS: tuple[float, ...] = (
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
    1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9, 1e10)


def latency_histogram(latencies: list[float]) -> list[int]:
    """Counts per SCALE_LATENCY_BUCKETS bound (last slot = overflow)."""
    counts = [0] * (len(SCALE_LATENCY_BUCKETS) + 1)
    for value in latencies:
        counts[bisect_left(SCALE_LATENCY_BUCKETS, value)] += 1
    return counts


def histogram_percentile(counts: list[int], q: float) -> float:
    """Nearest-rank percentile at bucket-bound resolution."""
    total = sum(counts)
    if not total:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * total))
    running = 0
    for index, count in enumerate(counts):
        running += count
        if running >= rank:
            return SCALE_LATENCY_BUCKETS[min(
                index, len(SCALE_LATENCY_BUCKETS) - 1)]
    return SCALE_LATENCY_BUCKETS[-1]


def scale_shard_cell(params: dict[str, Any]) -> dict[str, Any]:
    """One (scheme, tenants, shards, shard) cell of the scale grid.

    Reconstructs the placement plan independently (it is a pure
    function of the config), boots only this shard's members, serves
    only the arrivals routed here, and ships per-tenant summaries plus
    a fixed-bucket latency histogram -- everything the assembler needs
    for byte-exact merged scaling rows, without raw latency lists.
    """
    config = config_from_params(params)
    index = int(params["shard"])
    members, migrations, _ = plan_placement(config)
    sched = boot_shard(config, index, members[index],
                       block_cache=params.get("block_cache"))
    shards: list[ShardScheduler | None] = [None] * config.shards
    shards[index] = sched
    serve_arrivals(config, shards)
    sched.collect()
    latencies: list[float] = []
    tenant_rows = []
    for idx in sched.members:
        report = sched.reports[idx]
        latencies.extend(report.latencies)
        row = report.as_dict()
        del row["latency_p50"], row["latency_p95"], row["latency_p99"]
        del row["latency_mean"], row["latency_max"]
        row["migrations_in"] = sched.tenant_migrations.get(idx, 0)
        tenant_rows.append(row)
    return {
        "shard": index,
        "members": list(sched.members),
        "report": sched.shard_report().as_dict(),
        "tenants": tenant_rows,
        "latency_hist": latency_histogram(latencies),
        "migrations_total": len(migrations),
    }


def merge_scale_shards(scheme: str, tenants: int, shards: int,
                       payloads: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge one experiment's per-shard cell payloads (in shard order)
    into a scaling row.  Pure dict/int arithmetic: byte-exact under any
    worker fan-out."""
    hist = [0] * (len(SCALE_LATENCY_BUCKETS) + 1)
    totals = {key: 0 for key in
              ("arrivals", "admitted", "shed", "completed", "switches",
               "migrations_in", "ibpb_flushes",
               "migration_cold_dispatches", "memo_keys", "memo_replays",
               "memo_interpreted")}
    cycles = {key: 0.0 for key in
              ("kernel_cycles", "switch_cycles",
               "migration_excess_cycles")}
    makespan = 0.0
    per_shard = []
    for payload in payloads:
        report = payload["report"]
        for key in totals:
            totals[key] += report[key]
        for key in cycles:
            cycles[key] += report[key]
        makespan = max(makespan, report["makespan_cycles"])
        for index, count in enumerate(payload["latency_hist"]):
            hist[index] += count
        per_shard.append({
            "shard": report["shard"],
            "tenants": len(payload["members"]),
            "completed": report["completed"],
            "makespan_cycles": report["makespan_cycles"],
            "migrations_in": report["migrations_in"],
        })
    offered = totals["arrivals"]
    if offered != totals["admitted"] + totals["shed"]:
        raise AssertionError(
            f"conservation violated: offered={offered} != "
            f"admitted={totals['admitted']} + shed={totals['shed']}")
    throughput = (totals["completed"] * CORE_HZ / makespan
                  if makespan > 0 else 0.0)
    return {
        "scheme": scheme, "tenants": tenants, "shards": shards,
        "offered": offered,
        **totals, **cycles,
        "makespan_cycles": makespan,
        "throughput_rps": throughput,
        "latency_p50": histogram_percentile(hist, 50.0),
        "latency_p99": histogram_percentile(hist, 99.0),
        "per_shard": per_shard,
    }
