"""Benchmark the sharded serving engine (``repro.serve.engine``).

Two phases, one diffgate-compatible snapshot (``repro.obs`` registry
shape, same convention as ``bench_block_jit.py``):

* **event-vs-dense** -- the same sparse 4-shard workload served twice
  from transplanted memo tables (so neither run interprets a single
  micro-op and the timer sees pure scheduler cost): once through the
  engine's event-driven loop, which skips idle gaps, once through
  :func:`serve_dense`, the quantum-stepping reference loop kept here
  that ticks every shard every ``quantum`` cycles.  The reports must be
  **byte-identical**; the wall-clock ratio is the event-skip speedup,
  gated ``>= 10x`` (``--no-gate`` to skip).
* **million** -- a 10^6-request, 8-tenant, 8-shard experiment end to
  end (memo service model, least-loaded placement with periodic
  re-evaluation), asserting arrival conservation and recording the
  scale counters CI byte-gates.
* **memo fidelity** -- the bound on the memo model the million-request
  run relies on: the two configs ``TestMemoFidelity`` gates
  (``tests/test_serve_shard.py``), each served under the ``full`` model
  and under ``memo``, record the worst per-tenant relative error in
  kernel cycles, p50 and p99 latency as
  ``serve_scale.memo_error.t<tenants>.s<shards>.p<memo_period>.*``.

Counters/gauges are deterministic (seeded schedules, simulated clock),
so CI diff-gates them against the committed
``benchmarks/out/BENCH_serve_scale.json``; wall seconds and speedups
are machine-dependent and ride in ``meta``, which the gate skips.

Usage::

    python benchmarks/bench_serve_scale.py -o out.json [--no-gate]
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Callable

from repro.obs import MetricsRegistry
from repro.serve.engine import (
    Placer,
    ServeConfig,
    ServeReport,
    ShardScheduler,
    boot_shards,
    memo_tables_of,
    run_serve,
    serve_arrivals,
)

#: Event-vs-dense speedup floor.  Sparse traffic (one arrival per ~500k
#: cycles aggregate) makes the dense loop iterate ~10^5 idle quanta per
#: shard; measured ratios land well above 10x, so 10x is a safe CI
#: margin.
GATE_EVENT_SKIP = 10.0

#: Sparse workload for the event-vs-dense ratio: long idle gaps (one
#: arrival per ~1.25M cycles aggregate) are exactly what the event loop
#: skips and the dense loop pays for, one quantum at a time.
SPARSE = dict(scheme="perspective", seed=0, tenants=4, shards=4,
              requests_per_tenant=250, mean_interarrival=5_000_000.0,
              queue_bound=0, rare_every=0, profile_requests=2,
              placement="least-loaded", migrate_every=0,
              service_model="memo", memo_warmup=1, memo_period=24)

#: The million-request experiment (8 tenants x 125000 requests).
MILLION = dict(scheme="perspective", seed=0, tenants=8, shards=8,
               requests_per_tenant=125_000,
               mean_interarrival=100_000.0, queue_bound=0,
               rare_every=0, profile_requests=2,
               placement="least-loaded", migrate_every=5000,
               service_model="memo", memo_warmup=1, memo_period=24)

#: The memo-fidelity configs (``TestMemoFidelity``): a shared setup plus
#: (tenants, shards, memo_period) per config.
FIDELITY = dict(scheme="perspective", seed=0, placement="least-loaded",
                migrate_every=6, requests_per_tenant=24,
                profile_requests=2, mean_interarrival=20_000.0)
FIDELITY_CONFIGS = ((2, 1, 24), (4, 2, 6))


def serve_dense(config: ServeConfig, shards: list[ShardScheduler],
                quantum: float = 1000.0) -> Placer:
    """The dense reference for the engine's event loop
    (:func:`repro.serve.engine.serve_arrivals`): walk simulated time in
    ``quantum``-cycle ticks, hand each tick's arrivals to their shards,
    and poll every shard each tick.  Dispatch outcomes depend only on
    arrival order and queue state, never on when the host executes
    them, so the report is byte-identical to the event loop's for any
    quantum -- only the wall clock pays for every idle tick."""
    placer = Placer(config)
    stream = config.arrivals()
    pending = next(stream, None)
    now = 0.0
    while pending is not None:
        now += quantum
        while pending is not None and pending.cycle <= now:
            shard, migration = placer.route(pending)
            sched = shards[shard]
            if migration is not None:
                sched.note_migration(pending.tenant, migration.src)
            sched.offer(pending)
            pending = next(stream, None)
        for sched in shards:
            sched.drain_until(now)
    for sched in shards:
        sched.drain()
    return placer


def timed_serve(config: ServeConfig,
                loop: Callable[..., Placer] = serve_arrivals, *,
                block_cache: bool | None = True,
                memo_seed: list[dict] | None = None,
                **loop_args) -> tuple[ServeReport, float]:
    """Boot the shards, then run and time ``loop`` alone (boot and the
    placement pre-pass excluded); returns (report, loop wall seconds)."""
    shards = boot_shards(config, block_cache=block_cache,
                         memo_seed=memo_seed)
    start = time.perf_counter()
    placer = loop(config, shards, **loop_args)
    wall = time.perf_counter() - start
    return ServeReport.of(config, shards, placer), wall


def _event_vs_dense(reg: MetricsRegistry) -> float:
    config = ServeConfig(**SPARSE)
    # Warm-up run builds the memo tables; transplanting them into both
    # timed runs makes them interpretation-free, so the ratio below is
    # scheduler cost only (not JIT or interpreter noise).
    warm = run_serve(config, block_cache=True)
    tables = memo_tables_of(warm)
    event, event_s = timed_serve(config, memo_seed=tables)
    dense, dense_s = timed_serve(config, serve_dense, memo_seed=tables)
    assert event.as_dict() == dense.as_dict(), \
        "event-vs-dense: reports diverged"

    # The transplanted runs replay what the warm run interpreted, so
    # every *simulated* number matches; only the interpreted/replayed
    # bookkeeping moves.  Strip it before asserting.
    def sans_memo(report):
        out = report.as_dict()
        for d in [out] + out["shards"]:
            for key in ("memo_replays", "memo_interpreted"):
                d.pop(key, None)
        return out

    assert sans_memo(event) == sans_memo(warm), \
        "memo transplant changed the simulated report"
    reg.add("serve_scale.parity.event_dense")
    out = event.as_dict()
    for key in ("completed", "shed", "makespan_cycles", "kernel_cycles",
                "switches", "switch_cycles", "latency_p99",
                "memo_replays", "memo_interpreted"):
        reg.gauge(f"serve_scale.sparse.{key}", out[key])
    speedup = dense_s / event_s
    reg.meta["speedup_event_skip"] = f"{speedup:.1f}"
    reg.meta["wall_sparse_event_s"] = f"{event_s:.4f}"
    reg.meta["wall_sparse_dense_s"] = f"{dense_s:.4f}"
    print(f"{'event-vs-dense':<14} dense={dense_s:8.3f}s  "
          f"event={event_s:8.3f}s  speedup={speedup:.1f}x",
          file=sys.stderr)
    return speedup


def _million(reg: MetricsRegistry) -> None:
    config = ServeConfig(**MILLION)
    offered = config.tenants * config.requests_per_tenant
    start = time.perf_counter()
    report = run_serve(config, block_cache=True)
    wall = time.perf_counter() - start
    out = report.as_dict()
    assert out["completed"] + out["shed"] == offered, \
        (f"million: conservation broke "
         f"({out['completed']} + {out['shed']} != {offered})")
    reg.add("serve_scale.million.completed", out["completed"])
    reg.add("serve_scale.million.migrations", out["migrations"])
    for key in ("shed", "makespan_cycles", "kernel_cycles", "switches",
                "latency_p50", "latency_p99", "throughput_rps",
                "migration_excess_cycles", "memo_replays",
                "memo_interpreted"):
        reg.gauge(f"serve_scale.million.{key}", out[key])
    reg.meta["wall_million_s"] = f"{wall:.2f}"
    reg.meta["million_arrivals_per_wall_s"] = f"{offered / wall:.0f}"
    print(f"{'million':<14} {offered} arrivals in {wall:.2f}s wall "
          f"({offered / wall:,.0f}/s; completed={out['completed']} "
          f"migrations={out['migrations']} "
          f"interpreted={out['memo_interpreted']})", file=sys.stderr)


def _memo_fidelity(reg: MetricsRegistry) -> None:
    for tenants, shards, period in FIDELITY_CONFIGS:
        config = ServeConfig(**FIDELITY, tenants=tenants, shards=shards)
        full = run_serve(config, block_cache=True)
        memo = run_serve(replace(config, service_model="memo",
                                 memo_period=period), block_cache=True)
        name = f"serve_scale.memo_error.t{tenants}.s{shards}.p{period}"
        errors = []
        for key, metric in (
                ("kernel_cycles", lambda t: t.kernel_cycles),
                ("p50", lambda t: t.latency_percentile(50.0)),
                ("p99", lambda t: t.latency_percentile(99.0))):
            error = max(abs(metric(m) - metric(f)) / metric(f)
                        for f, m in zip(full.tenants, memo.tenants))
            reg.gauge(f"{name}.{key}", error)
            errors.append(f"{key}={error:.1%}")
        print(f"{'memo-fidelity':<14} tenants={tenants} shards={shards} "
              f"memo_period={period}: worst tenant "
              f"{' '.join(errors)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="snapshot path (default: stdout)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record speedups without enforcing floors")
    args = parser.parse_args(argv)

    reg = MetricsRegistry(meta={"bench": "serve_scale"})
    speedup = _event_vs_dense(reg)
    _million(reg)
    _memo_fidelity(reg)

    text = reg.to_json(indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"snapshot written to {args.output}", file=sys.stderr)
    else:
        print(text, end="")

    if not args.no_gate:
        assert speedup >= GATE_EVENT_SKIP, \
            (f"event-skip speedup {speedup:.1f}x under the "
             f"{GATE_EVENT_SKIP}x floor")
        print(f"gates passed: event-skip {speedup:.1f}x >= "
              f"{GATE_EVENT_SKIP}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
