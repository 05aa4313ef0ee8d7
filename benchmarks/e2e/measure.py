"""One workload, measured in this process: set-up, timed reps, checks.

``measure`` is what a benchmark child process runs, and what the
self-test calls directly with a reduced size table.  It returns a
JSON-able payload; ``run.py`` turns payloads into metrics.

Each rep is timed in wall and CPU seconds, and bracketed by runs of
``calibration.calibrate`` just before and just after it, so that a rep's
cost can be read relative to how fast the host ran Python at the time.
"""

from __future__ import annotations

import gc
import resource
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

import calibration
import hosttrace
import workloads

def measure(name: str, seed: int, seconds: float, *,
            sizes: dict | None = None, t0: float | None = None,
            trace: bool = False, checks: bool = True,
            out_dir: Path | None = None) -> dict[str, Any]:
    """Set up ``name``, time reps for ``seconds`` (at least one rep),
    then run its checks.

    ``t0`` is when set-up started (a child passes its own start time, so
    ``setup_s`` includes interpreter start-up and ``import repro``).
    With ``trace`` the host-time tracer is installed before anything is
    booted and uninstalled on return; ``out_dir`` then receives the
    folded stacks and Chrome trace.
    """
    t0 = perf_counter() if t0 is None else t0
    workload = workloads.make(name, seed, sizes)
    tracer = None
    if trace:
        tracer = hosttrace.Tracer()
        hosttrace.install(tracer, workload.op_hooks())
    try:
        return _measure(workload, seconds, t0, tracer, checks, out_dir)
    finally:
        if tracer is not None:
            hosttrace.uninstall(tracer)


def _measure(workload, seconds, t0, tracer, checks, out_dir):
    workload.setup()
    payload: dict[str, Any] = {"workload": workload.name,
                               "seed": workload.seed,
                               "setup_s": perf_counter() - t0}
    workload.queue_waits.clear()
    counters: Counter = Counter()
    reps = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        workload.maintain()
        # The last rep's kernels are garbage now; free them before timing
        # so neither rep time nor peak RSS depends on collector timing.
        gc.collect()
        reps.append(_rep(workload, tracer, counters))
        if len(reps) == 1:
            # Read after a fixed amount of work: how many reps fit in the
            # window depends on the host, and LEBench kernels grow with
            # every suite.  The calibration buffer is not the program's.
            payload["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 \
                - calibration.buffer_mb()
    payload["reps"] = reps
    reference = workload.reference() or reps[0]["digest"]
    payload["failed_reps"] = sum(r["digest"] != reference for r in reps)
    if tracer:
        payload["layers"] = _layer_metrics(tracer, workload, counters,
                                           reps)
        if out_dir is not None:
            tracer.write(out_dir, f"{workload.name}.seed{workload.seed}")
    payload["checks"] = workload.checks() if checks else []
    return payload


def _rep(workload, tracer, counters: Counter) -> dict[str, Any]:
    """Time one rep between two calibrations; a traced run also charges
    the rep to the ``rep`` root and adds its counter deltas."""
    before = [(k, _kernel_counters(k)) for k in workload.live_kernels()] \
        if tracer else []
    calibration_s = calibration.calibrate()
    if tracer:
        tracer.enter("rep")
    began, began_cpu = perf_counter(), process_time()
    rep = workload.rep()
    wall, cpu = perf_counter() - began, process_time() - began_cpu
    if tracer:
        tracer.enter("setup")
        _accumulate(counters, rep, before)
    calibration_s = (calibration_s + calibration.calibrate()) / 2
    return {"wall": wall, "cpu": cpu, "calibration_s": calibration_s,
            "ops": rep.ops, "sim_cycles": rep.sim_cycles,
            "cycles_per_op": rep.cycles_per_op,
            "p50": workloads.percentile(rep.latencies, 50.0),
            "p99": workloads.percentile(rep.latencies, 99.0),
            "digest": rep.digest}


# ---------------------------------------------------------------------------
# Traced run: layer counters
# ---------------------------------------------------------------------------


def _kernel_counters(kernel) -> dict[str, float]:
    """Cumulative counters of one kernel, from its public stats objects."""
    pipe = kernel.pipeline
    out = {"syscalls": kernel.syscall_count,
           "l1d.hits": pipe.hierarchy.l1d.stats.hits,
           "l1d.misses": pipe.hierarchy.l1d.stats.misses,
           "tlb.hits": pipe.tlb.stats.hits,
           "tlb.misses": pipe.tlb.stats.misses}
    bc = pipe._blockcache
    if bc is not None:
        out.update({"bc.hits": bc.hits, "bc.misses": bc.misses,
                    "bc.spec_guard": bc.miss_reasons.get("spec-guard", 0)})
    framework = getattr(pipe.policy, "framework", None)
    if framework is not None:
        for name in ("isv", "dsv"):
            stats = getattr(framework, f"{name}_cache").stats
            out[f"{name}.hits"] = stats.hits
            out[f"{name}.misses"] = stats.misses
        out["isv.pages"] = sum(
            framework.isv_pages_for(ctx).stats.populated_pages
            for ctx in framework.contexts_with_isvs())
    return out


def _accumulate(acc: Counter, rep, before: list[tuple]) -> None:
    """Add one rep's counter deltas (fresh kernels start from zero)."""
    for kernel in rep.kernels:
        acc.update(_kernel_counters(kernel))
        acc.subtract(next((b for k, b in before if k is kernel), {}))
    for result in rep.execs:
        for key in ("committed_ops", "speculative_loads", "mispredictions",
                    "indirect_mispredictions", "transient_loads_executed",
                    "transient_loads_blocked"):
            acc[key] += getattr(result, key)
        acc["fenced"] += result.total_fenced
    for key in ("memo_replays", "memo_interpreted", "migrations"):
        acc[key] += getattr(rep, key)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer, workload, acc: Counter,
                   reps: list[dict]) -> dict[str, Any]:
    """Per-layer metrics of a traced run, each per timed rep."""
    n = len(reps)
    totals = tracer.layer_totals("rep")
    root = tracer.roots["rep"].total_s()
    out: dict[str, Any] = {}
    for layer, row in totals.items():
        out[f"{layer}.self_s"] = row["self_s"] / n
        out[f"{layer}.share"] = _ratio(row["self_s"], root)
        out[f"{layer}.calls"] = row["calls"] / n

    def hit_ratio(prefix: str, hit: str = "hits", miss: str = "misses"):
        hits = acc[f"{prefix}{hit}"]
        return _ratio(hits, hits + acc[f"{prefix}{miss}"])

    out.update({
        "cpu.blockcache.hit_ratio": hit_ratio("bc."),
        "cpu.blockcache.spec_guard_share": _ratio(acc["bc.spec_guard"],
                                                  acc["bc.misses"]),
        # Compilation happens mostly during set-up: whole run, not per rep.
        "cpu.blockcache.compile_s": sum(
            v for (_, key), v in tracer.inclusive.items()
            if key == "compile"),
        "cpu.blockcache.replay_s":
            tracer.inclusive.get(("rep", "replay"), 0.0) / n,
        "defenses.block_ratio": _ratio(
            acc["fenced"], acc["speculative_loads"]
            + acc["transient_loads_executed"]
            + acc["transient_loads_blocked"]),
        "core.isv_cache.hit_ratio": hit_ratio("isv."),
        "core.dsv_cache.hit_ratio": hit_ratio("dsv."),
        "core.isv_pages.populated": acc["isv.pages"] / n,
        "cpu.cache.l1d.hit_ratio": hit_ratio("l1d."),
        "cpu.memsys.tlb.hit_ratio": hit_ratio("tlb."),
        "cpu.branch.mispredict_ratio": _ratio(
            acc["mispredictions"] + acc["indirect_mispredictions"],
            acc["committed_ops"]),
        "serve.memo.replay_ratio": hit_ratio(
            "memo_", hit="replays", miss="interpreted"),
        "serve.migrations": acc["migrations"] / n,
        "serve.queue_wait_p99_cycles": workloads.percentile(
            sorted(workload.queue_waits), 99.0),
        "kernel.syscalls": acc["syscalls"] / n,
    })
    walls = sum(r["wall"] for r in reps)
    return {"metrics": out,
            "sum_error": abs(sum(row["self_s"] for row in totals.values())
                             - walls) / walls}
