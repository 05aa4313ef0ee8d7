"""Benchmark the parallel experiment engine against its one-worker path.

Runs the full table/figure suite (LEBench, applications, breakdown,
attack surface) three ways -- ``run_experiment``, engine with a cold
cache at ``--workers`` processes, engine again with a warm cache --
asserting byte parity between all three, and writes a diffgate-
compatible snapshot (``repro.obs.MetricsRegistry`` shape).  The
"serial" leg (``wall_serial_s``, ``speedup_*``) is ``run_experiment``:
the engine at one worker with the cache off; the name stays so the
committed snapshot's keys do not move:

* **counters/gauges** -- cell counts, cache traffic, parity flags, and
  headline simulated results.  Fully deterministic (the simulation is
  seeded), so CI byte-gates them with ``python -m repro.obs diff``
  against the committed ``benchmarks/out/BENCH_parallel_eval.json``.
* **meta** -- wall-clock seconds, speedups, worker/CPU counts.  Machine-
  dependent by nature, so it rides in ``meta``, which the diff gate
  deliberately skips: the committed numbers are a trajectory record, not
  a gate.  (Cold-cache pool speedup needs real cores; warm-cache replay
  is fast everywhere.)

Usage::

    python benchmarks/bench_parallel_eval.py -o out.json [--workers 4]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from typing import Any, Callable

from repro.exec import EngineConfig, ExperimentEngine, run_experiment
from repro.obs import MetricsRegistry

SUITE = ("lebench", "apps", "breakdown", "surface")


def _canon(result: Any) -> str:
    """Parity key: the result's fields as JSON, insertion order kept,
    without the breakdown's observability snapshot."""
    fields = dataclasses.asdict(result)
    fields.pop("metrics", None)
    return json.dumps(fields, sort_keys=False)


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="snapshot path (default: stdout)")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    reg = MetricsRegistry(meta={"bench": "parallel_eval"})

    serial: dict[str, str] = {}
    wall_serial = 0.0
    for name in SUITE:
        result, dt = _timed(lambda: run_experiment(name))
        serial[name] = _canon(result)
        wall_serial += dt
        print(f"serial   {name}: {dt:.2f}s", file=sys.stderr)

    cache_dir = tempfile.mkdtemp(prefix="bench-parallel-eval-")
    walls = {}
    for phase in ("cold", "warm"):
        engine = ExperimentEngine(EngineConfig(
            workers=args.workers, cache_dir=cache_dir))
        wall = 0.0
        for name in SUITE:
            (result, report), dt = _timed(lambda: engine.run(name))
            wall += dt
            print(f"{phase:<8} {name}: {dt:.2f}s ({report.summary()})",
                  file=sys.stderr)
            parity = serial[name] == _canon(result)
            assert parity, f"{phase} {name} diverged from serial"
            reg.add(f"parallel_eval.parity.{phase}.{name}")
            reg.add(f"parallel_eval.{phase}.executed", report.executed)
            reg.add(f"parallel_eval.{phase}.cache_hits",
                    report.cache_hits)
            reg.add(f"parallel_eval.{phase}.cache_misses",
                    report.cache_misses)
            if phase == "cold":
                reg.add(f"parallel_eval.cells.{name}",
                        report.cells_total)
        walls[phase] = wall

    # Headline simulated results: deterministic, so the gate catches any
    # drift in what the engine computes, not just how fast.
    lebench, _ = ExperimentEngine(EngineConfig(
        workers=1, cache_dir=cache_dir)).run("lebench")
    for scheme in lebench.schemes:
        if scheme != "unsafe":
            reg.gauge(f"parallel_eval.lebench.overhead_pct.{scheme}",
                      round(lebench.average_overhead_pct(scheme), 6))

    reg.meta.update({
        "workers": str(args.workers),
        "cpu_count": str(os.cpu_count() or 1),
        "wall_serial_s": f"{wall_serial:.2f}",
        "wall_cold_s": f"{walls['cold']:.2f}",
        "wall_warm_s": f"{walls['warm']:.2f}",
        "speedup_cold": f"{wall_serial / walls['cold']:.2f}",
        "speedup_warm": f"{wall_serial / walls['warm']:.2f}",
    })

    text = reg.to_json(indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"snapshot written to {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    print(f"speedup: cold {wall_serial / walls['cold']:.2f}x, "
          f"warm {wall_serial / walls['warm']:.2f}x "
          f"(workers={args.workers}, cpus={os.cpu_count()})",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
