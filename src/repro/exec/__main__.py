"""CLI for the parallel experiment engine.

Examples::

    python -m repro.exec --list
    python -m repro.exec lebench --workers 4
    python -m repro.exec suite --workers 4 --cache-dir /tmp/exec-cache
    python -m repro.exec breakdown --no-cache --json
    python -m repro.exec --wipe-cache

The ``run_*`` functions of :mod:`repro.eval` are these same grids at one
worker with the cache off, so results are byte-identical to them at any
worker count, cold or warm cache; see docs/performance.md.

``snapshot NAME`` regenerates one committed JSON snapshot, a row of
:data:`repro.exec.snapshots.SNAPSHOTS`: the run's summary goes to
stderr, the text rendering to stdout, the JSON to ``-o`` and the row's
artifacts to ``--artifacts``; any failure the row defines is printed to
stderr and exits 1::

    python -m repro.exec snapshot serve_smoke --no-cache -o serve_smoke.json
    python -m repro.exec snapshot obs_slo_smoke --workers 4 --artifacts out/
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any

from repro.exec.engine import EngineConfig, ExperimentEngine
from repro.exec.grids import grid_names

#: The full table/figure suite (what benchmarks/bench_parallel_eval.py
#: measures): every perf-relevant grid of the evaluation chapters.
SUITE = ("lebench", "apps", "breakdown", "surface")


def _jsonable(obj: Any) -> Any:
    """``json.dumps`` fallback: dataclasses as their fields, bytes as
    hex."""
    if isinstance(obj, bytes):
        return obj.hex()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _describe(name: str, result: Any) -> list[str]:
    """A few headline numbers per experiment, for the human-readable
    default output."""
    lines: list[str] = []
    if name == "lebench":
        for scheme in result.schemes:
            if scheme == "unsafe":
                continue
            lines.append(f"  {scheme}: "
                         f"{result.average_overhead_pct(scheme):+.2f}% "
                         f"geomean LEBench overhead")
    elif name == "apps":
        for scheme in result.schemes:
            if scheme == "unsafe":
                continue
            pct = result.average_throughput_overhead_pct(scheme)
            lines.append(f"  {scheme}: {pct:+.2f}% mean throughput loss")
    elif name == "surface":
        for app in result.dynamic_isv_size:
            lines.append(
                f"  {app}: ISV {result.dynamic_isv_size[app]}"
                f"/{result.total_functions} functions "
                f"({100 * result.reduction(app, 'dynamic'):.1f}% cut)")
    elif name == "breakdown":
        for workload, per_scheme in result.isv_cache_hit_rate.items():
            rates = ", ".join(f"{s}={r:.3f}"
                              for s, r in per_scheme.items())
            lines.append(f"  {workload} ISV-cache hit rate: {rates}")
    elif name in ("sweep-branch", "sweep-rob"):
        for value, pct in result.overhead_pct.items():
            lines.append(f"  {result.parameter}={value}: {pct:+.2f}% "
                         f"({result.scheme})")
    elif name == "unknown-allocations":
        lines.append(f"  full: {result.overhead_full_pct:+.2f}%  "
                     f"unknown-allowed: "
                     f"{result.overhead_unknown_allowed_pct:+.2f}%  "
                     f"contribution: "
                     f"{result.unknown_contribution_pct:+.2f} pts")
    elif name == "slab-sensitivity":
        lines.append(f"  mean slab memory overhead: "
                     f"{result.average_memory_overhead_pct():.2f}%")
    elif name == "defense-matrix":
        from repro.eval.defense_matrix import render_table
        lines.extend("  " + line
                     for line in render_table(result).splitlines())
    return lines


def _engine_options() -> argparse.ArgumentParser:
    """The engine flags both commands take."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--workers", type=int, default=1, metavar="N",
                         help="process-pool width (default: 1, "
                              "in-process; same bytes either way)")
    options.add_argument("--no-cache", action="store_true",
                         help="bypass the result cache entirely")
    options.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cache root (default: $REPRO_EXEC_CACHE or "
                              "~/.cache/repro/exec)")
    return options


def _engine(args: argparse.Namespace) -> ExperimentEngine:
    return ExperimentEngine(EngineConfig(
        workers=max(1, args.workers), use_cache=not args.no_cache,
        cache_dir=args.cache_dir))


def _snapshot_command(argv: list[str]) -> int:
    from repro.exec.snapshots import SNAPSHOTS, publish

    parser = argparse.ArgumentParser(
        prog="python -m repro.exec snapshot", parents=[_engine_options()],
        description="Regenerate one committed snapshot, "
                    "benchmarks/out/NAME.json (exit 1 when the row's "
                    "failure check fires).")
    parser.add_argument("name", metavar="NAME", choices=sorted(SNAPSHOTS),
                        help=f"one of {', '.join(sorted(SNAPSHOTS))}")
    parser.add_argument("-o", "--out", metavar="FILE",
                        help="write the JSON snapshot to FILE")
    parser.add_argument("--artifacts", metavar="DIR",
                        help="write the row's artifacts to DIR")
    args = parser.parse_args(argv)
    row = SNAPSHOTS[args.name]
    if args.artifacts and row.artifacts is None:
        parser.error(f"{row.name} writes no artifacts")
    result, report = _engine(args).run(row.grid, row.params)
    print(report.summary(), file=sys.stderr)
    return publish(row, result, out=args.out, artifacts=args.artifacts)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["snapshot"]:
        return _snapshot_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec", parents=[_engine_options()],
        description="Run evaluation experiments on the parallel engine "
                    "with content-addressed result caching ('snapshot "
                    "NAME' regenerates a committed snapshot).")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (see --list), or 'suite' "
                             f"for {'+'.join(SUITE)}")
    parser.add_argument("--json", action="store_true",
                        help="print each result as JSON instead of the "
                             "headline summary")
    parser.add_argument("--list", action="store_true",
                        help="list known experiments and exit")
    parser.add_argument("--wipe-cache", action="store_true",
                        help="delete every cached result, then run any "
                             "named experiments")
    args = parser.parse_args(argv)

    if args.list:
        for name in grid_names():
            print(name)
        return 0

    engine = _engine(args)

    if args.wipe_cache:
        removed = engine.cache.wipe()
        print(f"wiped {removed} cached result"
              f"{'' if removed == 1 else 's'} from {engine.cache.root}")
        if not args.experiments:
            return 0

    if not args.experiments:
        parser.error("no experiments given (try --list or 'suite')")

    names: list[str] = []
    for name in args.experiments:
        names.extend(SUITE if name == "suite" else [name])
    known = set(grid_names())
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} "
                     f"(see --list)")

    for name in names:
        start = time.perf_counter()
        result, report = engine.run(name)
        elapsed = time.perf_counter() - start
        print(f"{report.summary()}, {elapsed:.2f}s")
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True,
                             default=_jsonable))
        else:
            for line in _describe(name, result):
                print(line)

    stats = engine.cache.stats
    if not args.no_cache:
        print(f"cache totals: {stats.hits} hit, {stats.misses} miss, "
              f"{stats.stores} stored at {engine.cache.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
