"""CLI entry point: ``python -m repro.serve``.

Without a subcommand, runs the multi-tenant serving sweep (seeds x
tenant counts) through the :mod:`repro.exec` engine and emits the merged
metrics snapshot.  Everything derives from seeded schedules and simulated
cycles, so two invocations with the same arguments produce
**byte-identical** output regardless of ``--workers`` -- CI runs the
sweep at 1 and 4 workers under two hash seeds, byte-compares the files,
and gates the committed snapshot with ``python -m repro.obs diff``.

Usage::

    python -m repro.serve                  # default sweep, JSON summary
    python -m repro.serve --smoke          # trimmed CI sweep
    python -m repro.serve --workers 2      # parallel cells, same bytes
    python -m repro.serve -o snap.json     # write the metrics snapshot

Conformance subcommand (the architectural oracle)::

    python -m repro.serve conformance --seeds 20     # seeds 0..19
    python -m repro.serve conformance --seeds 7,9    # exactly these
    python -m repro.serve conformance --cache-parity # block JIT replay
                                    # must match interpretation exactly

Adversarial campaign subcommand (attacker tenants + fault storms +
adaptive hardening; same byte-determinism contract)::

    python -m repro.serve campaign --smoke           # CI campaign sweep
    python -m repro.serve campaign --smoke --workers 4
    python -m repro.serve campaign --journal DIR     # checkpoint/resume

Sharded scaling curves (scheme x tenants x shards through the
memoized multi-core engine; one ``repro.exec`` cell per shard)::

    python -m repro.serve scale                      # full scaling grid
    python -m repro.serve scale --smoke --workers 4  # trimmed, parallel
    python -m repro.serve scale --artifacts DIR      # + CSV curves
"""

from __future__ import annotations

import argparse
import json
import sys

#: Sweep parameter sets: (seeds, tenant counts, requests per tenant).
DEFAULT_SWEEP = {"seeds": [0, 1, 2], "tenants": [2, 3, 4],
                 "requests_per_tenant": 10}
SMOKE_SWEEP = {"seeds": [0, 1], "tenants": [2, 3],
               "requests_per_tenant": 6}

#: Scale sweeps (scheme x tenants x shards scaling curves); the full
#: grid is the committed benchmarks/out/serve_scale.json snapshot.
DEFAULT_SCALE = {"schemes": ["unsafe", "perspective"],
                 "tenants": [4, 8], "shards": [1, 2, 4]}
SMOKE_SCALE = {"schemes": ["perspective"], "tenants": [4],
               "shards": [1, 2], "requests_per_tenant": 200}

#: Campaign sweeps: (seeds x fault scenarios).
DEFAULT_CAMPAIGN = {"seeds": [0, 1],
                    "scenarios": ["none", "ibpb-storm", "refill-storm",
                                  "admission-storm", "combined-storm"]}
SMOKE_CAMPAIGN = {"seeds": [0],
                  "scenarios": ["none", "ibpb-storm", "refill-storm",
                                "admission-storm"]}


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.exec.engine import run_experiment
    from repro.obs import MetricsRegistry

    params = dict(SMOKE_SWEEP if args.smoke else DEFAULT_SWEEP)
    params["scheme"] = args.scheme
    params["shards"] = args.shards
    # Replay through the block JIT is byte-exact (cache-parity gate), so
    # forcing it on changes only the snapshot's blockcache counters --
    # never the report -- and the smoke gates the miss-reason split.
    params["block_cache"] = True
    from repro.obs import observing
    outer = MetricsRegistry()
    with observing(outer):
        result, report = run_experiment(
            "serve", params, workers=args.workers,
            use_cache=not args.no_cache)
    print(report.summary(), file=sys.stderr)

    registry = MetricsRegistry.from_snapshot(result["metrics"])
    # Result-cache traffic (repro.exec.cache) is observed in the driver
    # process, not inside cell registries; fold it into the snapshot so
    # the committed smoke documents the counters.  Under --no-cache (the
    # CI invocation) they are deterministic zeros.
    outer_counters = outer.snapshot()["counters"]
    for key in ("exec.cache.hits", "exec.cache.misses",
                "exec.cache.stores"):
        registry.add(key, outer_counters.get(key, 0))
    registry.meta.update({
        "plane": "repro.serve",
        "sweep": "smoke" if args.smoke else "default",
        "scheme": args.scheme,
        "seeds": params["seeds"], "tenants": params["tenants"],
        "requests_per_tenant": params["requests_per_tenant"],
        "shards": params["shards"],
    })
    rendered_json = registry.to_json(indent=1) + "\n"
    if args.json:
        print(rendered_json, end="")
    else:
        for cell in result["cells"]:
            cfg = cell["config"]
            print(f"seed={cfg['seed']} tenants={cfg['tenants']} "
                  f"scheme={cfg['scheme']}: "
                  f"completed={cell['completed']} shed={cell['shed']} "
                  f"p50={cell['latency_p50']:.0f} "
                  f"p99={cell['latency_p99']:.0f} "
                  f"rps={cell['throughput_rps']:.0f}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered_json)
        print(f"snapshot written to {args.out}", file=sys.stderr)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_seeds(spec: str) -> list[int]:
    """``"20"`` -> seeds 0..19; ``"3,7,11"`` -> exactly those."""
    if "," in spec:
        return [int(s) for s in spec.split(",") if s]
    return list(range(int(spec)))


def _cache_parity_command(args: argparse.Namespace,
                          seeds: list[int],
                          schemes: tuple[str, ...]) -> int:
    from repro.serve.conformance import run_cache_parity_corpus

    results = run_cache_parity_corpus(seeds, schemes=schemes,
                                      steps=args.steps)
    divergent = [r for r in results if not r.ok]
    for r in results:
        cycles = {s: round(d["cycles"]) for s, d in r.digests.items()}
        status = "ok" if r.ok else "DIVERGENT"
        print(f"seed {r.seed}: {status}  cycles={json.dumps(cycles)}")
    if divergent:
        for r in divergent:
            print()
            print(r.repro())
        print(f"\n{len(divergent)}/{len(results)} seeds diverged "
              "between block-cache replay and interpretation",
              file=sys.stderr)
        return 1
    print(f"all {len(results)} seeds byte-identical (cycles included) "
          f"with the block cache on vs off across {len(schemes)} schemes")
    return 0


def _conformance_command(args: argparse.Namespace) -> int:
    from repro.serve.conformance import CONFORMANCE_SCHEMES, run_corpus

    seeds = _parse_seeds(args.seeds)
    schemes = tuple(args.schemes.split(",")) if args.schemes \
        else CONFORMANCE_SCHEMES
    if args.cache_parity:
        return _cache_parity_command(args, seeds, schemes)
    results = run_corpus(seeds, schemes=schemes, steps=args.steps,
                         minimize=not args.no_minimize)
    divergent = [r for r in results if not r.ok]
    for r in results:
        cycles = {s: round(d["cycles"]) for s, d in r.digests.items()}
        status = "ok" if r.ok else "DIVERGENT"
        print(f"seed {r.seed}: {status}  cycles={json.dumps(cycles)}")
    if divergent:
        for r in divergent:
            print()
            print(r.repro())
        print(f"\n{len(divergent)}/{len(results)} seeds diverged",
              file=sys.stderr)
        return 1
    print(f"all {len(results)} seeds architecturally conformant across "
          f"{len(schemes)} schemes")
    return 0


#: Scaling-row fields published as per-experiment gauges (and CSV
#: columns): all pure functions of the config, so the snapshot is
#: byte-exact across workers and hash seeds.
_SCALE_FIELDS = (
    "offered", "completed", "shed", "makespan_cycles", "throughput_rps",
    "latency_p50", "latency_p99", "kernel_cycles", "switches",
    "switch_cycles", "migrations_in", "ibpb_flushes",
    "migration_cold_dispatches", "migration_excess_cycles", "memo_keys",
    "memo_replays", "memo_interpreted")


def _scale_command(args: argparse.Namespace) -> int:
    from repro.exec.engine import run_experiment
    from repro.obs import MetricsRegistry

    params = dict(SMOKE_SCALE if args.smoke else DEFAULT_SCALE)
    result, report = run_experiment(
        "serve-scale", params, workers=args.workers,
        use_cache=not args.no_cache)
    print(report.summary(), file=sys.stderr)

    registry = MetricsRegistry()
    for row in result["experiments"]:
        prefix = (f"serve_scale.{row['scheme']}"
                  f".t{row['tenants']}.sh{row['shards']}")
        for fname in _SCALE_FIELDS:
            registry.gauge(f"{prefix}.{fname}", row[fname])
    registry.meta.update({
        "plane": "repro.serve.scale",
        "sweep": "smoke" if args.smoke else "default",
        "schemes": params["schemes"], "tenants": params["tenants"],
        "shards": params["shards"],
    })
    rendered_json = registry.to_json(indent=1) + "\n"
    if args.json:
        print(rendered_json, end="")
    else:
        for row in result["experiments"]:
            print(f"scheme={row['scheme']} tenants={row['tenants']} "
                  f"shards={row['shards']}: "
                  f"completed={row['completed']} shed={row['shed']} "
                  f"rps={row['throughput_rps']:.0f} "
                  f"p99={row['latency_p99']:.0f} "
                  f"migrations={row['migrations_in']} "
                  f"excess={row['migration_excess_cycles']:.0f}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered_json)
        print(f"snapshot written to {args.out}", file=sys.stderr)
    if args.artifacts:
        import pathlib
        outdir = pathlib.Path(args.artifacts)
        outdir.mkdir(parents=True, exist_ok=True)
        lines = ["scheme,tenants,shards," + ",".join(_SCALE_FIELDS)]
        for row in result["experiments"]:
            lines.append(",".join(
                [row["scheme"], str(row["tenants"]), str(row["shards"])]
                + [repr(row[fname]) for fname in _SCALE_FIELDS]))
        curves = outdir / "serve_scale_curves.csv"
        curves.write_text("\n".join(lines) + "\n")
        print(f"artifacts written to {outdir}", file=sys.stderr)
    return 0


def _campaign_cells_in_order(params: dict) -> list[tuple[int, str]]:
    return [(seed, scenario) for seed in params["seeds"]
            for scenario in params["scenarios"]]


def _campaign_via_journal(args: argparse.Namespace,
                          params: dict) -> dict | None:
    """Run the sweep's cells through the reliability CampaignRunner.

    Each (seed, scenario) cell becomes one ``serve-campaign@...``
    instance: subprocess-isolated, retried, and journaled -- kill the
    process between cells and the next invocation resumes where it
    stopped, assembling the same bytes as an uninterrupted run.
    """
    import os
    import signal

    from repro.obs import MetricsRegistry
    from repro.reliability.campaign import CampaignConfig, CampaignRunner

    instances = []
    cell_params: dict[str, dict] = {}
    for seed, scenario in _campaign_cells_in_order(params):
        name = f"serve-campaign@s{seed}.{scenario}"
        instances.append(name)
        cell_params[name] = {"seed": seed, "scenario": scenario,
                             "observe": True}
    config = CampaignConfig(
        seed=0, experiments=tuple(instances), params=cell_params,
        max_attempts=2, timeout_s=600.0, backoff_base_s=0.05)

    started = {"count": 0}

    def on_start(name: str) -> None:
        kill_after = args.kill_after_cells
        if kill_after is not None and started["count"] >= kill_after:
            # Simulate a hard crash between cells: no cleanup, no
            # journal flush beyond what's already on disk.
            os.kill(os.getpid(), signal.SIGKILL)
        started["count"] += 1

    runner = CampaignRunner(args.journal, config,
                            on_experiment_start=on_start)
    state = runner.run()
    cells = []
    merged = None
    for name in instances:
        payload = state.payloads.get(name)
        if payload is None:
            print(f"{name} failed: "
                  f"{state.failures.get(name, 'missing')}",
                  file=sys.stderr)
            return None
        cell = dict(payload)
        part = MetricsRegistry.from_snapshot(cell.pop("metrics"))
        if merged is None:
            merged = part
        else:
            merged.merge(part)
        cells.append(cell)
    assert merged is not None
    return {"cells": cells, "metrics": merged.snapshot()}


def _campaign_command(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry

    params = dict(SMOKE_CAMPAIGN if args.smoke else DEFAULT_CAMPAIGN)
    params["observe"] = True
    if args.journal:
        result = _campaign_via_journal(args, params)
        if result is None:
            return 1
    else:
        from repro.exec.engine import run_experiment
        result, report = run_experiment(
            "campaign", params, workers=args.workers,
            use_cache=not args.no_cache)
        print(report.summary(), file=sys.stderr)

    registry = MetricsRegistry.from_snapshot(result["metrics"])
    registry.meta.update({
        "plane": "repro.serve.campaign",
        "sweep": "smoke" if args.smoke else "default",
        "seeds": params["seeds"], "scenarios": params["scenarios"],
    })
    rendered_json = registry.to_json(indent=1) + "\n"
    if args.json:
        print(rendered_json, end="")
    else:
        for cell in result["cells"]:
            spec = cell["spec"]
            leaks = cell["leaks"]
            slo = cell["slo"]
            escalations = sum(1 for s in cell["escalation_steps"]
                              if s["action"] == "escalate")
            recovery = slo["recovery_cycles"]
            recovery_txt = (f"{recovery:.0f}"
                            if recovery is not None else "-")
            print(f"seed={spec['seed']} scenario={spec['scenario']}: "
                  f"completed={cell['completed']} shed={cell['shed']} "
                  f"blocked={leaks['blocked_bytes']}"
                  f"/{leaks['attempted_bytes']} "
                  f"escalations={escalations} "
                  f"p99={cell['latency_p99']:.0f} "
                  f"recovery={recovery_txt} "
                  f"secret_intact={cell['secret']['intact']}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered_json)
        print(f"snapshot written to {args.out}", file=sys.stderr)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(result["cells"], handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report}", file=sys.stderr)
    if args.artifacts:
        import pathlib

        from repro.obs.profile import SpanTree
        outdir = pathlib.Path(args.artifacts)
        outdir.mkdir(parents=True, exist_ok=True)
        folded = outdir / "campaign_spans.folded"
        folded.write_text(SpanTree.from_spans(
            registry.snapshot()["spans"]).to_folded())
        print(f"artifacts written to {outdir}", file=sys.stderr)
    # Fail-closed gate: a campaign run that leaked even one byte, or
    # whose planted secret moved, is a red exit for CI.
    for cell in result["cells"]:
        if cell["leaks"]["leaked_bytes"] or not cell["secret"]["intact"]:
            print("LEAK DETECTED: campaign cell "
                  f"s{cell['spec']['seed']}.{cell['spec']['scenario']}",
                  file=sys.stderr)
            return 1
    return 0


def _subcommand_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="multi-tenant traffic simulator and conformance oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    conf = sub.add_parser(
        "conformance",
        help="differential conformance: every scheme must agree on "
             "architectural results (exit 1 on divergence)")
    conf.add_argument("--seeds", default="20",
                      help="N for seeds 0..N-1, or a comma list (default: "
                           "20)")
    conf.add_argument("--steps", type=int, default=14,
                      help="syscalls per generated trace")
    conf.add_argument("--schemes", default="",
                      help="comma list (default: the conformance set)")
    conf.add_argument("--no-minimize", action="store_true",
                      help="skip trace minimization on divergence")
    conf.add_argument("--cache-parity", action="store_true",
                      help="instead of cross-scheme comparison, run each "
                           "trace with the block cache off and on and "
                           "require identical digests AND cycles")

    camp = sub.add_parser(
        "campaign",
        help="adversarial serving campaign: attacker tenants, fault "
             "storms, adaptive Perspective hardening (exit 1 on any "
             "leaked byte)")
    camp.add_argument("--smoke", action="store_true",
                      help="trimmed CI sweep (1 seed x 4 scenarios)")
    camp.add_argument("--workers", type=int, default=1,
                      help="parallel cell workers (same bytes either way)")
    camp.add_argument("--no-cache", action="store_true",
                      help="bypass the repro.exec result cache")
    camp.add_argument("--json", action="store_true",
                      help="print the JSON snapshot instead of per-cell "
                           "summary lines")
    camp.add_argument("-o", "--out", metavar="FILE",
                      help="write the JSON metrics snapshot to FILE")
    camp.add_argument("--report", metavar="FILE",
                      help="write the full per-cell campaign reports")
    camp.add_argument("--journal", metavar="DIR",
                      help="run cells through the reliability campaign "
                           "runner (checkpoint/resume journal in DIR)")
    camp.add_argument("--artifacts", metavar="DIR",
                      help="write CI artifacts (folded flamegraph "
                           "stacks) to DIR")
    camp.add_argument("--kill-after-cells", type=int, default=None,
                      help=argparse.SUPPRESS)  # crash-test hook

    scale = sub.add_parser(
        "scale",
        help="sharded scaling curves: scheme x tenants x shards through "
             "the memoized multi-core engine (one repro.exec cell per "
             "shard; byte-identical under any --workers)")
    scale.add_argument("--smoke", action="store_true",
                       help="trimmed sweep (1 scheme x 1 tenant count "
                            "x 2 shard counts)")
    scale.add_argument("--workers", type=int, default=1,
                       help="parallel shard-cell workers (same bytes "
                            "either way)")
    scale.add_argument("--no-cache", action="store_true",
                       help="bypass the repro.exec result cache")
    scale.add_argument("--json", action="store_true",
                       help="print the JSON snapshot instead of per-row "
                            "summary lines")
    scale.add_argument("-o", "--out", metavar="FILE",
                       help="write the JSON gauge snapshot to FILE")
    scale.add_argument("--artifacts", metavar="DIR",
                       help="write scaling-curve CSV artifacts to DIR")
    return parser


_COMMANDS = {"conformance": _conformance_command,
             "campaign": _campaign_command,
             "scale": _scale_command}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = _subcommand_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="run the multi-tenant serving sweep and emit the "
                    "metrics snapshot (subcommands: conformance)")
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed CI sweep (2 seeds x 2 tenant counts)")
    parser.add_argument("--scheme", default="perspective",
                        help="defense scheme to serve under")
    parser.add_argument("--shards", type=_positive_int, default=1,
                        help="simulated cores per cell (tenants placed "
                             "by the hash policy; default 1)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel cell workers (same bytes either way)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the repro.exec result cache")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON snapshot instead of the "
                             "per-cell summary lines")
    parser.add_argument("-o", "--out", metavar="FILE",
                        help="write the JSON metrics snapshot to FILE")
    args = parser.parse_args(argv)
    return _run_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
