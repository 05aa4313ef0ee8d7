"""CLI entry point: ``python -m repro.serve``.

Conformance subcommand (the architectural oracle)::

    python -m repro.serve conformance --seeds 20     # seeds 0..19
    python -m repro.serve conformance --seeds 7,9    # exactly these
    python -m repro.serve conformance --cache-parity # both checks: also
                                    # block JIT replay must match
                                    # interpretation exactly

Campaign subcommand: the cells of the ``campaign_smoke`` snapshot run
through the reliability campaign runner, checkpointed in a journal, so a
run killed between cells resumes where it stopped and writes the same
bytes as an uninterrupted one (exit 1 on any leaked byte)::

    python -m repro.serve campaign --journal DIR -o campaign_smoke.json

The committed serve-plane snapshots (``serve_smoke``, ``serve_scale``,
``campaign_smoke``) regenerate with ``python -m repro.exec snapshot
NAME`` (:mod:`repro.exec.snapshots`).
"""

from __future__ import annotations

import argparse
import json
import sys


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_seeds(spec: str) -> list[int]:
    """``"20"`` -> seeds 0..19; ``"3,7,11"`` -> exactly those.  An empty
    corpus would pass vacuously, so it is rejected."""
    if "," in spec:
        seeds = [int(s) for s in spec.split(",") if s]
    else:
        seeds = list(range(int(spec)))
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"no seeds in {spec!r}: an empty corpus checks nothing")
    return seeds


def _conformance_command(args: argparse.Namespace) -> int:
    """The ``conformance`` grid at its defaults, overridden by the flags
    given (a flag not given is absent from ``args``)."""
    from repro.serve.conformance import run_corpus

    params = {key: value for key, value in vars(args).items()
              if key in ("seeds", "steps", "schemes", "cache_parity")}
    results = run_corpus(params, minimize=not args.no_minimize)
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
    if results[0].cache_parity:
        print(f"all {len(results)} seeds byte-identical (cycles included) "
              f"with the block cache on vs off across "
              f"{len(results[0].schemes)} schemes")
    else:
        print(f"all {len(results)} seeds architecturally conformant "
              f"across {len(results[0].schemes)} schemes")
    return 0


def _campaign_via_journal(args: argparse.Namespace,
                          params: dict) -> dict | None:
    """Run the ``campaign`` grid's cells through the reliability
    CampaignRunner.

    Each (seed, scenario) cell becomes one ``campaign@s{seed}.{scenario}``
    instance, a one-cell run of the same grid: subprocess-isolated,
    retried, and journaled -- kill the process between cells and the
    next invocation resumes where it stopped.  The grid's own
    ``assemble`` folds the journaled cell payloads, so the bytes equal
    an uninterrupted engine run.
    """
    import os
    import signal

    from repro.exec.grids import get_grid
    from repro.reliability.campaign import CampaignConfig, CampaignRunner

    grid = get_grid("campaign")
    instances = {
        f"campaign@s{cp['seed']}.{cp['scenario']}":
            {**params, "seeds": [cp["seed"]], "scenarios": [cp["scenario"]]}
        for _, cp in grid.cells(params)}
    config = CampaignConfig(
        seed=0, experiments=tuple(instances), params=instances,
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
    missing = [name for name in instances if name not in state.payloads]
    for name in missing:
        print(f"{name} failed: {state.failures.get(name, 'missing')}",
              file=sys.stderr)
    if missing:
        return None
    payloads: dict = {}
    for name in instances:
        payloads.update(state.cells(name))
    return grid.assemble(params, payloads)


def _campaign_command(args: argparse.Namespace) -> int:
    from repro.exec.snapshots import SNAPSHOTS, publish

    row = SNAPSHOTS["campaign_smoke"]
    result = _campaign_via_journal(args, row.resolve())
    if result is None:
        return 1
    return publish(row, result, out=args.out)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="conformance oracle and journaled serving campaign "
                    "(snapshots: python -m repro.exec snapshot NAME)")
    sub = parser.add_subparsers(dest="command", required=True)

    conf = sub.add_parser(
        "conformance",
        help="differential conformance: every scheme must agree on "
             "architectural results (exit 1 on divergence)")
    # The grid's parameters: a flag not given stays out of the
    # namespace, so the grid's default applies.
    conf.add_argument("--seeds", type=_parse_seeds,
                      default=argparse.SUPPRESS,
                      help="N for seeds 0..N-1, or a comma list (default: "
                           "the conformance grid's)")
    conf.add_argument("--steps", type=_positive_int,
                      default=argparse.SUPPRESS,
                      help="syscalls per generated trace (default: the "
                           "conformance grid's)")
    conf.add_argument("--schemes", type=lambda text: text.split(","),
                      default=argparse.SUPPRESS,
                      help="comma list (default: the conformance grid's)")
    conf.add_argument("--cache-parity", action="store_true",
                      default=argparse.SUPPRESS,
                      help="both checks: besides the cross-scheme "
                           "comparison, run each trace with the block "
                           "cache off and on and require identical "
                           "digests AND cycles")
    conf.add_argument("--no-minimize", action="store_true",
                      help="skip trace minimization on divergence")

    camp = sub.add_parser(
        "campaign",
        help="the campaign_smoke snapshot's cells through the reliability "
             "campaign runner: journaled, resumable after a kill (exit 1 "
             "on any leaked byte)")
    camp.add_argument("--journal", metavar="DIR", required=True,
                      help="checkpoint/resume journal directory")
    camp.add_argument("-o", "--out", metavar="FILE",
                      help="write the JSON metrics snapshot to FILE")
    camp.add_argument("--kill-after-cells", type=int, default=None,
                      help=argparse.SUPPRESS)  # crash-test hook
    return parser


_COMMANDS = {"conformance": _conformance_command,
             "campaign": _campaign_command}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
