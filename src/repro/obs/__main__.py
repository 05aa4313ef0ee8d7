"""CLI entry point: ``python -m repro.obs``, the speculation-forensics
toolbox.

Usage::

    python -m repro.obs events --attack spectre-rsb-passive \\
        --scheme perspective --jsonl run.jsonl
    python -m repro.obs events --input run.jsonl --tenant 2 \\
        --since-cycle 1e4 --until-cycle 5e4   # filter a saved journal
    python -m repro.obs profile -o outdir/   # the obs-matrix grid's pair
    python -m repro.obs profile --workload httpd \\
        --base perspective-static --scheme perspective -o outdir/
    python -m repro.obs diff baseline.json current.json  # exit 1 on drift

The committed observability snapshots (``obs_smoke``, the workload
matrix's metrics, and ``obs_slo_smoke``, the serve-plane dashboard)
regenerate with ``python -m repro.exec snapshot NAME``
(:mod:`repro.exec.snapshots`).
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def _events_command(args: argparse.Namespace) -> int:
    """Journal one PoC attack run (or load a saved JSONL journal) and
    print the forensics digest, optionally narrowed by tenant/cycle."""
    from repro.obs.events import EventJournal

    if args.input:
        journal = EventJournal.from_jsonl(
            pathlib.Path(args.input).read_text(),
            capacity=args.capacity, meta={"source": args.input})
        result = None
    else:
        from repro.attacks.harness import ATTACKS, run_attack
        from repro.obs.instruments import instrumented
        if args.attack not in ATTACKS:
            print(f"unknown attack {args.attack!r}; one of "
                  f"{', '.join(sorted(ATTACKS))}", file=sys.stderr)
            return 2
        journal = EventJournal(capacity=args.capacity, meta={
            "attack": args.attack, "scheme": args.scheme})
        with instrumented(journal=journal):
            result = run_attack(args.attack, args.scheme)
    if (args.tenant is not None or args.since_cycle is not None
            or args.until_cycle is not None):
        filtered = journal.query(context=args.tenant,
                                 since=args.since_cycle,
                                 until=args.until_cycle)
        meta = dict(journal.meta)
        for key, value in (("tenant", args.tenant),
                           ("since_cycle", args.since_cycle),
                           ("until_cycle", args.until_cycle)):
            if value is not None:
                meta[f"filter.{key}"] = value
        journal = EventJournal.from_events(filtered,
                                           capacity=args.capacity,
                                           meta=meta)
    print(journal.summary())
    if result is not None:
        print(f"attack outcome: leaked={result.leaked!r}")
    if args.jsonl:
        pathlib.Path(args.jsonl).write_text(journal.to_jsonl())
        print(f"journal written to {args.jsonl}", file=sys.stderr)
    return 0


def _profile_command(args: argparse.Namespace) -> int:
    """Differential profile: one workload, two schemes, one table.  A
    flag not given takes the ``obs-matrix`` grid's value: its first
    workload, and its first and second scheme."""
    from repro.exec.grids import get_grid
    from repro.obs.profile import diff_workload

    row = get_grid("obs-matrix").defaults()
    try:
        diff = diff_workload(args.workload or row["workloads"][0],
                             args.base or row["schemes"][0],
                             args.scheme or row["schemes"][1],
                             requests=args.requests)
    except ValueError as exc:  # e.g. --base equal to --scheme
        print(exc, file=sys.stderr)
        return 2
    print(diff.render(top=args.top), end="")
    if args.out:
        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for run in (diff.base, diff.scheme):
            tree = run.tree()
            folded = outdir / f"profile_{run.label}.folded"
            trace = outdir / f"profile_{run.label}.trace.json"
            folded.write_text(tree.to_folded())
            trace.write_text(tree.to_chrome_trace_json())
            print(f"wrote {folded} and {trace}", file=sys.stderr)
    return 0


def _diff_command(args: argparse.Namespace) -> int:
    """Regression gate: nonzero exit when current drifts from baseline."""
    from repro.obs.diffgate import gate_files

    report = gate_files(args.baseline, args.current)
    print(report.render(), end="")
    return 0 if report.ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="speculation-forensics toolbox: security-event "
                    "journal, differential profiler, metric diff gate")
    sub = parser.add_subparsers(dest="command", required=True)

    events = sub.add_parser(
        "events", help="journal a PoC attack run's security events "
                       "(or filter a saved JSONL journal)")
    events.add_argument("--attack", default="spectre-rsb-passive")
    events.add_argument("--scheme", default="perspective")
    events.add_argument("--capacity", type=int, default=65_536)
    events.add_argument("--jsonl", metavar="FILE",
                        help="write the journal as JSON lines")
    events.add_argument("--input", metavar="FILE",
                        help="load a saved JSONL journal instead of "
                             "running an attack")
    events.add_argument("--tenant", type=int, default=None,
                        help="keep only events of this context/tenant id")
    events.add_argument("--since-cycle", type=float, default=None,
                        help="keep only events at/after this cycle stamp")
    events.add_argument("--until-cycle", type=float, default=None,
                        help="keep only events at/before this cycle stamp")

    profile = sub.add_parser(
        "profile", help="diff one workload under two schemes")
    profile.add_argument("--workload",
                         help="default: the obs-matrix grid's first "
                              "workload")
    profile.add_argument("--base",
                         help="baseline scheme (default: the obs-matrix "
                              "grid's first scheme)")
    profile.add_argument("--scheme",
                         help="default: the obs-matrix grid's second "
                              "scheme")
    profile.add_argument("--requests", type=int, default=None,
                         help="requests per app-workload run (default: "
                              "the obs-matrix grid's)")
    profile.add_argument("--top", type=int, default=0,
                         help="table rows to show (0: all)")
    profile.add_argument("-o", "--out", metavar="DIR",
                         help="write folded stacks + Chrome traces here")

    diff = sub.add_parser(
        "diff", help="gate a snapshot against a baseline (exit 1 on "
                     "regression)")
    diff.add_argument("baseline", help="baseline snapshot JSON")
    diff.add_argument("current", help="current snapshot JSON")
    return parser


_COMMANDS = {"events": _events_command, "profile": _profile_command,
             "diff": _diff_command}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
