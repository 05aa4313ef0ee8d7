"""Command-line entry point: regenerate the paper's full evaluation.

Usage::

    python -m repro              # full evaluation (~90 s on 2 cores)
    python -m repro --fast       # smoke params (~15 s)
    python -m repro -o report.txt

Writes every section of :data:`repro.eval.report.SECTIONS` (tables,
figures, the security matrix and the sensitivity analyses) to stdout
and, with ``-o``, to a file.
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate every table and figure of the Perspective "
                    "paper (ISCA 2024) from the Python reproduction.")
    parser.add_argument("--fast", action="store_true",
                        help="trimmed scheme lists / sample sizes")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="also write the report to FILE")
    args = parser.parse_args(argv)

    from repro.eval.report import run_full_evaluation

    started = time.time()
    print("Running the full evaluation"
          + (" (fast mode)" if args.fast else "") + "...", flush=True)
    artifacts = run_full_evaluation(fast=args.fast)
    report = artifacts.render()
    elapsed = time.time() - started
    report += f"\nGenerated in {elapsed:.0f}s by the Perspective " \
              "reproduction (see EXPERIMENTS.md for paper-vs-measured).\n"
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"report written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
