"""The cross-paper defense-comparison matrix.

One table no single paper has: every registered defense scheme held to

* the **conformance oracle** -- architectural digests equal to the
  unsafe baseline across the seeded trace corpus (cycles exempt), and
  equal DSV views among the Perspective flavors;
* the **attack matrix** -- the full active/passive PoC suite from
  Chapter 8;
* the **overhead columns** -- LEBench geomean overhead and fences per
  kilo-instruction, measured in the same environments as Figure 9.2.

The grid (``defense-matrix`` in :mod:`repro.exec.grids`) owns no cells:
it runs the ``conformance`` grid's cells (one per seed), the
``security`` grid's (one per attack and scheme) and the ``lebench``
grid's (one per scheme) for the matrix's schemes, so the parallel engine
runs it with byte-exact worker parity, and CI diff-gates the assembled
``benchmarks/out/defense_matrix.json`` snapshot.

CLI::

    python -m repro.eval.defense_matrix -o defense_matrix.json
    python -m repro.eval.defense_matrix --workers 4 --no-cache
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.eval.metrics import geomean
from repro.serve.conformance import CONFORMANCE_SCHEMES

#: The eight columns of the cross-paper table: both fencing extremes,
#: taint tracking, the shadow-structure family, memory tagging, the
#: deployed-software point, and the hardened Perspective flavor.
MATRIX_SCHEMES = CONFORMANCE_SCHEMES

#: PoCs grouped the way the paper's matrices slice them.  The eIBRS
#: baseline check is a control (blocked even on unsafe hardware), so it
#: is excluded from the leak counts.
ACTIVE_ATTACKS = ("spectre-v1-active", "spectre-v2-active",
                  "ebpf-injection")
PASSIVE_ATTACKS = ("spectre-v2-passive", "retbleed-passive",
                   "spectre-rsb-passive", "bhi-passive")
BASELINE_CHECKS = ("spectre-v2-vs-eibrs",)


#: The grids whose cells make up the matrix, with the matrix parameters
#: each one takes (the rest are the grid's defaults).
PARTS = {"conformance": ("schemes", "seeds", "steps", "tenants"),
         "security": ("schemes",),
         "lebench": ("schemes", "rare_every")}


def part_params(params: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Each part grid's resolved parameters for the matrix's ``params``."""
    from repro.exec.grids import get_grid
    return {name: get_grid(name).resolve(
                {key: params[key] for key in keys if key in params})
            for name, keys in PARTS.items()}


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def assemble_matrix(params: dict[str, Any],
                    payloads: dict[tuple, Any]) -> dict[str, Any]:
    """Fold the cell payloads into the cross-paper table.

    Pure JSON folds in declared cell order, so the output is
    byte-identical at any worker count; every float is rounded once,
    here, so the snapshot is stable.
    """
    schemes = list(params["schemes"])
    seeds = list(params["seeds"])
    table: dict[str, Any] = {
        "schemes": schemes,
        "conformance_seeds": len(seeds),
        "conformance": {},
        "attacks": {},
        "security": {},
        "performance": {},
    }

    from repro.exec.grids import get_grid
    parts = part_params(params)

    def assembled(name: str) -> Any:
        return get_grid(name).assemble(parts[name], {
            key[1:]: payload for key, payload in payloads.items()
            if key[0] == name})

    corpus = assembled("conformance")
    for scheme in schemes:
        diverging = [r.seed for r in corpus if scheme in r.divergences]
        table["conformance"][scheme] = {
            "ok": not diverging,
            "diverging_seeds": diverging,
            "corpus_fenced_loads": sum(r.digests[scheme]["fenced_loads"]
                                       for r in corpus),
        }

    rows: dict[str, dict[str, str]] = {}
    for cell in assembled("security"):
        rows.setdefault(cell.scheme, {})[cell.attack] = \
            "blocked" if cell.result.blocked else "leaked"
    unsafe_row = rows.get("unsafe")
    for scheme in schemes:
        row = rows[scheme]
        table["attacks"][scheme] = row
        leaking = [a for a in ACTIVE_ATTACKS + PASSIVE_ATTACKS
                   if unsafe_row is None or unsafe_row[a] == "leaked"]
        blocked = [a for a in leaking if row[a] == "blocked"]
        table["security"][scheme] = {
            "leaks_blocked": f"{len(blocked)}/{len(leaking)}",
            "active_blocked": sum(1 for a in ACTIVE_ATTACKS
                                  if a in leaking and row[a] == "blocked"),
            "passive_blocked": sum(1 for a in PASSIVE_ATTACKS
                                   if a in leaking and row[a] == "blocked"),
        }

    unsafe_cycles = payloads[("lebench", "unsafe")]["cycles"]
    for scheme in schemes:
        cell = payloads[("lebench", scheme)]
        ratios = [cell["cycles"][test] / unsafe_cycles[test]
                  for test in unsafe_cycles]
        fences_per_kinst = (1000.0 * cell["fenced_loads"]
                            / cell["committed_ops"]
                            if cell["committed_ops"] else 0.0)
        table["performance"][scheme] = {
            "overhead_geomean_pct": round(100.0 * (geomean(ratios) - 1.0),
                                          4),
            "fences_per_kinst": round(fences_per_kinst, 4),
            "fenced_loads": cell["fenced_loads"],
        }
    return table


def render_table(table: dict[str, Any]) -> str:
    """Human-readable cross-paper comparison (docs/performance.md)."""
    lines = [
        f"{'scheme':<16} {'conformance':<12} {'leaks blocked':<14} "
        f"{'overhead':>9} {'fences/kinst':>13}",
    ]
    for scheme in table["schemes"]:
        conf = "ok" if table["conformance"][scheme]["ok"] else "DIVERGED"
        sec = table["security"][scheme]["leaks_blocked"]
        perf = table["performance"][scheme]
        lines.append(
            f"{scheme:<16} {conf:<12} {sec:<14} "
            f"{perf['overhead_geomean_pct']:>8.2f}% "
            f"{perf['fences_per_kinst']:>13.2f}")
    return "\n".join(lines)


def run_defense_matrix(schemes: tuple[str, ...] = MATRIX_SCHEMES,
                       seeds: range | list[int] = range(20), *,
                       workers: int = 1, use_cache: bool = True,
                       cache_dir: str | None = None) -> dict[str, Any]:
    """Run the full matrix on the parallel engine; returns the table."""
    from repro.exec.engine import run_experiment
    table, _report = run_experiment(
        "defense-matrix", {"schemes": list(schemes),
                           "seeds": list(seeds)},
        workers=workers, use_cache=use_cache, cache_dir=cache_dir)
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.defense_matrix",
        description="Cross-paper defense matrix: conformance + attacks "
                    "+ overhead for every scheme column.")
    parser.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write the table as JSON (byte-stable)")
    parser.add_argument("--seeds", type=int, default=20, metavar="N",
                        help="conformance corpus size (default: 20)")
    parser.add_argument("--workers", type=int, default=1, metavar="N")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--cache-dir", metavar="DIR", default=None)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}: an empty "
                     "conformance corpus checks nothing")

    table = run_defense_matrix(
        seeds=range(args.seeds), workers=max(1, args.workers),
        use_cache=not args.no_cache, cache_dir=args.cache_dir)
    blob = json.dumps(table, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(blob)
    print(render_table(table))
    bad = [s for s in table["schemes"]
           if not table["conformance"][s]["ok"]]
    if bad:
        print(f"CONFORMANCE DIVERGENCE: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
