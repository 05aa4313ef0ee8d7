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
grid's (one per scheme) for the matrix's schemes -- by default the
conformance set, eight columns from both fencing extremes to the
hardened Perspective flavor -- so the parallel engine runs it with
byte-exact worker parity.  ``python -m repro.exec snapshot
defense_matrix`` prints :func:`render_table`, writes the committed
``benchmarks/out/defense_matrix.json`` and exits 1 if any scheme
diverges from unsafe on the conformance corpus.
"""

from __future__ import annotations

from typing import Any

from repro.eval.metrics import geomean

#: PoCs grouped the way the paper's matrices slice them.  The eIBRS
#: baseline check (``spectre-v2-vs-eibrs``) is a control (blocked even
#: on unsafe hardware), so it is in neither group and excluded from the
#: leak counts.
ACTIVE_ATTACKS = ("spectre-v1-active", "spectre-v2-active",
                  "ebpf-injection")
PASSIVE_ATTACKS = ("spectre-v2-passive", "retbleed-passive",
                   "spectre-rsb-passive", "bhi-passive")


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
