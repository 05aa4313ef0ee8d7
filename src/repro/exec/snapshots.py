"""The committed JSON snapshots: one row per ``benchmarks/out/<name>.json``.

The paper's evidence reaches the repository as six JSON snapshots: the
Chapter 8 attack matrix and Chapter 9 overheads (``defense_matrix``),
the serve plane (``serve_smoke``, ``serve_scale``, ``campaign_smoke``)
and the observability plane (``obs_smoke``, ``obs_slo_smoke``).  Each is
one run of one grid of :mod:`repro.exec.grids`, and :data:`SNAPSHOTS`
is the only place that says which.  A :class:`Snapshot` row names the
grid, the parameters the committed file comes from (overrides on the
grid's defaults), how the result renders as JSON (``meta`` included)
and as text, and, for some rows, the artifacts it writes and the results
that must fail the run.  A row's JSON is a function of the grid's
resolved params and result only -- never of how the engine ran (workers,
result cache) -- so a regenerated row matches the committed file byte
for byte.

One command regenerates any row::

    python -m repro.exec snapshot serve_smoke --no-cache -o serve_smoke.json
    python -m repro.exec snapshot campaign_smoke --workers 4 --artifacts out/

and the ``snapshot-parity`` CI job lists the row names.  The table is
apart from :data:`repro.eval.report.SECTIONS`, the paper report's
sections: no grid run appears in both.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.eval.defense_matrix import render_table
from repro.exec.grids import get_grid
from repro.obs.dashboard import model_to_json, render_text, write_report
from repro.obs.profile import SpanTree
from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class Snapshot:
    """One committed snapshot: the grid run behind it, and its renderers."""

    name: str
    grid: str
    #: Overrides on the grid's defaults: the committed parameter set.
    params: dict[str, Any]
    #: ``(resolved params, result) -> JSON text``.
    to_json: Callable[[dict[str, Any], Any], str]
    #: ``result -> text`` for stdout.
    to_text: Callable[[Any], str]
    #: ``(result, directory) -> written paths``.
    artifacts: Callable[[Any, Path], list[Path]] | None = None
    #: ``result -> failure lines``; any line fails the run.
    failures: Callable[[Any], list[str]] | None = None

    @property
    def path(self) -> Path:
        """The committed file, relative to the repository root."""
        return Path("benchmarks") / "out" / f"{self.name}.json"

    def resolve(self) -> dict[str, Any]:
        """The grid's defaults overridden by :attr:`params`."""
        return get_grid(self.grid).resolve(self.params)


def publish(row: Snapshot, result: Any, *, out: str | None = None,
            artifacts: str | None = None) -> int:
    """Print ``row.to_text`` to stdout, write ``row.to_json`` of the
    row's resolved params to ``out`` and the row's artifacts (only for a
    row that has them) to ``artifacts``, then print each failure to
    stderr.  Returns the exit status: 1 if any failure, else 0."""
    sys.stdout.write(row.to_text(result))
    if out:
        Path(out).write_text(row.to_json(row.resolve(), result))
        print(f"snapshot written to {out}", file=sys.stderr)
    if artifacts:
        outdir = Path(artifacts)
        outdir.mkdir(parents=True, exist_ok=True)
        written = row.artifacts(result, outdir)
        print(f"{len(written)} artifacts written to {outdir}",
              file=sys.stderr)
    failures = row.failures(result) if row.failures is not None else []
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def _registry_json(registry: MetricsRegistry) -> str:
    return registry.to_json(indent=1) + "\n"


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# serve_smoke: the multi-tenant serving sweep
# ---------------------------------------------------------------------------


def _serve_smoke_json(params: dict[str, Any], result: dict[str, Any]) -> str:
    registry = MetricsRegistry.from_snapshot(result["metrics"])
    registry.meta.update({
        "plane": "repro.serve", "scheme": params["scheme"],
        "seeds": params["seeds"], "tenants": params["tenants"],
        "requests_per_tenant": params["requests_per_tenant"],
        "shards": params["shards"],
    })
    return _registry_json(registry)


def _serve_smoke_text(result: dict[str, Any]) -> str:
    lines = []
    for cell in result["cells"]:
        cfg = cell["config"]
        lines.append(f"seed={cfg['seed']} tenants={cfg['tenants']} "
                     f"scheme={cfg['scheme']}: "
                     f"completed={cell['completed']} shed={cell['shed']} "
                     f"p50={cell['latency_p50']:.0f} "
                     f"p99={cell['latency_p99']:.0f} "
                     f"rps={cell['throughput_rps']:.0f}")
    return _lines(lines)


# ---------------------------------------------------------------------------
# serve_scale: sharded scaling curves
# ---------------------------------------------------------------------------


#: Scaling-row fields published as per-experiment gauges (and CSV
#: columns): all pure functions of the config, so the snapshot is
#: byte-exact across workers and hash seeds.
_SCALE_FIELDS = (
    "offered", "completed", "shed", "makespan_cycles", "throughput_rps",
    "latency_p50", "latency_p99", "kernel_cycles", "switches",
    "switch_cycles", "migrations_in", "ibpb_flushes",
    "migration_cold_dispatches", "migration_excess_cycles", "memo_keys",
    "memo_replays", "memo_interpreted")


def _serve_scale_json(params: dict[str, Any], result: dict[str, Any]) -> str:
    registry = MetricsRegistry()
    for row in result["experiments"]:
        prefix = (f"serve_scale.{row['scheme']}"
                  f".t{row['tenants']}.sh{row['shards']}")
        for fname in _SCALE_FIELDS:
            registry.gauge(f"{prefix}.{fname}", row[fname])
    registry.meta.update({
        "plane": "repro.serve.scale", "schemes": params["schemes"],
        "tenants": params["tenants"], "shards": params["shards"],
    })
    return _registry_json(registry)


def _serve_scale_text(result: dict[str, Any]) -> str:
    return _lines([f"scheme={row['scheme']} tenants={row['tenants']} "
                   f"shards={row['shards']}: "
                   f"completed={row['completed']} shed={row['shed']} "
                   f"rps={row['throughput_rps']:.0f} "
                   f"p99={row['latency_p99']:.0f} "
                   f"migrations={row['migrations_in']} "
                   f"excess={row['migration_excess_cycles']:.0f}"
                   for row in result["experiments"]])


def _serve_scale_artifacts(result: dict[str, Any],
                           outdir: Path) -> list[Path]:
    """The scaling curves as one CSV."""
    lines = ["scheme,tenants,shards," + ",".join(_SCALE_FIELDS)]
    for row in result["experiments"]:
        lines.append(",".join(
            [row["scheme"], str(row["tenants"]), str(row["shards"])]
            + [repr(row[fname]) for fname in _SCALE_FIELDS]))
    curves = outdir / "serve_scale_curves.csv"
    curves.write_text(_lines(lines))
    return [curves]


# ---------------------------------------------------------------------------
# campaign_smoke: attacker tenants, fault storms, adaptive hardening
# ---------------------------------------------------------------------------


def _campaign_json(params: dict[str, Any], result: dict[str, Any]) -> str:
    registry = MetricsRegistry.from_snapshot(result["metrics"])
    registry.meta.update({
        "plane": "repro.serve.campaign", "seeds": params["seeds"],
        "scenarios": params["scenarios"],
    })
    return _registry_json(registry)


def _campaign_text(result: dict[str, Any]) -> str:
    lines = []
    for cell in result["cells"]:
        spec = cell["spec"]
        leaks = cell["leaks"]
        escalations = sum(1 for s in cell["escalation_steps"]
                          if s["action"] == "escalate")
        recovery = cell["slo"]["recovery_cycles"]
        recovery_txt = f"{recovery:.0f}" if recovery is not None else "-"
        lines.append(f"seed={spec['seed']} scenario={spec['scenario']}: "
                     f"completed={cell['completed']} shed={cell['shed']} "
                     f"blocked={leaks['blocked_bytes']}"
                     f"/{leaks['attempted_bytes']} "
                     f"escalations={escalations} "
                     f"p99={cell['latency_p99']:.0f} "
                     f"recovery={recovery_txt} "
                     f"secret_intact={cell['secret']['intact']}")
    return _lines(lines)


def _campaign_artifacts(result: dict[str, Any], outdir: Path) -> list[Path]:
    """Folded flamegraph stacks and the full per-cell reports."""
    folded = outdir / "campaign_spans.folded"
    folded.write_text(
        SpanTree.from_spans(result["metrics"]["spans"]).to_folded())
    cells = outdir / "campaign_report.json"
    cells.write_text(json.dumps(result["cells"], indent=1, sort_keys=True)
                     + "\n")
    return [folded, cells]


def _campaign_failures(result: dict[str, Any]) -> list[str]:
    """Fail closed: a cell that leaked even one byte, or whose planted
    secret moved."""
    return [f"LEAK DETECTED: campaign cell "
            f"s{cell['spec']['seed']}.{cell['spec']['scenario']}"
            for cell in result["cells"]
            if cell["leaks"]["leaked_bytes"] or not cell["secret"]["intact"]]


# ---------------------------------------------------------------------------
# defense_matrix: the cross-paper comparison
# ---------------------------------------------------------------------------


def _defense_json(params: dict[str, Any], table: dict[str, Any]) -> str:
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def _defense_failures(table: dict[str, Any]) -> list[str]:
    """Every scheme must agree with unsafe on the conformance corpus."""
    return [f"CONFORMANCE DIVERGENCE: {scheme} on seeds "
            f"{table['conformance'][scheme]['diverging_seeds']}"
            for scheme in table["schemes"]
            if not table["conformance"][scheme]["ok"]]


# ---------------------------------------------------------------------------
# obs_smoke / obs_slo_smoke: the observability plane
# ---------------------------------------------------------------------------


def _dashboard_artifacts(result: dict[str, Any], outdir: Path) -> list[Path]:
    """``dashboard.html`` and per-request Chrome-trace/folded exports."""
    return write_report(outdir, result["model"], result["traces"])


SNAPSHOTS: dict[str, Snapshot] = {row.name: row for row in (
    Snapshot("serve_smoke", "serve",
             # Replay through the block JIT is byte-exact (cache-parity
             # gate), so forcing it on changes only the blockcache
             # counters, never the report, and the snapshot gates the
             # miss-reason split.
             {"shards": 1, "block_cache": True},
             _serve_smoke_json, _serve_smoke_text),
    Snapshot("serve_scale", "serve-scale", {},
             _serve_scale_json, _serve_scale_text,
             artifacts=_serve_scale_artifacts),
    Snapshot("campaign_smoke", "campaign", {"seeds": [0]},
             _campaign_json, _campaign_text,
             artifacts=_campaign_artifacts, failures=_campaign_failures),
    Snapshot("defense_matrix", "defense-matrix", {},
             _defense_json, lambda table: render_table(table) + "\n",
             failures=_defense_failures),
    Snapshot("obs_slo_smoke", "dashboard", {},
             lambda params, result: model_to_json(result["model"]),
             lambda result: render_text(result["model"]),
             artifacts=_dashboard_artifacts),
    Snapshot("obs_smoke", "obs-matrix", {},
             lambda params, snapshot: _registry_json(
                 MetricsRegistry.from_snapshot(snapshot)),
             lambda snapshot: MetricsRegistry.from_snapshot(
                 snapshot).to_text()),
)}
