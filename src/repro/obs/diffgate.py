"""Metric regression gate: diff two snapshots exactly.

The observability plane is deterministic, so the gate is the strongest
possible one -- *exact equality* against a committed baseline: any drift
in any counter, gauge, span, or histogram is a finding.

Usage (also wired as ``python -m repro.obs diff``, which exits nonzero
when the gate fails -- that is what CI runs against the committed
``benchmarks/out/BENCH_*.json`` snapshots)::

    report = diff_snapshots(baseline_snapshot, current_snapshot)
    if not report.ok:
        print(report.render())

Snapshots are the plain dicts :meth:`MetricsRegistry.snapshot` emits
(or their JSON files); both sides are flattened to dotted scalar names
(``counters.pipeline.runs``, ``spans.syscall/read.cycles``,
``histograms.pipeline.run_cycles.sum``) before comparison, and metrics
that appear on only one side are findings of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class MetricDiff:
    """One metric that failed the gate, and how (``verdict``)."""

    name: str
    baseline: float | None  # None: metric only exists in current
    current: float | None   # None: metric only exists in baseline
    verdict: str  # "regressed" | "added" | "removed"

    @property
    def delta(self) -> float:
        return (self.current or 0.0) - (self.baseline or 0.0)


@dataclass
class DiffReport:
    """Outcome of gating one snapshot against a baseline."""

    diffs: list[MetricDiff] = field(default_factory=list)
    compared: int = 0

    @property
    def regressions(self) -> list[MetricDiff]:
        return self.diffs

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, max_rows: int = 40) -> str:
        bad = self.regressions
        lines = [f"diff gate: {self.compared} metrics compared, "
                 f"{len(bad)} regression(s)"]
        for diff in bad[:max_rows]:
            if diff.verdict == "added":
                lines.append(f"  ADDED     {diff.name} = {diff.current}")
            elif diff.verdict == "removed":
                lines.append(f"  REMOVED   {diff.name} "
                             f"(baseline {diff.baseline})")
            else:
                lines.append(f"  REGRESSED {diff.name}: "
                             f"{diff.baseline} -> {diff.current} "
                             f"({diff.delta:+g})")
        if len(bad) > max_rows:
            lines.append(f"  ... {len(bad) - max_rows} more")
        if self.ok:
            lines.append("  all metrics equal")
        return "\n".join(lines) + "\n"


def flatten_snapshot(snapshot: dict[str, Any]) -> dict[str, float]:
    """Map a registry snapshot to dotted scalar metric names.

    Histograms contribute their ``sum``/``count`` (bucket shapes are
    covered transitively: identical observations imply identical
    buckets, and sum+count catch any drift the gate should see); spans
    contribute ``cycles`` and ``count``.  ``meta`` is identity, not a
    metric, and is skipped.
    """
    flat: dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        flat[f"counters.{name}"] = float(value)
    for name, value in snapshot.get("gauges", {}).items():
        flat[f"gauges.{name}"] = float(value)
    for name, hist in snapshot.get("histograms", {}).items():
        flat[f"histograms.{name}.sum"] = float(hist["sum"])
        flat[f"histograms.{name}.count"] = float(hist["count"])
    for path, stats in snapshot.get("spans", {}).items():
        flat[f"spans.{path}.cycles"] = float(stats["cycles"])
        flat[f"spans.{path}.count"] = float(stats["count"])
    return flat


def diff_snapshots(baseline: dict[str, Any],
                   current: dict[str, Any]) -> DiffReport:
    """Gate ``current`` against ``baseline``: every metric must be equal.

    Metrics present only in ``current`` are ``added`` findings (new
    instrumentation must update the committed baseline deliberately);
    metrics that disappeared are ``removed`` findings.
    """
    base_flat = flatten_snapshot(baseline)
    cur_flat = flatten_snapshot(current)
    report = DiffReport()
    for name in sorted(set(base_flat) | set(cur_flat)):
        if name not in cur_flat:
            report.diffs.append(MetricDiff(
                name, base_flat[name], None, "removed"))
        elif name not in base_flat:
            report.diffs.append(MetricDiff(
                name, None, cur_flat[name], "added"))
        else:
            report.compared += 1
            if cur_flat[name] != base_flat[name]:
                report.diffs.append(MetricDiff(
                    name, base_flat[name], cur_flat[name], "regressed"))
    return report


def gate_files(baseline_path: str, current_path: str) -> DiffReport:
    """File-level entry point used by the CLI and CI."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(current_path) as handle:
        current = json.load(handle)
    return diff_snapshots(baseline, current)
