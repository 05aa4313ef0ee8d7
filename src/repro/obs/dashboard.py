"""Serve-plane dashboard: SLO state, burn-rate alerts, and block-JIT
miss attribution in one deterministic model.

The dashboard is a pure function of three snapshots the serve grid
already produces -- the merged :class:`~repro.obs.registry.
MetricsRegistry` snapshot, the merged :class:`~repro.obs.reqtrace.
TraceRecorder` snapshot, and the merged :class:`~repro.obs.slo.
SloRollup` snapshot -- so its JSON model is byte-identical across
processes, worker counts, and ``PYTHONHASHSEED`` values, and CI can gate
the committed smoke model with a plain ``diff``.

Panels (one per serve scheme):

* **SLO** -- windowed request/shed totals, the bucket-quantile p99, and
  every burn-rate alert the rollup fires (deterministic cycle stamps);
* **block JIT** -- hit/miss totals and the per-reason miss split over
  :data:`repro.cpu.blockcache.MISS_REASONS` (``uncompilable``), per
  scheme;
* **attribution** -- per kernel-function miss reasons, parsed back from
  the ``pipeline.blockcache.attr.c<ctx>.<scheme>.<fn>.<reason>``
  counters;
* **exemplars** -- the latency-histogram buckets with the request
  traces that landed in them (every exemplar ID must resolve).

The ``dashboard`` grid (:mod:`repro.exec.grids`) runs the serve grid's
cells once per scheme and builds the model; ``python -m repro.exec
snapshot obs_slo_smoke`` prints it as a terminal table
(:func:`render_text`), writes the model JSON (the committed
``benchmarks/out/obs_slo_smoke.json``) and, with ``--artifacts``, a
static HTML rendering and per-request Chrome-trace/folded exports
(:func:`write_report`).
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

from repro.cpu.blockcache import MISS_REASONS
from repro.obs.reqtrace import TraceRecorder
from repro.obs.slo import DEFAULT_OBJECTIVES, SloObjective, SloRollup

#: Schemes the dashboard serves under.  ``stt`` is the dedicated
#: taint-tracking point; the Perspective flavors pair it with the
#: view-based design the paper argues for.
DASHBOARD_SCHEMES = ("perspective", "perspective++", "stt")

#: Smoke objectives: the default set with the latency target tightened
#: to the 10k-cycle bucket so the overloaded smoke grid (12k-cycle mean
#: interarrival) deterministically fires burn-rate alerts.
SMOKE_OBJECTIVES = (
    SloObjective("p99-latency", "latency", budget=0.01, target=10_000.0),
) + tuple(o for o in DEFAULT_OBJECTIVES if o.kind != "latency")


def _round(value: float, digits: int = 6) -> float | str:
    """JSON-safe rounding: non-finite floats render as ``"inf"``."""
    return round(value, digits) if math.isfinite(value) else "inf"


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------


def parse_attribution(counters: dict[str, int],
                      ) -> dict[str, dict[str, dict[str, int]]]:
    """``pipeline.blockcache.attr.c<ctx>.<scheme>.<fn>.<reason>``
    counters, regrouped as ``{scheme: {fn: {reason: count}}}`` (summed
    over contexts).  Kernel function and scheme names are dot-free, so
    the 7-way split is unambiguous.
    """
    out: dict[str, dict[str, dict[str, int]]] = {}
    prefix = "pipeline.blockcache.attr."
    for key, count in counters.items():
        if not key.startswith(prefix):
            continue
        _ctx, scheme, fn, reason = key[len(prefix):].split(".")
        by_fn = out.setdefault(scheme, {})
        by_reason = by_fn.setdefault(fn, {})
        by_reason[reason] = by_reason.get(reason, 0) + count
    return out


def _slo_panel(rollup: SloRollup, objectives) -> dict[str, Any]:
    combined = None
    for index in sorted(rollup.windows):
        win = rollup.windows[index]
        combined = win if combined is None else combined.combine(win)
    requests = combined.requests if combined else 0
    shed = combined.shed if combined else 0
    p99 = (combined.latency_quantile(0.99, rollup.latency_buckets)
           if combined else 0.0)
    return {
        "window_cycles": rollup.window_cycles,
        "windows": len(rollup.windows),
        "requests": requests,
        "shed": shed,
        "p99_bucket": _round(p99),
        "objectives": [
            {"name": o.name, "kind": o.kind, "budget": o.budget,
             "target": o.target} for o in objectives],
        "alerts": [a.as_dict() for a in rollup.evaluate(objectives)],
    }


def _blockcache_panel(counters: dict[str, int]) -> dict[str, Any]:
    hits = counters.get("pipeline.blockcache.hits", 0)
    misses = counters.get("pipeline.blockcache.misses", 0)
    reasons = {r: counters.get(f"pipeline.blockcache.miss.{r}", 0)
               for r in MISS_REASONS}
    return {
        "hits": hits,
        "misses": misses,
        "miss_reasons": reasons,
        "hit_rate": _round(
            hits / (hits + misses) if hits + misses else 0.0),
    }


def _exemplar_panel(recorder: TraceRecorder,
                    histogram: str = "serve.latency_cycles",
                    ) -> dict[str, list[dict[str, Any]]]:
    """Bucket label -> resolved exemplar rows.  Raises if any exemplar
    ID fails to resolve: the bucket link must name a recorded trace."""
    out: dict[str, list[dict[str, Any]]] = {}
    for label, ids in sorted(recorder.exemplars.get(histogram, {}).items()):
        rows = []
        for tid in ids:
            trace = recorder.resolve(tid)
            if trace is None:
                raise ValueError(
                    f"exemplar {tid} in {histogram}/{label} does not "
                    f"resolve to a recorded trace")
            rows.append({
                "trace_id": tid,
                "tenant": trace.tenant,
                "cell": trace.cell,
                "outcome": trace.outcome,
                "latency_cycles": trace.latency_cycles,
                "steps": len(trace.steps),
            })
        out[label] = rows
    return out


def _trace_panel(recorder: TraceRecorder) -> dict[str, Any]:
    outcomes: dict[str, int] = {}
    layers: dict[str, int] = {}
    for trace in recorder.traces.values():
        outcomes[trace.outcome] = outcomes.get(trace.outcome, 0) + 1
        for step in trace.steps:
            layer = step["layer"]
            layers[layer] = layers.get(layer, 0) + 1
    return {
        "count": len(recorder.traces),
        "outcomes": dict(sorted(outcomes.items())),
        "steps_by_layer": dict(sorted(layers.items())),
    }


def build_scheme_panel(metrics_snapshot: dict, traces_snapshot: dict,
                       slo_snapshot: dict,
                       objectives=SMOKE_OBJECTIVES) -> dict[str, Any]:
    """One scheme's dashboard panel from its three merged snapshots."""
    recorder = TraceRecorder.from_snapshot(traces_snapshot)
    rollup = SloRollup.from_snapshot(slo_snapshot)
    counters: dict[str, int] = metrics_snapshot["counters"]
    attribution = parse_attribution(counters)
    return {
        "slo": _slo_panel(rollup, objectives),
        "blockcache": _blockcache_panel(counters),
        "attribution": {
            scheme: {fn: dict(sorted(reasons.items()))
                     for fn, reasons in sorted(by_fn.items())}
            for scheme, by_fn in sorted(attribution.items())},
        "exemplars": _exemplar_panel(recorder),
        "traces": _trace_panel(recorder),
    }


def build_model(panels: dict[str, dict[str, Any]],
                meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """The full dashboard model: one panel per scheme plus meta."""
    return {
        "meta": {"plane": "repro.obs.dashboard", **(meta or {})},
        "schemes": {scheme: panels[scheme] for scheme in sorted(panels)},
    }


def model_to_json(model: dict[str, Any]) -> str:
    return json.dumps(model, indent=1, sort_keys=True,
                      separators=(",", ": ")) + "\n"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_text(model: dict[str, Any]) -> str:
    """The terminal rendering of the model."""
    lines: list[str] = ["serve-plane dashboard"]
    for scheme, panel in model["schemes"].items():
        slo = panel["slo"]
        bc = panel["blockcache"]
        lines.append("")
        lines.append(f"== {scheme} ==")
        lines.append(
            f"  slo: {slo['requests']} requests, {slo['shed']} shed, "
            f"p99<= {slo['p99_bucket']} cycles over {slo['windows']} "
            f"windows of {slo['window_cycles']:.0f}")
        for alert in slo["alerts"]:
            lines.append(
                f"  ALERT {alert['objective']} ctx={alert['context']} "
                f"@cycle {alert['cycle']:.0f} "
                f"burn short/long = {alert['burn_short']}"
                f"/{alert['burn_long']}")
        lines.append(
            f"  block jit: {bc['hits']} hits / {bc['misses']} misses "
            f"(hit rate {bc['hit_rate']})")
        reasons = bc["miss_reasons"]
        lines.append("  miss reasons: " + "  ".join(
            f"{r}={reasons[r]}" for r in MISS_REASONS))
        top = _top_functions(panel["attribution"], limit=8)
        if top:
            lines.append("  top functions by misses:")
            width = max(len(fn) for fn, _, _ in top)
            for fn, total, reasons_row in top:
                detail = " ".join(f"{r}={n}" for r, n in reasons_row)
                lines.append(f"    {fn:<{width}} {total:>7}  {detail}")
        ex = panel["exemplars"]
        if ex:
            lines.append("  latency exemplars (serve.latency_cycles):")
            for label, rows in ex.items():
                ids = ", ".join(
                    f"{r['trace_id']}(t{r['tenant']})" for r in rows)
                lines.append(f"    {label:<12} {ids}")
    return "\n".join(lines) + "\n"


def _top_functions(attribution: dict[str, dict[str, dict[str, int]]],
                   limit: int = 8,
                   ) -> list[tuple[str, int, list[tuple[str, int]]]]:
    totals: dict[str, dict[str, int]] = {}
    for by_fn in attribution.values():
        for fn, reasons in by_fn.items():
            mine = totals.setdefault(fn, {})
            for reason, count in reasons.items():
                mine[reason] = mine.get(reason, 0) + count
    ranked = sorted(totals.items(),
                    key=lambda item: (-sum(item[1].values()), item[0]))
    return [(fn, sum(reasons.values()), sorted(reasons.items()))
            for fn, reasons in ranked[:limit]]


_HTML_HEAD = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>serve-plane dashboard</title>
<style>
 body { font-family: monospace; margin: 2em; background: #fafafa; }
 h2 { border-bottom: 1px solid #999; }
 table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
 th, td { border: 1px solid #bbb; padding: 2px 8px; text-align: right; }
 th:first-child, td:first-child { text-align: left; }
 .alert { color: #a00; font-weight: bold; }
</style></head><body>
<h1>serve-plane dashboard</h1>
"""


def render_html(model: dict[str, Any]) -> str:
    """A dependency-free static HTML rendering of the model."""
    def esc(text: Any) -> str:
        return (str(text).replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;"))

    parts = [_HTML_HEAD]
    for scheme, panel in model["schemes"].items():
        slo = panel["slo"]
        bc = panel["blockcache"]
        parts.append(f"<h2>{esc(scheme)}</h2>")
        parts.append(
            f"<p>slo: {slo['requests']} requests, {slo['shed']} shed, "
            f"p99 &le; {esc(slo['p99_bucket'])} cycles over "
            f"{slo['windows']} windows</p>")
        if slo["alerts"]:
            parts.append("<table><tr><th>objective</th><th>context</th>"
                         "<th>cycle</th><th>burn short</th>"
                         "<th>burn long</th></tr>")
            for alert in slo["alerts"]:
                parts.append(
                    f"<tr class=alert><td>{esc(alert['objective'])}</td>"
                    f"<td>{alert['context']}</td>"
                    f"<td>{alert['cycle']:.0f}</td>"
                    f"<td>{esc(alert['burn_short'])}</td>"
                    f"<td>{esc(alert['burn_long'])}</td></tr>")
            parts.append("</table>")
        parts.append("<table><tr><th>block JIT</th>"
                     + "".join(f"<th>{esc(r)}</th>"
                               for r in MISS_REASONS) + "</tr>")
        reasons = bc["miss_reasons"]
        parts.append(
            f"<tr><td>{bc['hits']} hits / {bc['misses']} misses</td>"
            + "".join(f"<td>{reasons[r]}</td>" for r in MISS_REASONS)
            + "</tr></table>")
        top = _top_functions(panel["attribution"], limit=12)
        if top:
            parts.append("<table><tr><th>kernel function</th>"
                         "<th>misses</th><th>breakdown</th></tr>")
            for fn, total, reasons_row in top:
                detail = " ".join(f"{esc(r)}={n}" for r, n in reasons_row)
                parts.append(f"<tr><td>{esc(fn)}</td><td>{total}</td>"
                             f"<td>{detail}</td></tr>")
            parts.append("</table>")
        if panel["exemplars"]:
            parts.append("<table><tr><th>latency bucket</th>"
                         "<th>exemplar traces</th></tr>")
            for label, rows in panel["exemplars"].items():
                ids = ", ".join(
                    f"{esc(r['trace_id'])} (tenant {r['tenant']}, "
                    f"{esc(r['outcome'])})" for r in rows)
                parts.append(f"<tr><td>{esc(label)}</td>"
                             f"<td style='text-align:left'>{ids}</td>"
                             "</tr>")
            parts.append("</table>")
    parts.append("<script type=\"application/json\" id=\"model\">")
    parts.append(esc(model_to_json(model)).rstrip())
    parts.append("</script>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_report(outdir: str | pathlib.Path, model: dict[str, Any],
                 traces_by_scheme: dict[str, dict],
                 max_trace_exports: int = 4) -> list[pathlib.Path]:
    """Write the HTML dashboard and per-request trace exports.

    For each scheme, the first ``max_trace_exports`` traces (sorted by
    trace ID) export as Chrome-trace JSON and folded stacks via the
    :mod:`repro.obs.profile` exporters.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    html = outdir / "dashboard.html"
    html.write_text(render_html(model))
    written.append(html)
    for scheme, snapshot in sorted(traces_by_scheme.items()):
        recorder = TraceRecorder.from_snapshot(snapshot)
        for tid in sorted(recorder.traces)[:max_trace_exports]:
            trace = recorder.traces[tid]
            stem = outdir / f"trace_{scheme}_{tid}"
            chrome = stem.with_suffix(".trace.json")
            folded = stem.with_suffix(".folded")
            chrome.write_text(trace.to_chrome_trace_json())
            folded.write_text(trace.to_folded())
            written.extend([chrome, folded])
    return written
