"""repro.obs -- the deterministic observability plane.

A process-wide :class:`MetricsRegistry` of named counters, gauges, and
fixed-bucket histograms, plus lightweight span tracing, all keyed by
*simulated* cycles (never wall clock) so snapshots are byte-reproducible
under a fixed seed.  Instrumented modules publish through the module-
level hooks (:func:`add`, :func:`observe`, :func:`span`, :func:`tick`),
which cost one global read, one attribute read and an ``is None`` test
when no registry is active; :func:`instrumented` is the one scope that
activates the registry, every plane below and the fault plane.

On top of the metrics plane sits the forensics/attribution layer:

* :mod:`repro.obs.events` -- the cycle-stamped security-event journal
  (:class:`EventJournal`, ``instrumented(journal=...)``);
* :mod:`repro.obs.reqtrace` -- request-scoped tracing for the serve
  plane (:class:`TraceRecorder`, ``instrumented(recorder=...)``), with
  histogram-bucket exemplar links and per-request Chrome-trace/folded
  exports;
* :mod:`repro.obs.slo` -- windowed SLO rollups and deterministic
  multi-window burn-rate alerts (:class:`SloRollup`,
  ``instrumented(rollup=...)``);
* :mod:`repro.obs.profile` -- the differential fence-overhead profiler
  and the folded-stack / Chrome-trace exporters;
* :mod:`repro.obs.dashboard` -- the serve-plane SLO / block-JIT
  miss-attribution dashboard (the ``obs_slo_smoke`` snapshot);
* :mod:`repro.obs.diffgate` -- the metric regression gate CI runs.

See ``python -m repro.obs --help`` for the CLI (the ``events`` /
``profile`` / ``diff`` subcommands); the committed snapshots regenerate
with ``python -m repro.exec snapshot NAME``.
"""

from repro.obs.collect import (
    collect_branch_unit,
    collect_cache_hierarchy,
    collect_env,
    collect_framework,
    collect_kernel,
    collect_memsys,
)
from repro.obs.diffgate import DiffReport, diff_snapshots
from repro.obs.events import EventJournal, SecurityEvent
from repro.obs.instruments import INSTRUMENTS, instrumented
from repro.obs.profile import DiffProfile, ProfileRun, SpanTree
from repro.obs.reqtrace import RequestTrace, TraceRecorder, trace_id
from repro.obs.slo import SloAlert, SloObjective, SloRollup, SloWindow
from repro.obs.registry import (
    DEFAULT_CYCLE_BUCKETS,
    Histogram,
    MetricsRegistry,
    SpanStats,
    add,
    gauge,
    observe,
    span,
    tick,
)

__all__ = [
    "DEFAULT_CYCLE_BUCKETS",
    "DiffProfile",
    "DiffReport",
    "EventJournal",
    "Histogram",
    "INSTRUMENTS",
    "MetricsRegistry",
    "ProfileRun",
    "RequestTrace",
    "SecurityEvent",
    "SloAlert",
    "SloObjective",
    "SloRollup",
    "SloWindow",
    "SpanStats",
    "SpanTree",
    "TraceRecorder",
    "add",
    "collect_branch_unit",
    "collect_cache_hierarchy",
    "collect_env",
    "collect_framework",
    "collect_kernel",
    "collect_memsys",
    "diff_snapshots",
    "gauge",
    "instrumented",
    "observe",
    "span",
    "tick",
    "trace_id",
]
