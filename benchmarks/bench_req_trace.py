"""Benchmark request-scoped tracing (``repro.obs.reqtrace``) overhead.

Tracing is an **observer, never a participant**: the serve report --
completions, sheds, makespan, every simulated cycle -- must be
byte-identical whether or not a recorder is installed, and the inactive
hooks (one module-global read + ``None`` test per step site) must be
close to free.  This bench asserts the first property exactly and
measures the second, writing a diffgate-compatible snapshot
(``repro.obs.MetricsRegistry`` shape):

* **counters/gauges** -- parity flags plus the deterministic trace
  census of the smoke grid: traces recorded, steps by layer, exemplar
  links, SLO windows and requests.  Pure functions of the seeded
  schedules, so CI byte-gates them with ``python -m repro.obs diff``
  against the committed ``benchmarks/out/BENCH_req_trace.json``.
* **meta** -- wall-clock seconds and the active-tracing overhead
  ratio.  Machine-dependent, so it rides in ``meta``, which the diff
  gate skips: the committed numbers are a trajectory record, not a
  gate.

Two timed configurations over the serve smoke grid:

* ``inactive`` -- plain ``run_serve``: the hooks exist but no recorder
  or rollup is installed.  This is the tax every untraced serve run
  pays for the instrumentation being compiled in.
* ``active`` -- the ``serve`` grid's cell run through
  ``repro.exec.grids.run_cell`` with ``trace`` and ``slo_window`` set,
  i.e. under a fresh ``TraceRecorder`` + ``SloRollup``: every request
  records admission, scheduler-slice, syscall, kernel-function and
  pipeline steps plus exemplar links.

The ``active/inactive`` wall ratio gates at ``<= 3.0`` (``--no-gate``
to skip): full per-request tracing may cost real time, but if it blows
past 3x something regressed structurally (e.g. a hook doing work while
inactive, or per-step allocation on the hot path).

Usage::

    python benchmarks/bench_req_trace.py -o out.json [--no-gate]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exec.grids import run_cell
from repro.exec.snapshots import SNAPSHOTS
from repro.obs import MetricsRegistry
from repro.obs.reqtrace import TraceRecorder
from repro.obs.slo import SloRollup
from repro.serve.engine import config_from_params, run_serve

#: The serve smoke grid: the seeds, tenant counts and requests per tenant
#: of the ``serve_smoke`` snapshot, resolved through its grid, and the
#: SLO window of the ``obs_slo_smoke`` dashboard.
SERVE_SMOKE = SNAPSHOTS["serve_smoke"].resolve()
SLO_WINDOW = SNAPSHOTS["obs_slo_smoke"].resolve()["slo_window"]

#: Active-tracing wall-overhead ceiling (vs inactive hooks).
GATE_ACTIVE_OVERHEAD = 3.0

#: Timed repetitions per configuration, best-of kept.
TIMED_RUNS = 3


def _cell_params(seed: int, tenants: int, **extra) -> dict:
    return {"seed": seed, "tenants": tenants, "scheme": "perspective",
            "requests_per_tenant": SERVE_SMOKE["requests_per_tenant"],
            **extra}


def _grid():
    for seed in SERVE_SMOKE["seeds"]:
        for tenants in SERVE_SMOKE["tenants"]:
            yield seed, tenants


def _traced_cell(seed: int, tenants: int) -> dict:
    """One serve cell under its own trace recorder and SLO rollup."""
    return run_cell("serve", _cell_params(seed, tenants, trace=True,
                                          slo_window=SLO_WINDOW))


def _parity_and_census(reg: MetricsRegistry) -> None:
    """Byte-parity assert + deterministic trace census, per cell."""
    for seed, tenants in _grid():
        label = f"s{seed}.t{tenants}"
        plain = run_serve(config_from_params(_cell_params(seed, tenants)))
        cell = _traced_cell(seed, tenants)
        traced_report = {k: v for k, v in cell.items()
                         if k not in ("traces", "slo")}
        assert plain.as_dict() == traced_report, \
            f"serve {label}: report diverged under tracing"
        reg.add(f"req_trace.parity.{label}")

        recorder = TraceRecorder.from_snapshot(cell["traces"])
        reg.add(f"req_trace.{label}.traces", len(recorder.traces))
        steps_by_layer: dict[str, int] = {}
        for trace in recorder.traces.values():
            for row in trace.steps:
                layer = row["layer"]
                steps_by_layer[layer] = steps_by_layer.get(layer, 0) + 1
        for layer, count in sorted(steps_by_layer.items()):
            reg.add(f"req_trace.{label}.steps.{layer}", count)
        exemplars = sum(len(ids) for buckets in recorder.exemplars.values()
                        for ids in buckets.values())
        reg.add(f"req_trace.{label}.exemplars", exemplars)
        for tid in sorted(recorder.exemplars.get("serve.latency_cycles",
                                                 {}).get("inf", ())):
            assert recorder.resolve(tid) is not None

        rollup = SloRollup.from_snapshot(cell["slo"])
        reg.add(f"req_trace.{label}.slo.windows", len(rollup.windows))
        reg.add(f"req_trace.{label}.slo.requests",
                sum(w.requests for w in rollup.windows.values()))


def _timed(fn) -> float:
    best = float("inf")
    for _ in range(TIMED_RUNS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _walls(reg: MetricsRegistry) -> float:
    def inactive() -> None:
        for seed, tenants in _grid():
            run_serve(config_from_params(_cell_params(seed, tenants)))

    def active() -> None:
        for seed, tenants in _grid():
            _traced_cell(seed, tenants)

    # Warm process-wide caches (codegen, images) before timing.
    inactive()
    t_off = _timed(inactive)
    t_on = _timed(active)
    overhead = t_on / t_off
    reg.meta["wall_inactive_s"] = f"{t_off:.3f}"
    reg.meta["wall_active_s"] = f"{t_on:.3f}"
    reg.meta["overhead_active"] = f"{overhead:.2f}"
    print(f"inactive={t_off:7.3f}s   active={t_on:7.3f}s   "
          f"overhead={overhead:.2f}x", file=sys.stderr)
    return overhead


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="snapshot path (default: stdout)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record the overhead without enforcing the "
                             "ceiling")
    args = parser.parse_args(argv)

    reg = MetricsRegistry(meta={"bench": "req_trace"})
    _parity_and_census(reg)
    overhead = _walls(reg)

    text = reg.to_json(indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"snapshot written to {args.output}", file=sys.stderr)
    else:
        print(text, end="")

    if not args.no_gate:
        assert overhead <= GATE_ACTIVE_OVERHEAD, \
            (f"active tracing overhead {overhead:.2f}x over the "
             f"{GATE_ACTIVE_OVERHEAD}x ceiling")
        print(f"gate passed: active overhead {overhead:.2f}x <= "
              f"{GATE_ACTIVE_OVERHEAD}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
