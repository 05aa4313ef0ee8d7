"""Grid definitions: every grid-shaped runner decomposed into cells.

A :class:`Grid` describes one experiment as

* ``cells(params)`` -- the independent (workload, scheme, params) cells,
  in the exact order the serial runner visits them;
* ``run_cell(key, cell_params)`` -- one cell's computation, delegating
  to the *same* per-cell function the serial runner calls
  (``repro.eval.runner.lebench_cell`` etc.), which is what makes the
  parallel path byte-identical to the serial one by construction;
* ``assemble(params, payloads)`` -- rebuild the experiment object from
  the per-cell payloads, iterating in declared cell order (never in
  pool completion order);
* ``entry_modules`` -- the modules whose transitive ``repro.*`` import
  closure fingerprints the cell's code version for the result cache.

Cell payloads are JSON values (the engine round-trips them through
``json`` either way), so a cell replayed from the on-disk cache is
indistinguishable from a freshly executed one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.eval.envs import PERF_SCHEMES, RARE_EVERY
from repro.eval.metrics import FenceBreakdown
from repro.eval.runner import (
    AppsExperiment,
    BreakdownExperiment,
    LEBenchExperiment,
    SurfaceExperiment,
    apps_cell,
    breakdown_cell,
    lebench_cell,
    surface_cell,
)
from repro.eval.sensitivity import (
    SlabSensitivityResult,
    UnknownAllocationsResult,
    slab_sensitivity_cell,
    unknown_allocations_cell,
    unknown_overhead_pct,
)
from repro.eval.sweeps import SweepResult, _measure
from repro.workloads.apps import APP_NAMES, APP_SPECS

Key = tuple[str, ...]
CellList = list[tuple[Key, dict[str, Any]]]


@dataclass(frozen=True)
class Grid:
    """One grid-shaped experiment, decomposed for the engine."""

    name: str
    #: Roots of the static import closure that fingerprints cell code.
    entry_modules: tuple[str, ...]
    defaults: Callable[[], dict[str, Any]]
    normalize: Callable[[dict[str, Any]], dict[str, Any]]
    cells: Callable[[dict[str, Any]], CellList]
    run_cell: Callable[[Key, dict[str, Any]], Any]
    assemble: Callable[[dict[str, Any], dict[Key, Any]], Any]


def _identity(params: dict[str, Any]) -> dict[str, Any]:
    return params


def _with_unsafe(params: dict[str, Any]) -> dict[str, Any]:
    schemes = list(params["schemes"])
    if "unsafe" not in schemes:
        schemes = ["unsafe"] + schemes
    return {**params, "schemes": schemes}


# ---------------------------------------------------------------------------
# LEBench (Figure 9.2)
# ---------------------------------------------------------------------------


def _lebench_cells(params: dict[str, Any]) -> CellList:
    return [((scheme,), {"scheme": scheme,
                         "rare_every": params["rare_every"]})
            for scheme in params["schemes"]]


def _lebench_run(key: Key, cp: dict[str, Any]) -> Any:
    return {"cycles": lebench_cell(cp["scheme"],
                                   rare_every=cp["rare_every"])}


def _lebench_assemble(params: dict[str, Any],
                      payloads: dict[Key, Any]) -> LEBenchExperiment:
    exp = LEBenchExperiment(schemes=tuple(params["schemes"]))
    for scheme in params["schemes"]:
        exp.cycles[scheme] = dict(payloads[(scheme,)]["cycles"])
    return exp


# ---------------------------------------------------------------------------
# Datacenter applications (Figure 9.3)
# ---------------------------------------------------------------------------


def _apps_cells(params: dict[str, Any]) -> CellList:
    return [((app, scheme), {"app": app, "scheme": scheme,
                             "requests": params["requests"],
                             "rare_every": params["rare_every"]})
            for app in params["apps"]
            for scheme in params["schemes"]]


def _apps_run(key: Key, cp: dict[str, Any]) -> Any:
    return {"kernel_cycles_per_request": apps_cell(
        cp["app"], cp["scheme"], requests=cp["requests"],
        rare_every=cp["rare_every"])}


def _apps_assemble(params: dict[str, Any],
                   payloads: dict[Key, Any]) -> AppsExperiment:
    exp = AppsExperiment(schemes=tuple(params["schemes"]))
    for app in params["apps"]:
        per_scheme_kernel = {
            scheme: payloads[(app, scheme)]["kernel_cycles_per_request"]
            for scheme in params["schemes"]}
        # Same userspace-budget arithmetic, in the same order, as
        # run_apps_experiment.
        f = APP_SPECS[app].kernel_time_fraction
        user = per_scheme_kernel["unsafe"] * (1.0 - f) / f
        exp.kernel_cycles_per_request[app] = per_scheme_kernel
        exp.total_cycles_per_request[app] = {
            scheme: kernel + user
            for scheme, kernel in per_scheme_kernel.items()}
    return exp


# ---------------------------------------------------------------------------
# Attack-surface reduction (Table 8.1)
# ---------------------------------------------------------------------------


def _surface_cells(params: dict[str, Any]) -> CellList:
    return [((app,), {"app": app}) for app in params["apps"]]


def _surface_run(key: Key, cp: dict[str, Any]) -> Any:
    return surface_cell(cp["app"])


def _surface_assemble(params: dict[str, Any],
                      payloads: dict[Key, Any]) -> SurfaceExperiment:
    first = payloads[(params["apps"][0],)]
    exp = SurfaceExperiment(total_functions=first["total_functions"])
    for app in params["apps"]:
        cell = payloads[(app,)]
        exp.static_isv_size[app] = cell["static"]
        exp.dynamic_isv_size[app] = cell["dynamic"]
    return exp


# ---------------------------------------------------------------------------
# Fence breakdown / view-cache hit rates (Table 10.1)
# ---------------------------------------------------------------------------


def _breakdown_cells(params: dict[str, Any]) -> CellList:
    return [((workload, scheme), {"workload": workload, "scheme": scheme,
                                  "requests": params["requests"],
                                  "observe": params["observe"]})
            for workload in params["workloads"]
            for scheme in params["schemes"]]


def _breakdown_run(key: Key, cp: dict[str, Any]) -> Any:
    if not cp["observe"]:
        return breakdown_cell(cp["workload"], cp["scheme"],
                              requests=cp["requests"])
    from repro.kernel.image import shared_image
    from repro.obs import MetricsRegistry, observing
    # The serial runner builds the image before entering its observing()
    # scope but runs every cell (make_env and profiling included) inside
    # it; the cell registry must cover exactly the same region.
    image = shared_image()
    registry = MetricsRegistry()
    with observing(registry):
        out = breakdown_cell(cp["workload"], cp["scheme"],
                             requests=cp["requests"], image=image,
                             registry=registry)
    out["metrics"] = registry.snapshot()
    return out


def _breakdown_assemble(params: dict[str, Any],
                        payloads: dict[Key, Any]) -> BreakdownExperiment:
    exp = BreakdownExperiment()
    merged = None
    for workload in params["workloads"]:
        exp.breakdowns[workload] = {}
        exp.isv_cache_hit_rate[workload] = {}
        exp.dsv_cache_hit_rate[workload] = {}
        for scheme in params["schemes"]:
            cell = payloads[(workload, scheme)]
            exp.breakdowns[workload][scheme] = \
                FenceBreakdown(**cell["breakdown"])
            exp.isv_cache_hit_rate[workload][scheme] = \
                cell["isv_cache_hit_rate"]
            exp.dsv_cache_hit_rate[workload][scheme] = \
                cell["dsv_cache_hit_rate"]
            if params["observe"]:
                from repro.obs import MetricsRegistry
                part = MetricsRegistry.from_snapshot(cell["metrics"])
                if merged is None:
                    merged = part
                else:
                    merged.merge(part)
    if merged is not None:
        exp.metrics = merged.snapshot()
    return exp


# ---------------------------------------------------------------------------
# Microarchitectural sweeps
# ---------------------------------------------------------------------------


def _sweep_cells(parameter: str):
    def cells(params: dict[str, Any]) -> CellList:
        return [((json.dumps(value),),
                 {"parameter": parameter, "value": value,
                  "scheme": params["scheme"]})
                for value in params["values"]]
    return cells


def _sweep_run(key: Key, cp: dict[str, Any]) -> Any:
    return {"overhead_pct": _measure(cp["scheme"],
                                     {cp["parameter"]: cp["value"]})}


def _sweep_assemble(parameter: str):
    def assemble(params: dict[str, Any],
                 payloads: dict[Key, Any]) -> SweepResult:
        result = SweepResult(parameter, params["scheme"])
        for value in params["values"]:
            result.overhead_pct[value] = \
                payloads[(json.dumps(value),)]["overhead_pct"]
        return result
    return assemble


# ---------------------------------------------------------------------------
# Sensitivity analyses (Section 9.2)
# ---------------------------------------------------------------------------


def _unknown_cells(params: dict[str, Any]) -> CellList:
    rare = params["rare_every"]
    return [
        (("baseline",), {"scheme": "unsafe", "rare_every": rare,
                         "treat_unknown": False}),
        (("full",), {"scheme": "perspective", "rare_every": rare,
                     "treat_unknown": False}),
        (("unknown-allowed",), {"scheme": "perspective",
                                "rare_every": rare,
                                "treat_unknown": True}),
    ]


def _unknown_run(key: Key, cp: dict[str, Any]) -> Any:
    return {"cycles": unknown_allocations_cell(
        cp["scheme"], rare_every=cp["rare_every"],
        treat_unknown=cp["treat_unknown"])}


def _unknown_assemble(params: dict[str, Any], payloads: dict[Key, Any],
                      ) -> UnknownAllocationsResult:
    baseline = payloads[("baseline",)]["cycles"]
    return UnknownAllocationsResult(
        overhead_full_pct=unknown_overhead_pct(
            payloads[("full",)]["cycles"], baseline),
        overhead_unknown_allowed_pct=unknown_overhead_pct(
            payloads[("unknown-allowed",)]["cycles"], baseline))


def _slab_cells(params: dict[str, Any]) -> CellList:
    return [((app,), {"app": app, "requests": params["requests"],
                      "background_tenants": params["background_tenants"]})
            for app in params["apps"]]


def _slab_run(key: Key, cp: dict[str, Any]) -> Any:
    return slab_sensitivity_cell(
        cp["app"], requests=cp["requests"],
        background_tenants=cp["background_tenants"])


def _slab_assemble(params: dict[str, Any], payloads: dict[Key, Any],
                   ) -> SlabSensitivityResult:
    result = SlabSensitivityResult()
    for app in params["apps"]:
        cell = payloads[(app,)]
        result.secure_utilization[app] = cell["secure_utilization"]
        result.baseline_utilization[app] = cell["baseline_utilization"]
        result.page_return_ratio[app] = cell["page_return_ratio"]
        result.reassignments_per_second[app] = \
            cell["reassignments_per_second"]
        result.baseline_collocations[app] = cell["baseline_collocations"]
    return result


# ---------------------------------------------------------------------------
# Multi-tenant serving (repro.serve)
# ---------------------------------------------------------------------------


def _serve_cells(params: dict[str, Any]) -> CellList:
    config_keys = ("scheme", "requests_per_tenant", "mean_interarrival",
                   "queue_bound", "profiles", "rare_every",
                   "profile_requests", "shards", "placement",
                   "migrate_every", "service_model", "memo_warmup",
                   "memo_period",
                   # Observation-only extras (repro.serve.engine
                   # serve_cell): the report bytes are identical with or
                   # without them.
                   "block_cache", "trace", "slo_window")
    base = {k: params[k] for k in config_keys if k in params}
    return [((str(seed), str(tenants)),
             {**base, "seed": seed, "tenants": tenants,
              "observe": params["observe"]})
            for seed in params["seeds"]
            for tenants in params["tenants"]]


def _serve_run(key: Key, cp: dict[str, Any]) -> Any:
    from repro.serve.engine import serve_cell
    return serve_cell(cp, observe=cp["observe"])


def _serve_assemble(params: dict[str, Any],
                    payloads: dict[Key, Any]) -> dict[str, Any]:
    """JSON-able sweep summary; per-cell registries merge in declared
    cell order, so the merged snapshot is worker-count invariant."""
    cells = []
    merged = None
    traces = None
    rollup = None
    for seed in params["seeds"]:
        for tenants in params["tenants"]:
            cell = dict(payloads[(str(seed), str(tenants))])
            if params["observe"]:
                from repro.obs import MetricsRegistry
                part = MetricsRegistry.from_snapshot(cell.pop("metrics"))
                if merged is None:
                    merged = part
                else:
                    merged.merge(part)
            if params.get("trace"):
                from repro.obs.reqtrace import TraceRecorder
                part_tr = TraceRecorder.from_snapshot(cell.pop("traces"))
                if traces is None:
                    traces = part_tr
                else:
                    traces.merge(part_tr)
            if params.get("slo_window"):
                from repro.obs.slo import SloRollup
                part_slo = SloRollup.from_snapshot(cell.pop("slo"))
                if rollup is None:
                    rollup = part_slo
                else:
                    rollup.merge(part_slo)
            cells.append(cell)
    out: dict[str, Any] = {"cells": cells}
    if merged is not None:
        out["metrics"] = merged.snapshot()
    if traces is not None:
        out["traces"] = traces.snapshot()
    if rollup is not None:
        out["slo"] = rollup.snapshot()
    return out


# ---------------------------------------------------------------------------
# Sharded scaling curves (repro.serve.shard): one cell per shard
# ---------------------------------------------------------------------------


def _scale_cells(params: dict[str, Any]) -> CellList:
    """One cell per (scheme, tenants, shards, shard-index): each shard
    of each experiment runs as its own worker-schedulable cell, since
    shards share no kernel state and the placement plan is a pure
    function of the config."""
    config_keys = ("seed", "requests_per_tenant", "mean_interarrival",
                   "queue_bound", "profiles", "rare_every",
                   "profile_requests", "placement", "migrate_every",
                   "service_model", "memo_warmup", "memo_period",
                   "block_cache")
    base = {k: params[k] for k in config_keys if k in params}
    return [((scheme, str(tenants), str(shards), str(shard)),
             {**base, "scheme": scheme, "tenants": tenants,
              "shards": shards, "shard": shard})
            for scheme in params["schemes"]
            for tenants in params["tenants"]
            for shards in params["shards"]
            for shard in range(shards)]


def _scale_run(key: Key, cp: dict[str, Any]) -> Any:
    from repro.serve.shard import scale_shard_cell
    return scale_shard_cell(cp)


def _scale_assemble(params: dict[str, Any],
                    payloads: dict[Key, Any]) -> dict[str, Any]:
    """Scaling rows, merged per experiment in declared shard order
    (pure integer/float folds over JSON payloads: byte-exact under any
    worker fan-out)."""
    from repro.serve.shard import merge_scale_shards
    rows = []
    for scheme in params["schemes"]:
        for tenants in params["tenants"]:
            for shards in params["shards"]:
                cells = [payloads[(scheme, str(tenants), str(shards),
                                   str(shard))]
                         for shard in range(shards)]
                rows.append(merge_scale_shards(scheme, tenants, shards,
                                               cells))
    return {"experiments": rows}


# ---------------------------------------------------------------------------
# Adversarial serving campaign (repro.serve.campaign)
# ---------------------------------------------------------------------------


def _campaign_cells(params: dict[str, Any]) -> CellList:
    spec_keys = ("start_flavor", "victims", "attackers", "epochs",
                 "requests_per_epoch", "mean_interarrival", "queue_bound",
                 "profiles", "rare_every", "profile_requests",
                 "secret_hex", "min_events", "probe_after_clean",
                 "slo_factor", "slo_window_cycles", "slo_alert_evidence")
    base = {k: params[k] for k in spec_keys if k in params}
    return [((str(seed), scenario),
             {**base, "seed": seed, "scenario": scenario,
              "observe": params["observe"]})
            for seed in params["seeds"]
            for scenario in params["scenarios"]]


def _campaign_run(key: Key, cp: dict[str, Any]) -> Any:
    from repro.serve.campaign import campaign_cell
    return campaign_cell(cp, observe=cp["observe"])


def _campaign_assemble(params: dict[str, Any],
                       payloads: dict[Key, Any]) -> dict[str, Any]:
    """JSON-able campaign summary; per-cell registries merge in declared
    cell order, so the merged snapshot is worker-count invariant."""
    cells = []
    merged = None
    for seed in params["seeds"]:
        for scenario in params["scenarios"]:
            cell = dict(payloads[(str(seed), scenario)])
            if params["observe"]:
                from repro.obs import MetricsRegistry
                part = MetricsRegistry.from_snapshot(cell.pop("metrics"))
                if merged is None:
                    merged = part
                else:
                    merged.merge(part)
            cells.append(cell)
    out: dict[str, Any] = {"cells": cells}
    if merged is not None:
        out["metrics"] = merged.snapshot()
    return out


# ---------------------------------------------------------------------------
# Cross-paper defense matrix (conformance + attacks + overhead)
# ---------------------------------------------------------------------------


def _defense_defaults() -> dict[str, Any]:
    from repro.serve.conformance import CONFORMANCE_SCHEMES
    return {"schemes": list(CONFORMANCE_SCHEMES),
            "seeds": list(range(20)), "steps": 14, "tenants": 2,
            "rare_every": RARE_EVERY}


def _defense_cells(params: dict[str, Any]) -> CellList:
    cells: CellList = []
    for scheme in params["schemes"]:
        for seed in params["seeds"]:
            cells.append((("conformance", scheme, str(seed)),
                          {"kind": "conformance", "scheme": scheme,
                           "seed": seed, "steps": params["steps"],
                           "tenants": params["tenants"]}))
    for scheme in params["schemes"]:
        cells.append((("attacks", scheme),
                      {"kind": "attacks", "scheme": scheme}))
    for scheme in params["schemes"]:
        cells.append((("perf", scheme),
                      {"kind": "perf", "scheme": scheme,
                       "rare_every": params["rare_every"]}))
    return cells


def _defense_run(key: Key, cp: dict[str, Any]) -> Any:
    from repro.eval.defense_matrix import defense_matrix_cell
    return defense_matrix_cell(cp)


def _defense_assemble(params: dict[str, Any],
                      payloads: dict[Key, Any]) -> dict[str, Any]:
    from repro.eval.defense_matrix import assemble_matrix
    return assemble_matrix(params, payloads)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


GRIDS: dict[str, Grid] = {}


def _register(grid: Grid) -> Grid:
    GRIDS[grid.name] = grid
    return grid


_register(Grid(
    name="lebench",
    entry_modules=("repro.eval.runner",),
    defaults=lambda: {"schemes": list(PERF_SCHEMES),
                      "rare_every": RARE_EVERY},
    normalize=_with_unsafe,
    cells=_lebench_cells,
    run_cell=_lebench_run,
    assemble=_lebench_assemble,
))

_register(Grid(
    name="apps",
    entry_modules=("repro.eval.runner",),
    defaults=lambda: {"schemes": list(PERF_SCHEMES),
                      "apps": list(APP_NAMES), "requests": None,
                      "rare_every": RARE_EVERY},
    normalize=_with_unsafe,
    cells=_apps_cells,
    run_cell=_apps_run,
    assemble=_apps_assemble,
))

_register(Grid(
    name="surface",
    entry_modules=("repro.eval.runner",),
    defaults=lambda: {"apps": ["lebench"] + list(APP_NAMES)},
    normalize=_identity,
    cells=_surface_cells,
    run_cell=_surface_run,
    assemble=_surface_assemble,
))

_register(Grid(
    name="breakdown",
    entry_modules=("repro.eval.runner",),
    defaults=lambda: {"workloads": ["lebench"] + list(APP_NAMES),
                      "schemes": ["perspective-static", "perspective",
                                  "perspective++"],
                      "requests": 30, "observe": False},
    normalize=_identity,
    cells=_breakdown_cells,
    run_cell=_breakdown_run,
    assemble=_breakdown_assemble,
))

_register(Grid(
    name="sweep-branch",
    entry_modules=("repro.eval.sweeps",),
    defaults=lambda: {"values": [4.0, 7.0, 12.0, 20.0],
                      "scheme": "fence"},
    normalize=_identity,
    cells=_sweep_cells("branch_resolve_latency"),
    run_cell=_sweep_run,
    assemble=_sweep_assemble("branch_resolve_latency"),
))

_register(Grid(
    name="sweep-rob",
    entry_modules=("repro.eval.sweeps",),
    defaults=lambda: {"values": [48, 96, 192, 384], "scheme": "fence"},
    normalize=_identity,
    cells=_sweep_cells("rob_entries"),
    run_cell=_sweep_run,
    assemble=_sweep_assemble("rob_entries"),
))

_register(Grid(
    name="unknown-allocations",
    entry_modules=("repro.eval.sensitivity",),
    defaults=lambda: {"rare_every": RARE_EVERY},
    normalize=_identity,
    cells=_unknown_cells,
    run_cell=_unknown_run,
    assemble=_unknown_assemble,
))

_register(Grid(
    name="serve",
    entry_modules=("repro.serve.engine",),
    defaults=lambda: {"seeds": [0, 1], "tenants": [2, 3],
                      "scheme": "perspective", "requests_per_tenant": 6,
                      "mean_interarrival": 12_000.0, "queue_bound": 0,
                      "rare_every": RARE_EVERY, "observe": True},
    normalize=_identity,
    cells=_serve_cells,
    run_cell=_serve_run,
    assemble=_serve_assemble,
))

_register(Grid(
    name="serve-scale",
    entry_modules=("repro.serve.shard",),
    defaults=lambda: {"schemes": ["unsafe", "perspective"],
                      "tenants": [4, 8], "shards": [1, 2, 4],
                      "seed": 0, "requests_per_tenant": 400,
                      "mean_interarrival": 40_000.0, "queue_bound": 0,
                      "rare_every": 0, "profile_requests": 2,
                      "placement": "least-loaded", "migrate_every": 100,
                      "service_model": "memo", "memo_warmup": 1,
                      "memo_period": 24, "block_cache": True},
    normalize=_identity,
    cells=_scale_cells,
    run_cell=_scale_run,
    assemble=_scale_assemble,
))

_register(Grid(
    name="campaign",
    entry_modules=("repro.serve.campaign",),
    defaults=lambda: {"seeds": [0, 1],
                      "scenarios": ["none", "ibpb-storm", "refill-storm",
                                    "admission-storm"],
                      "observe": True},
    normalize=_identity,
    cells=_campaign_cells,
    run_cell=_campaign_run,
    assemble=_campaign_assemble,
))

_register(Grid(
    name="defense-matrix",
    entry_modules=("repro.eval.defense_matrix",),
    defaults=_defense_defaults,
    normalize=_with_unsafe,
    cells=_defense_cells,
    run_cell=_defense_run,
    assemble=_defense_assemble,
))

_register(Grid(
    name="slab-sensitivity",
    entry_modules=("repro.eval.sensitivity",),
    defaults=lambda: {"apps": list(APP_NAMES), "requests": 60,
                      "background_tenants": 3},
    normalize=_identity,
    cells=_slab_cells,
    run_cell=_slab_run,
    assemble=_slab_assemble,
))


def get_grid(name: str) -> Grid:
    try:
        return GRIDS[name]
    except KeyError:
        known = ", ".join(sorted(GRIDS))
        raise KeyError(
            f"unknown experiment {name!r} (known: {known})") from None


def grid_names() -> list[str]:
    return sorted(GRIDS)
