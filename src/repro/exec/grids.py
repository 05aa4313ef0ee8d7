"""Grid definitions: the one registry of every experiment.

Every experiment of the evaluation (LEBench, applications, attack
surface, gadgets, Kasper, breakdown, sweeps, sensitivity analyses, the
Chapter 8 attack matrix) and every serving sweep is one of these grids,
run in process by :func:`repro.exec.engine.run_experiment` with a
params dict; every committed JSON snapshot is one run of one of them
(:mod:`repro.exec.snapshots`), and the resilient campaign runner
(:mod:`repro.reliability`) schedules the same grids; nothing else loops
over their cells or assembles their results.  A :class:`Grid`
describes one experiment as

* ``defaults()`` and ``optional`` -- the parameters it accepts (any
  other name raises ``TypeError``, see :meth:`Grid.resolve`);
* ``cells(params)`` -- the independent (workload, scheme, params) cells,
  in declared order;
* ``cell(**cell_params)`` -- one cell's computation: a per-cell
  function (``repro.eval.runner.lebench_cell`` etc.) called with the
  cell's params as keywords, returning the cell's JSON payload;
* ``assemble(params, payloads)`` -- rebuild the experiment object from
  the per-cell payloads, iterating in declared cell order (never in
  pool completion order).

Observation planes are this module's too.  :func:`run_cell` is the one
place a cell gets fresh planes: a cell whose params set ``observe``,
``trace`` or ``slo_window`` runs under a fresh metrics registry, request
tracer or SLO rollup, whose snapshot lands in its payload under
``"metrics"``, ``"traces"`` or ``"slo"``; :func:`fold_cells` pops those
snapshots back out and merges each plane in declared cell order.  The
cells themselves only publish content (summary gauges, collector
figures) through the ``repro.obs`` hooks.

Cell payloads are JSON values (the engine round-trips them through
``json`` either way), so a cell replayed from the on-disk cache -- or
from a campaign journal -- is indistinguishable from a freshly executed
one.  The result cache fingerprints every cell with the import closure
of this module, which reaches every cell's code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.attacks.base import DEFAULT_SECRET, AttackResult
from repro.attacks.harness import ATTACKS, SCHEMES, MatrixCell, security_cell
from repro.eval.envs import PERF_SCHEMES, RARE_EVERY
from repro.eval.metrics import FenceBreakdown
from repro.eval.runner import (
    AppsExperiment,
    BreakdownExperiment,
    GadgetExperiment,
    KasperExperiment,
    LEBenchExperiment,
    SurfaceExperiment,
    apps_cell,
    env_cell,
    gadget_cell,
    kasper_cell,
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
from repro.eval.sweeps import SweepResult, sweep_cell
from repro.kernel.image import shared_image
from repro.obs.instruments import instrumented
from repro.obs.registry import MetricsRegistry
from repro.obs.reqtrace import TraceRecorder
from repro.obs.slo import SloRollup
from repro.serve.campaign import CampaignSpec, campaign_cell
from repro.serve.conformance import (
    CONFORMANCE_SCHEMES,
    ConformanceResult,
    conformance_cell,
)
from repro.serve.engine import ServeConfig, serve_cell
from repro.serve.shard import merge_scale_shards, scale_shard_cell
from repro.workloads.apps import APP_NAMES, APP_SPECS

Key = tuple[str, ...]
CellList = list[tuple[Key, dict[str, Any]]]


def _identity(params: dict[str, Any]) -> dict[str, Any]:
    return params


@dataclass(frozen=True)
class Grid:
    """One grid-shaped experiment, decomposed for the engine."""

    name: str
    defaults: Callable[[], dict[str, Any]]
    cells: Callable[[dict[str, Any]], CellList]
    #: One cell's computation, called with the cell's params as keywords.
    cell: Callable[..., Any]
    assemble: Callable[[dict[str, Any], dict[Key, Any]], Any]
    #: Rewrites the merged parameters before the cells are laid out.
    normalize: Callable[[dict[str, Any]], dict[str, Any]] = _identity
    #: Parameters the cells read besides the ``defaults()`` keys.
    optional: tuple[str, ...] = ()

    def resolve(self, params: dict[str, Any]) -> dict[str, Any]:
        """The defaults overridden by ``params``, normalized.

        Raises ``TypeError`` naming every parameter that is neither a
        ``defaults()`` key nor in ``optional``: a misspelled name would
        otherwise be silently ignored.
        """
        defaults = self.defaults()
        unknown = sorted(set(params) - set(defaults) - set(self.optional))
        if unknown:
            raise TypeError(f"grid {self.name!r} got unknown parameter(s): "
                            f"{', '.join(unknown)}")
        return self.normalize({**defaults, **params})


def _fold(cls: Any, snapshots: list[Any]) -> Any:
    """Rebuild each per-cell snapshot with ``cls.from_snapshot`` and merge
    them in the given (declared cell) order; ``None`` when there are
    none.  The merged snapshot is therefore worker-count invariant."""
    merged = None
    for snapshot in snapshots:
        part = cls.from_snapshot(snapshot)
        if merged is None:
            merged = part
        else:
            merged.merge(part)
    return None if merged is None else merged.snapshot()


#: The planes a cell can ask for, in fold order: (the cell parameter
#: that asks, the payload key its snapshot lands under, its
#: ``instrumented`` keyword, its class, and a fresh plane from the
#: parameter's value).
_PLANES: tuple[tuple[str, str, str, type, Callable[[Any], Any]], ...] = (
    ("observe", "metrics", "registry", MetricsRegistry,
     lambda on: MetricsRegistry()),
    ("trace", "traces", "recorder", TraceRecorder,
     lambda on: TraceRecorder()),
    ("slo_window", "slo", "rollup", SloRollup,
     lambda window: SloRollup(float(window))),
)


def run_cell(experiment: str, cell_params: dict[str, Any]) -> Any:
    """Run one cell of a grid under the fresh planes its params ask for.

    The one place a grid cell gets planes: ``observe`` arms a
    :class:`MetricsRegistry`, ``trace`` a :class:`TraceRecorder` and
    ``slo_window`` a :class:`SloRollup` of that width, and each plane's
    snapshot lands in the payload under ``"metrics"``, ``"traces"`` or
    ``"slo"``.  Planes the cell does not ask for are inherited from the
    caller's ``instrumented(...)`` scope, not deactivated.
    """
    planes = {field: (keyword, fresh(cell_params[param]))
              for param, field, keyword, _, fresh in _PLANES
              if cell_params.get(param)}
    if planes:
        # The planes cover the whole cell but not the one-off kernel
        # image build, whichever cell of the process happens to pay it.
        shared_image()
    with instrumented(**dict(planes.values())):
        out = get_grid(experiment).cell(**cell_params)
    for field, (_, plane) in planes.items():
        out[field] = plane.snapshot()
    return out


def fold_cells(cells: CellList, payloads: dict[Key, Any],
               ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Split :func:`run_cell` payloads back into content and planes.

    Returns each cell's payload without its plane snapshots, in declared
    cell order, and each plane the cells asked for with their snapshots
    folded (:func:`_fold`) in that order, under its payload key.  The
    ``payloads`` themselves are left untouched.
    """
    contents = [dict(payloads[key]) for key, _ in cells]
    folded: dict[str, Any] = {}
    for param, field, _, cls, _ in _PLANES:
        merged = _fold(cls, [content.pop(field) for content, (_, cp)
                             in zip(contents, cells) if cp.get(param)])
        if merged is not None:
            folded[field] = merged
    return contents, folded


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


def _apps_assemble(params: dict[str, Any],
                   payloads: dict[Key, Any]) -> AppsExperiment:
    exp = AppsExperiment(schemes=tuple(params["schemes"]))
    for app in params["apps"]:
        per_scheme_kernel = {
            scheme: payloads[(app, scheme)]["kernel_cycles_per_request"]
            for scheme in params["schemes"]}
        # User code is not gated by kernel speculation control, so one
        # budget, from the UNSAFE baseline, serves every scheme.
        user = APP_SPECS[app].user_cycles_per_request(
            per_scheme_kernel["unsafe"])
        exp.kernel_cycles_per_request[app] = per_scheme_kernel
        exp.total_cycles_per_request[app] = {
            scheme: kernel + user
            for scheme, kernel in per_scheme_kernel.items()}
    return exp


# ---------------------------------------------------------------------------
# Attack-surface reduction (Table 8.1)
# ---------------------------------------------------------------------------


def _per_app_cells(params: dict[str, Any]) -> CellList:
    return [((app,), {"app": app}) for app in params["apps"]]


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
# Gadget reduction (Table 8.2) and Kasper speedup (Figure 9.1)
# ---------------------------------------------------------------------------


def _gadgets_assemble(params: dict[str, Any],
                      payloads: dict[Key, Any]) -> GadgetExperiment:
    first = payloads[(params["apps"][0],)]
    exp = GadgetExperiment(total_by_class=first["total_by_class"])
    for app in params["apps"]:
        cell = payloads[(app,)]
        exp.search_space_functions[app] = cell["search_space_functions"]
        exp.blocked[app] = cell["blocked"]
    return exp


def _kasper_cells(params: dict[str, Any]) -> CellList:
    return [((app,), {"app": app, "hours": params["hours"],
                      "seed": 11 + i, "n_seeds": params["n_seeds"]})
            for i, app in enumerate(params["apps"])]


def _kasper_assemble(params: dict[str, Any],
                     payloads: dict[Key, Any]) -> KasperExperiment:
    return KasperExperiment(speedups={
        app: payloads[(app,)]["speedup"] for app in params["apps"]})


# ---------------------------------------------------------------------------
# Security PoC matrix (Chapter 8)
# ---------------------------------------------------------------------------


def _security_cells(params: dict[str, Any]) -> CellList:
    return [((attack, scheme), {"attack": attack, "scheme": scheme,
                                "secret_hex": params["secret_hex"]})
            for attack in params["attacks"]
            for scheme in params["schemes"]]


def _security_assemble(params: dict[str, Any],
                       payloads: dict[Key, Any]) -> list[MatrixCell]:
    cells = []
    for attack in params["attacks"]:
        for scheme in params["schemes"]:
            cell = payloads[(attack, scheme)]
            cells.append(MatrixCell(attack, scheme, AttackResult(**{
                **cell, "secret": bytes.fromhex(cell["secret"]),
                "leaked": bytes.fromhex(cell["leaked"])})))
    return cells


# ---------------------------------------------------------------------------
# Fence breakdown / view-cache hit rates (Table 10.1)
# ---------------------------------------------------------------------------


def _env_cells(passes: int) -> Callable[[dict[str, Any]], CellList]:
    """One :func:`env_cell` per (workload, scheme), LEBench driven for
    ``passes`` passes.  A grid without an ``observe`` param (the
    ``obs-matrix``, whose result is its cells' metrics) observes every
    cell."""
    def cells(params: dict[str, Any]) -> CellList:
        return [((workload, scheme),
                 {"workload": workload, "scheme": scheme, "passes": passes,
                  "requests": params["requests"],
                  "observe": params.get("observe", True)})
                for workload in params["workloads"]
                for scheme in params["schemes"]]
    return cells


#: Table 10.1 drives LEBench twice; the observed matrix and the
#: differential profiler once.
_breakdown_cells = _env_cells(passes=2)
_obs_matrix_cells = _env_cells(passes=1)


def _breakdown_assemble(params: dict[str, Any],
                        payloads: dict[Key, Any]) -> BreakdownExperiment:
    exp = BreakdownExperiment()
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
    exp.metrics = fold_cells(_breakdown_cells(params),
                             payloads)[1].get("metrics")
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


#: The ``ServeConfig`` fields a serve cell reads besides the two its key
#: names, plus observation-only extras (the block JIT and two planes,
#: see run_cell): the report bytes are identical with or without them.
_SERVE_KEYS = tuple(f.name for f in fields(ServeConfig)
                    if f.name not in ("seed", "tenants")) + (
    "block_cache", "trace", "slo_window")


def _serve_cells(params: dict[str, Any]) -> CellList:
    base = {k: params[k] for k in _SERVE_KEYS if k in params}
    return [((str(seed), str(tenants)),
             {**base, "seed": seed, "tenants": tenants,
              "observe": params["observe"]})
            for seed in params["seeds"]
            for tenants in params["tenants"]]


def _serve_assemble(params: dict[str, Any],
                    payloads: dict[Key, Any]) -> dict[str, Any]:
    """JSON-able sweep summary; per-cell registries, request traces and
    SLO rollups fold in declared cell order."""
    cells, planes = fold_cells(_serve_cells(params), payloads)
    return {"cells": cells, **planes}


def _serve_sweep() -> dict[str, Any]:
    """The serve cells the ``serve`` and ``dashboard`` grids default to:
    two seeds x two tenant counts, six requests per tenant at a
    12k-cycle mean interarrival (an overloaded grid), observed."""
    return {"seeds": [0, 1], "tenants": [2, 3], "requests_per_tenant": 6,
            "mean_interarrival": 12_000.0, "observe": True}


# ---------------------------------------------------------------------------
# Serve-plane dashboard (the serve grid's cells, one set per scheme)
# ---------------------------------------------------------------------------


def _dashboard_defaults() -> dict[str, Any]:
    from repro.obs.dashboard import DASHBOARD_SCHEMES
    # Tracing, SLO windows and the block JIT feed the three panels.
    return {"schemes": list(DASHBOARD_SCHEMES), **_serve_sweep(),
            "trace": True, "slo_window": 50_000.0, "block_cache": True}


def _dashboard_parts(params: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Each dashboard scheme's resolved ``serve`` parameters."""
    sweep = {k: v for k, v in params.items() if k != "schemes"}
    return {scheme: get_grid("serve").resolve({**sweep, "scheme": scheme})
            for scheme in params["schemes"]}


def _dashboard_cells(params: dict[str, Any]) -> CellList:
    """The ``serve`` grid's cells for every scheme, each key prefixed by
    its scheme."""
    return [((scheme,) + key, cp)
            for scheme, part in _dashboard_parts(params).items()
            for key, cp in _serve_cells(part)]


def _dashboard_assemble(params: dict[str, Any],
                        payloads: dict[Key, Any]) -> dict[str, Any]:
    """The dashboard model (one panel per scheme, the sweep in ``meta``)
    and each scheme's merged request traces, for the trace exports."""
    from repro.obs.dashboard import build_model, build_scheme_panel
    panels: dict[str, Any] = {}
    traces: dict[str, Any] = {}
    for scheme, part in _dashboard_parts(params).items():
        result = _serve_assemble(part, {
            key[1:]: payload for key, payload in payloads.items()
            if key[0] == scheme})
        panels[scheme] = build_scheme_panel(
            result["metrics"], result["traces"], result["slo"])
        traces[scheme] = result["traces"]
    model = build_model(panels, meta={
        "schemes": sorted(params["schemes"]),
        "sweep": {k: params[k] for k in sorted(params) if k != "schemes"}})
    return {"model": model, "traces": traces}


# ---------------------------------------------------------------------------
# Observed workload matrix (one environment per cell, the plane armed)
# ---------------------------------------------------------------------------


def _obs_matrix_assemble(params: dict[str, Any],
                         payloads: dict[Key, Any]) -> dict[str, Any]:
    """One metrics snapshot: the environments' snapshots folded in
    declared cell order, the matrix in ``meta``."""
    registry = MetricsRegistry.from_snapshot(
        fold_cells(_obs_matrix_cells(params), payloads)[1]["metrics"])
    registry.meta.update({"plane": "repro.obs",
                          "workloads": list(params["workloads"]),
                          "schemes": list(params["schemes"]),
                          "requests": params["requests"]})
    return registry.snapshot()


# ---------------------------------------------------------------------------
# Sharded scaling curves (repro.serve.shard): one cell per shard
# ---------------------------------------------------------------------------


#: The ``ServeConfig`` fields a scale-shard cell reads besides the three
#: its key names, plus the block JIT.
_SCALE_KEYS = tuple(f.name for f in fields(ServeConfig)
                    if f.name not in ("scheme", "tenants", "shards")) + (
    "block_cache",)


def _scale_cells(params: dict[str, Any]) -> CellList:
    """One cell per (scheme, tenants, shards, shard-index): each shard
    of each experiment runs as its own worker-schedulable cell, since
    shards share no kernel state and the placement plan is a pure
    function of the config."""
    base = {k: params[k] for k in _SCALE_KEYS if k in params}
    return [((scheme, str(tenants), str(shards), str(shard)),
             {**base, "scheme": scheme, "tenants": tenants,
              "shards": shards, "shard": shard})
            for scheme in params["schemes"]
            for tenants in params["tenants"]
            for shards in params["shards"]
            for shard in range(shards)]


def _scale_assemble(params: dict[str, Any],
                    payloads: dict[Key, Any]) -> dict[str, Any]:
    """Scaling rows, merged per experiment in declared shard order
    (pure integer/float folds over JSON payloads: byte-exact under any
    worker fan-out)."""
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


#: The ``CampaignSpec`` fields a campaign cell reads besides the two its
#: key names.
_CAMPAIGN_KEYS = tuple(f.name for f in fields(CampaignSpec)
                       if f.name not in ("seed", "scenario"))


def _campaign_cells(params: dict[str, Any]) -> CellList:
    base = {k: params[k] for k in _CAMPAIGN_KEYS if k in params}
    return [((str(seed), scenario),
             {**base, "seed": seed, "scenario": scenario,
              "observe": params["observe"]})
            for seed in params["seeds"]
            for scenario in params["scenarios"]]


def _campaign_assemble(params: dict[str, Any],
                       payloads: dict[Key, Any]) -> dict[str, Any]:
    """JSON-able campaign summary; per-cell registries fold in declared
    cell order."""
    cells, planes = fold_cells(_campaign_cells(params), payloads)
    return {"cells": cells, **planes}


# ---------------------------------------------------------------------------
# Conformance oracle (repro.serve.conformance)
# ---------------------------------------------------------------------------


def _conformance_cells(params: dict[str, Any]) -> CellList:
    """One cell per seed, so each trace is profiled once for every
    scheme."""
    return [((str(seed),), {"seed": seed, "schemes": params["schemes"],
                            "steps": params["steps"],
                            "tenants": params["tenants"],
                            "cache_parity": params["cache_parity"]})
            for seed in params["seeds"]]


def _conformance_assemble(params: dict[str, Any],
                          payloads: dict[Key, Any]) -> list[Any]:
    results = []
    for seed in params["seeds"]:
        cell = payloads[(str(seed),)]
        results.append(ConformanceResult(
            **{**cell, "schemes": tuple(cell["schemes"]),
               "steps": params["steps"]}))
    return results


# ---------------------------------------------------------------------------
# Cross-paper defense matrix (the conformance, security and lebench cells)
# ---------------------------------------------------------------------------


def _defense_defaults() -> dict[str, Any]:
    """The ``conformance`` grid's defaults for the parameters the matrix
    passes it, and LEBench's rare-path period."""
    from repro.eval.defense_matrix import PARTS
    conformance = get_grid("conformance").defaults()
    return {**{key: conformance[key] for key in PARTS["conformance"]},
            "rare_every": RARE_EVERY}


def _defense_cells(params: dict[str, Any]) -> CellList:
    """The ``conformance``, ``security`` and ``lebench`` grids' cells
    for the matrix's schemes, each key prefixed by its grid's name and
    each cell's params naming it as ``grid``."""
    from repro.eval.defense_matrix import part_params
    return [((name,) + key, {"grid": name, **cp})
            for name, part in part_params(params).items()
            for key, cp in get_grid(name).cells(part)]


def _defense_cell(grid: str, **cell_params: Any) -> Any:
    return get_grid(grid).cell(**cell_params)


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
    defaults=lambda: {"schemes": list(PERF_SCHEMES),
                      "rare_every": RARE_EVERY},
    normalize=_with_unsafe,
    cells=_lebench_cells,
    cell=lebench_cell,
    assemble=_lebench_assemble,
))

_register(Grid(
    name="apps",
    defaults=lambda: {"schemes": list(PERF_SCHEMES),
                      "apps": list(APP_NAMES), "requests": None,
                      "rare_every": RARE_EVERY},
    normalize=_with_unsafe,
    cells=_apps_cells,
    cell=apps_cell,
    assemble=_apps_assemble,
))

_register(Grid(
    name="surface",
    defaults=lambda: {"apps": ["lebench"] + list(APP_NAMES)},
    cells=_per_app_cells,
    cell=surface_cell,
    assemble=_surface_assemble,
))

_register(Grid(
    name="gadgets",
    defaults=lambda: {"apps": ["lebench"] + list(APP_NAMES)},
    cells=_per_app_cells,
    cell=gadget_cell,
    assemble=_gadgets_assemble,
))

_register(Grid(
    name="kasper",
    defaults=lambda: {"apps": ["lebench"] + list(APP_NAMES),
                      "hours": 35.0, "n_seeds": 16},
    cells=_kasper_cells,
    cell=kasper_cell,
    assemble=_kasper_assemble,
))

_register(Grid(
    name="security",
    defaults=lambda: {"attacks": list(ATTACKS), "schemes": list(SCHEMES),
                      "secret_hex": DEFAULT_SECRET.hex()},
    cells=_security_cells,
    cell=security_cell,
    assemble=_security_assemble,
))

_register(Grid(
    name="breakdown",
    defaults=lambda: {"workloads": ["lebench"] + list(APP_NAMES),
                      "schemes": ["perspective-static", "perspective",
                                  "perspective++"],
                      "requests": 30, "observe": False},
    cells=_breakdown_cells,
    cell=env_cell,
    assemble=_breakdown_assemble,
))

_register(Grid(
    name="sweep-branch",
    defaults=lambda: {"values": [4.0, 7.0, 12.0, 20.0],
                      "scheme": "fence"},
    cells=_sweep_cells("branch_resolve_latency"),
    cell=sweep_cell,
    assemble=_sweep_assemble("branch_resolve_latency"),
))

_register(Grid(
    name="sweep-rob",
    defaults=lambda: {"values": [48, 96, 192, 384], "scheme": "fence"},
    cells=_sweep_cells("rob_entries"),
    cell=sweep_cell,
    assemble=_sweep_assemble("rob_entries"),
))

_register(Grid(
    name="unknown-allocations",
    defaults=lambda: {"rare_every": RARE_EVERY},
    cells=_unknown_cells,
    cell=unknown_allocations_cell,
    assemble=_unknown_assemble,
))

_register(Grid(
    name="serve",
    defaults=lambda: {**_serve_sweep(), "scheme": "perspective",
                      "queue_bound": 0, "rare_every": RARE_EVERY},
    cells=_serve_cells,
    cell=serve_cell,
    assemble=_serve_assemble,
    optional=_SERVE_KEYS,
))

_register(Grid(
    name="dashboard",
    defaults=_dashboard_defaults,
    cells=_dashboard_cells,
    cell=serve_cell,
    assemble=_dashboard_assemble,
))

_register(Grid(
    name="obs-matrix",
    defaults=lambda: {"workloads": ["lebench"],
                      "schemes": ["unsafe", "perspective"], "requests": 12},
    cells=_obs_matrix_cells,
    cell=env_cell,
    assemble=_obs_matrix_assemble,
))

_register(Grid(
    name="serve-scale",
    defaults=lambda: {"schemes": ["unsafe", "perspective"],
                      "tenants": [4, 8], "shards": [1, 2, 4],
                      "seed": 0, "requests_per_tenant": 400,
                      "mean_interarrival": 40_000.0, "queue_bound": 0,
                      "rare_every": 0, "profile_requests": 2,
                      "placement": "least-loaded", "migrate_every": 100,
                      "service_model": "memo", "memo_warmup": 1,
                      "memo_period": 24, "block_cache": True},
    cells=_scale_cells,
    cell=scale_shard_cell,
    assemble=_scale_assemble,
    optional=_SCALE_KEYS,
))

_register(Grid(
    name="campaign",
    defaults=lambda: {"seeds": [0, 1],
                      "scenarios": ["none", "ibpb-storm", "refill-storm",
                                    "admission-storm"],
                      "observe": True},
    cells=_campaign_cells,
    cell=campaign_cell,
    assemble=_campaign_assemble,
    optional=_CAMPAIGN_KEYS,
))

_register(Grid(
    name="conformance",
    defaults=lambda: {"schemes": list(CONFORMANCE_SCHEMES),
                      "seeds": list(range(20)), "steps": 14, "tenants": 2,
                      "cache_parity": False},
    cells=_conformance_cells,
    cell=conformance_cell,
    assemble=_conformance_assemble,
))

_register(Grid(
    name="defense-matrix",
    defaults=_defense_defaults,
    normalize=_with_unsafe,
    cells=_defense_cells,
    cell=_defense_cell,
    assemble=_defense_assemble,
))

_register(Grid(
    name="slab-sensitivity",
    defaults=lambda: {"apps": list(APP_NAMES), "requests": 60,
                      "background_tenants": 3},
    cells=_slab_cells,
    cell=slab_sensitivity_cell,
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
