"""The evaluation's cells and result objects, one section per
table/figure.

Each ``*_cell`` function below measures one cell of a grid of
:mod:`repro.exec.grids` (LEBench, applications, attack surface, gadgets,
Kasper, breakdown) in fresh environments and returns its JSON payload;
the grid assembles the payloads into the plain data object defined next
to it, which the formatting layer (:mod:`repro.eval.tables`,
:mod:`repro.eval.figures`) renders in the paper's shape.  Run a grid
with ``repro.exec.run_experiment(name, params)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.analysis.binary import APPLICATIONS
from repro.analysis.flavors import flavor_isv
from repro.analysis.static_isv import static_isv_functions
from repro.eval.envs import build_isv_for, drive_workload, make_env
from repro.eval.metrics import FenceBreakdown, geomean, normalized
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.obs import registry as obs
from repro.obs.collect import collect_env
from repro.obs.instruments import INSTRUMENTS
from repro.scanner.kasper import discovery_speedup, scan
from repro.workloads.apps import APP_SPECS, AppWorkload
from repro.workloads.clients import CLIENTS
from repro.workloads.lebench import run_lebench

# ---------------------------------------------------------------------------
# Figure 9.2: LEBench normalized latency
# ---------------------------------------------------------------------------


@dataclass
class LEBenchExperiment:
    """Per-test cycles and normalized latency under every scheme."""

    schemes: tuple[str, ...]
    cycles: dict[str, dict[str, float]] = field(default_factory=dict)

    def normalized_latency(self, test: str, scheme: str) -> float:
        return normalized(self.cycles[scheme][test],
                          self.cycles["unsafe"][test])

    def average_overhead_pct(self, scheme: str) -> float:
        tests = self.cycles["unsafe"].keys()
        mean = geomean([self.normalized_latency(t, scheme) for t in tests])
        return 100.0 * (mean - 1.0)

    def max_overhead_pct(self, scheme: str) -> tuple[str, float]:
        """Worst-overhead test for a scheme.

        When every test speeds up (overhead <= 0, e.g. a caching scheme
        on a cold baseline) this returns the least-negative test rather
        than an empty name with a fabricated 0.0.
        """
        worst_test, worst = "", float("-inf")
        for test in self.cycles["unsafe"]:
            over = self.normalized_latency(test, scheme) - 1.0
            if over > worst:
                worst_test, worst = test, over
        if not worst_test:
            raise ValueError("max_overhead_pct: no LEBench tests measured")
        return worst_test, 100.0 * worst


def lebench_cell(scheme: str, rare_every: int) -> dict[str, Any]:
    """One (scheme) cell of the ``lebench`` grid: per-test average
    ``cycles``, plus the run's ``fenced_loads`` and ``committed_ops``."""
    env = make_env("lebench", scheme)
    stats: list = []
    cycles = run_lebench(env.kernel, env.proc, rare_every=rare_every,
                         collect_stats=stats)
    return {"cycles": cycles,
            "fenced_loads": sum(s.exec.total_fenced for s in stats),
            "committed_ops": sum(s.exec.committed_ops for s in stats)}


# ---------------------------------------------------------------------------
# Figure 9.3: datacenter application throughput
# ---------------------------------------------------------------------------


@dataclass
class AppsExperiment:
    """Per-app requests-per-second (simulated) under every scheme."""

    schemes: tuple[str, ...]
    #: app -> scheme -> cycles per request (kernel + fixed user budget).
    total_cycles_per_request: dict[str, dict[str, float]] = \
        field(default_factory=dict)
    kernel_cycles_per_request: dict[str, dict[str, float]] = \
        field(default_factory=dict)

    CORE_HZ = 2.0e9  # Table 7.1

    def rps(self, app: str, scheme: str) -> float:
        return self.CORE_HZ / self.total_cycles_per_request[app][scheme]

    def normalized_rps(self, app: str, scheme: str) -> float:
        return self.rps(app, scheme) / self.rps(app, "unsafe")

    def average_throughput_overhead_pct(self, scheme: str) -> float:
        mean = geomean([self.normalized_rps(app, scheme)
                        for app in self.total_cycles_per_request])
        return 100.0 * (1.0 - mean)


def apps_cell(app: str, scheme: str, requests: int | None,
              rare_every: int) -> dict[str, float]:
    """One (app, scheme) cell of the ``apps`` grid: kernel cycles per
    request of a client batch (``requests``, or the client's sampled
    count), served after a warm-up batch."""
    env = make_env(app, scheme)
    workload = AppWorkload(env.kernel, env.proc, APP_SPECS[app],
                           rare_every=rare_every)
    batch = requests if requests is not None \
        else CLIENTS[app].sampled_requests
    workload.serve(24)  # warmup to steady state
    return {"kernel_cycles_per_request":
            workload.serve(batch).kernel_cycles_per_request}


# ---------------------------------------------------------------------------
# Table 8.1: attack-surface reduction
# ---------------------------------------------------------------------------


@dataclass
class SurfaceExperiment:
    total_functions: int
    static_isv_size: dict[str, int] = field(default_factory=dict)
    dynamic_isv_size: dict[str, int] = field(default_factory=dict)

    def reduction(self, app: str, flavor: str) -> float:
        size = (self.static_isv_size if flavor == "static"
                else self.dynamic_isv_size)[app]
        return 1.0 - size / self.total_functions


def surface_cell(app: str) -> dict[str, int]:
    """One (app) cell of the ``surface`` grid: static/dynamic ISV
    sizes."""
    image = shared_image()
    static_size = len(static_isv_functions(image, APPLICATIONS[app]))
    kernel = MiniKernel(image=image)
    proc = kernel.create_process(app)
    isv = build_isv_for(kernel, proc, app, "dynamic")
    return {"static": static_size, "dynamic": len(isv),
            "total_functions": image.total_functions}


# ---------------------------------------------------------------------------
# Table 8.2: gadget reduction, and Figure 9.1: Kasper speedup
# ---------------------------------------------------------------------------


@dataclass
class GadgetExperiment:
    #: app -> flavor ("ISV-S" | "ISV" | "ISV++") -> class -> blocked frac.
    blocked: dict[str, dict[str, dict[str, float]]] = field(
        default_factory=dict)
    total_by_class: dict[str, int] = field(default_factory=dict)
    search_space_functions: dict[str, int] = field(default_factory=dict)


def gadget_cell(app: str) -> dict:
    """One (app) cell of the ``gadgets`` grid: the fraction of each
    gadget class blocked per ISV flavor, the dynamic ISV's size, and the
    whole-image gadget counts per class."""
    image = shared_image()
    report = scan(image)
    kernel = MiniKernel(image=image)
    proc = kernel.create_process(app)
    traced = build_isv_for(kernel, proc, app, "dynamic").functions
    views = {column: flavor_isv(image, proc.cgroup.cg_id, flavor,
                                binary=APPLICATIONS[app], traced=traced)
             for column, flavor in (("ISV-S", "static"), ("ISV", "dynamic"),
                                    ("ISV++", "++"))}
    return {
        "blocked": {
            column: {cls: report.blocked_fraction(isv.functions, cls)
                     for cls in ("mds", "port", "cache")}
            for column, isv in views.items()},
        "search_space_functions": len(traced),
        "total_by_class": report.by_class(),
    }


@dataclass
class KasperExperiment:
    #: app -> discovery-rate speedup (bounded / unbounded).
    speedups: dict[str, float] = field(default_factory=dict)

    @property
    def average(self) -> float:
        return geomean(list(self.speedups.values()))


def kasper_cell(app: str, hours: float, seed: int,
                n_seeds: int) -> dict[str, float]:
    """One (app) cell of the ``kasper`` grid: the discovery-rate
    ``speedup`` of fuzzing bounded to the app's dynamic ISV, averaged
    over ``n_seeds`` fuzzing seeds per paired campaign."""
    image = shared_image()
    kernel = MiniKernel(image=image)
    proc = kernel.create_process(app)
    isv = build_isv_for(kernel, proc, app, "dynamic")
    return {"speedup": discovery_speedup(
        image, app, isv.functions, hours=hours, seed=seed,
        n_seeds=n_seeds).speedup}


# ---------------------------------------------------------------------------
# Table 10.1 + sensitivity (Section 9.2)
# ---------------------------------------------------------------------------


@dataclass
class BreakdownExperiment:
    #: workload -> scheme -> FenceBreakdown
    breakdowns: dict[str, dict[str, FenceBreakdown]] = field(
        default_factory=dict)
    isv_cache_hit_rate: dict[str, dict[str, float]] = field(
        default_factory=dict)
    dsv_cache_hit_rate: dict[str, dict[str, float]] = field(
        default_factory=dict)
    #: Observability snapshot (``MetricsRegistry.snapshot()``) when the
    #: experiment ran with ``observe=True``; not part of the journal
    #: payload, so campaigns stay byte-compatible either way.
    metrics: dict | None = None


def env_cell(workload: str, scheme: str, passes: int, requests: int,
             observe: bool) -> dict:
    """One (workload, scheme) measurement: a cell of the ``breakdown``
    (Table 10.1) and ``obs-matrix`` grids, and one side of a
    differential profile.

    The environment is built under the ``env/<workload>.<scheme>`` and
    ``setup`` spans (its profiling runs drive syscalls that must not
    blend into the measurement's) and driven by
    :func:`~repro.eval.envs.drive_workload`; with ``observe`` set the
    per-environment figures are collected into the active registry as
    gauges under the ``<workload>.<scheme>`` prefix.  Returns the served
    requests' fence breakdown, the view-cache hit rates (``None``
    without a Perspective framework) and the ``driven`` totals of
    everything after :func:`make_env`, server setup included.
    """
    with obs.span(f"env/{workload}.{scheme}"):
        with obs.span("setup"):
            env = make_env(workload, scheme)
        driven, served = drive_workload(env.kernel, env.proc, workload,
                                        passes=passes, requests=requests)
    fw = env.framework
    if observe:
        collect_env(INSTRUMENTS.registry, env.kernel, fw,
                    prefix=f"{workload}.{scheme}")
    return {
        "breakdown": asdict(FenceBreakdown.from_exec(served.exec)),
        "isv_cache_hit_rate":
            None if fw is None else fw.isv_cache.stats.hit_rate,
        "dsv_cache_hit_rate":
            None if fw is None else fw.dsv_cache.stats.hit_rate,
        "driven": {"kernel_cycles": driven.kernel_cycles,
                   "syscalls": driven.syscalls,
                   "committed_ops": driven.exec.committed_ops},
    }

