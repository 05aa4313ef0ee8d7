"""The deterministic multi-tenant serving engine.

Model
-----

``tenants`` cgroup-backed processes are placed on ``shards`` simulated
cores.  Each shard is a private :class:`MiniKernel` -- its own pipeline,
cache hierarchy, branch unit, DSVMT and Perspective view caches -- so
shards share nothing microarchitectural.  A seeded open-loop arrival
process (:mod:`repro.serve.arrival`) offers each tenant a stream of
requests drawn from its request profile: the datacenter application
models (httpd/nginx/memcached/redis) plus a LEBench-style syscall mix.
The defaults (``shards=1``, ``service_model="full"``) are the
single-core engine.

Each shard runs a **run-to-completion scheduler** (:class:`ShardScheduler`)
that serves its arrivals in FIFO order.  Whenever the served tenant
changes, it issues the context-switch path (``sched_yield``) on the
*incoming* tenant's driver before the request, so the switch is charged
through the real pipeline and pays whatever the armed scheme makes it
pay: IBPB-style predictor flushes, cold ISV/DSV view-cache refills for
the incoming ASID, DSVMT walks.  This is where multi-tenant pressure
concentrates view-switch costs.

**Admission control**: when a shard's waiting queue holds ``queue_bound``
requests at arrival time, the arrival is shed.  Shed requests never
consume kernel cycles.

**Placement** (``placement``): ``hash`` (static, crc32 of a seeded
tenant key), ``affinity`` (static, same-profile tenants co-locate) or
``least-loaded`` (a tenant starts on the shard with the fewest routed
arrivals, seeded tie-break; every ``migrate_every``-th arrival
re-evaluates and migrates off a strictly overloaded shard).  The
destination of a migration pays an IBPB-style branch-unit reset plus
ASID-targeted view-cache invalidation, journals a ``tenant-migration``
event, and attributes the excess cycles of the cold dispatch over the
tenant's warm per-phase cost to ``migration_excess_cycles``.

**Service models** (``service_model``): ``full`` interprets every
request through the pipeline.  ``memo`` interprets each dispatch class
(tenant x request phase x migration-cold x rare-path phase)
``memo_warmup`` times, then replays its recorded cost by pure
accounting.  Replays freeze the microarchitectural drift within a class,
so ``memo`` approximates ``full``; ``docs/serving.md`` tabulates the
measured error.

Scheduling is event-driven: arrivals stream through a ``heapq`` merge
and each shard jumps from its ``free_at`` horizon straight to the next
arrival, never stepping idle cycles.

Userspace compute is *not* modeled here: every scheme pays identical
user cycles per request (defenses gate kernel speculation only), so
kernel-only figures preserve ordering while keeping the engine fast.

Determinism contract
--------------------

``run_serve(config)`` is a pure function of its config: same seed, same
byte-identical report, regardless of process, worker count, or
``PYTHONHASHSEED``.  The parity tests enforce this through the
:mod:`repro.exec` ``serve`` and ``serve-scale`` grids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field, fields
from random import Random
from typing import Any, Callable, Iterator
from zlib import crc32

from repro.analysis.binary import APPLICATIONS
from repro.analysis.flavors import FLAVORS, flavor_isv
from repro.defenses.registry import arm
from repro.eval.envs import RARE_EVERY
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.kernel.process import Process
from repro.obs import events as ev
from repro.obs import registry as obs
from repro.obs.instruments import INSTRUMENTS
from repro.obs.slo import LATENCY_BUCKETS
from repro.serve.arrival import Arrival, arrival_stream, percentile
from repro.workloads.apps import APP_SPECS, AppState
from repro.workloads.driver import Driver

#: Simulated core frequency (Table 7.1), for requests-per-second figures.
CORE_HZ = 2.0e9

PLACEMENT_POLICIES = ("hash", "least-loaded", "affinity")
SERVICE_MODELS = ("full", "memo")


# ---------------------------------------------------------------------------
# Request profiles
# ---------------------------------------------------------------------------


def _lebench_setup(driver: Driver, state: AppState) -> None:
    state.listen_fd = driver.call("socket", args=(0,)).retval
    state.log_fd = driver.call("open", args=(0,)).retval


def _lebench_request(driver: Driver, state: AppState, i: int) -> None:
    """A LEBench-flavoured mix: core kernel ops instead of socket serving."""
    driver.call("getpid")
    driver.call("read", args=(state.log_fd, 4096), spin=12)
    driver.call("write", args=(state.log_fd, 4096), spin=12)
    if i % 4 == 0:
        driver.call("futex", args=(0,), spin=24)
    if i % 8 == 0:
        driver.call("poll", args=(16,), spin=16)
    if i % 12 == 0:
        va = driver.call("mmap", args=(0, 4 * 4096)).retval
        driver.call("munmap", args=(va,))


@dataclass(frozen=True)
class RequestProfile:
    """One tenant's request mix: setup at boot, then a per-request body."""

    name: str
    setup: Callable[[Driver, AppState], None]
    request: Callable[[Driver, AppState, int], None]


def _app_profile(name: str) -> RequestProfile:
    spec = APP_SPECS[name]
    return RequestProfile(name=name, setup=spec.setup, request=spec.request)


REQUEST_PROFILES: dict[str, RequestProfile] = {
    **{name: _app_profile(name) for name in APP_SPECS},
    "lebench": RequestProfile("lebench", _lebench_setup, _lebench_request),
}

DEFAULT_PROFILES = ("httpd", "redis", "memcached", "lebench")

#: Request-mix periodicity per profile: the request bodies in
#: :mod:`repro.workloads.apps` condition only on ``i % k`` (and httpd /
#: nginx rotate the opened file kind over the six fops tables), so the
#: service-cost classes repeat with these periods.
PROFILE_PERIODS: dict[str, int] = {
    "httpd": 6, "nginx": 6, "memcached": 96, "redis": 24, "lebench": 24,
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """Everything the engine's outcome depends on."""

    scheme: str = "perspective"
    tenants: int = 3
    seed: int = 0
    requests_per_tenant: int = 40
    #: Mean interarrival gap per tenant, in simulated cycles.
    mean_interarrival: float = 400_000.0
    #: Max *waiting* (admitted, not yet started) requests; 0 = unbounded.
    queue_bound: int = 0
    #: Request-mix assignment, cycled over the tenants.
    profiles: tuple[str, ...] = DEFAULT_PROFILES
    rare_every: int = RARE_EVERY
    #: Requests per tenant during the offline ISV-profiling pass.
    profile_requests: int = 4
    #: Simulated cores, each a private MiniKernel.
    shards: int = 1
    placement: str = "hash"
    #: Re-evaluate a tenant's placement every Nth arrival (0 = never).
    #: Only ``least-loaded`` actually migrates; static policies never
    #: change their answer.
    migrate_every: int = 0
    service_model: str = "full"
    #: Interpreted dispatches per memo class before replay kicks in.
    memo_warmup: int = 1
    #: Cap on the per-profile phase period (0 = exact).  Smaller caps
    #: fold phases together: fewer warmup interpretations, coarser
    #: approximation.
    memo_period: int = 0

    def __post_init__(self) -> None:
        for name, ok, bound in (
                ("tenants", self.tenants >= 1, ">= 1"),
                ("requests_per_tenant", self.requests_per_tenant >= 0,
                 ">= 0"),
                ("mean_interarrival", self.mean_interarrival > 0, "> 0"),
                ("queue_bound", self.queue_bound >= 0,
                 ">= 0 (0 = unbounded)"),
                ("shards", self.shards >= 1, ">= 1"),
                ("migrate_every", self.migrate_every >= 0, ">= 0"),
                ("memo_warmup", self.memo_warmup >= 1, ">= 1"),
                ("memo_period", self.memo_period >= 0, ">= 0")):
            if not ok:
                raise ValueError(
                    f"{name} must be {bound}, got {getattr(self, name)!r}")
        if not self.profiles:
            raise ValueError("profiles must name at least one profile")
        unknown = sorted(set(self.profiles) - set(REQUEST_PROFILES))
        if unknown:
            raise ValueError(f"unknown profiles {unknown}; known: "
                             f"{sorted(REQUEST_PROFILES)}")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.service_model not in SERVICE_MODELS:
            raise ValueError(
                f"unknown service_model {self.service_model!r}")

    def profile_of(self, tenant: int) -> str:
        return self.profiles[tenant % len(self.profiles)]

    def period_of(self, tenant: int) -> int:
        period = PROFILE_PERIODS.get(self.profile_of(tenant), 96)
        if self.memo_period:
            period = min(period, self.memo_period)
        return period

    def arrivals(self) -> Iterator[Arrival]:
        """The merged arrival stream this config offers."""
        return arrival_stream(self.seed, self.tenants,
                              self.requests_per_tenant,
                              self.mean_interarrival)

    def as_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["profiles"] = list(self.profiles)
        return out


def config_from_params(params: dict[str, Any]) -> ServeConfig:
    """Build a :class:`ServeConfig` from a plain JSON-able param dict;
    keys that are not config fields (grid and observation extras) are
    ignored."""
    names = {f.name for f in fields(ServeConfig)}
    kwargs = {k: v for k, v in params.items() if k in names}
    if "profiles" in kwargs:
        kwargs["profiles"] = tuple(kwargs["profiles"])
    return ServeConfig(**kwargs)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Migration:
    """One cross-shard move, decided at arrival ``(tenant, seq)``."""

    tenant: int
    seq: int
    src: int
    dst: int


def static_placement(seed: int, tenant: int, shards: int) -> int:
    """The ``hash`` policy's answer (pure, PYTHONHASHSEED-proof)."""
    return crc32(f"serve:place:{seed}:tenant:{tenant}".encode()) % shards


def affinity_placement(seed: int, profile: str, shards: int) -> int:
    """The ``affinity`` policy's answer: co-locate by profile name."""
    return crc32(f"serve:place:{seed}:profile:{profile}".encode()) % shards


class Placer:
    """Incremental, deterministic tenant->shard routing.

    A pure function of the arrival sequence it is fed: the load counters
    that drive ``least-loaded`` count *routed arrivals*, which depend
    only on earlier routing decisions -- never on service outcomes -- so
    a planning pass, the serving pass, and every per-shard grid cell
    all reconstruct identical placements independently.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.home: dict[int, int] = {}
        self.load = [0] * config.shards
        self.seen: dict[int, int] = {}
        self._decisions: dict[int, int] = {}
        self.migrations: list[Migration] = []
        #: Re-evaluate a tenant's home every this many of its arrivals;
        #: 0 when the policy never migrates (static policies never
        #: change their answer).
        self._every = (config.migrate_every
                       if config.placement == "least-loaded" else 0)

    def _choose_least_loaded(self, tenant: int) -> int:
        lo = min(self.load)
        candidates = [s for s in range(self.config.shards)
                      if self.load[s] == lo]
        if len(candidates) == 1:
            return candidates[0]
        k = self._decisions.get(tenant, 0)
        rng = Random(
            f"serve:place:{self.config.seed}:tenant:{tenant}:tie:{k}")
        return candidates[rng.randrange(len(candidates))]

    def _initial(self, tenant: int) -> int:
        config = self.config
        if config.placement == "hash":
            return static_placement(config.seed, tenant, config.shards)
        if config.placement == "affinity":
            return affinity_placement(
                config.seed, config.profile_of(tenant), config.shards)
        return self._choose_least_loaded(tenant)

    def route(self, arr: Arrival) -> tuple[int, Migration | None]:
        """Route one arrival; returns (shard, migration-or-None)."""
        tenant = arr.tenant
        seen = self.seen.get(tenant, 0)
        self.seen[tenant] = seen + 1
        shard = self.home.get(tenant)
        migration = None
        if shard is None:
            shard = self.home[tenant] = self._initial(tenant)
            self._decisions[tenant] = self._decisions.get(tenant, 0) + 1
        elif self._every and seen % self._every == 0:
            load = self.load
            if load[shard] > min(load):
                dst = self._choose_least_loaded(tenant)
                self._decisions[tenant] += 1
                if dst != shard:
                    migration = Migration(tenant=tenant, seq=arr.seq,
                                          src=shard, dst=dst)
                    self.migrations.append(migration)
                    shard = self.home[tenant] = dst
        self.load[shard] += 1
        return shard, migration


def plan_placement(config: ServeConfig,
                   ) -> tuple[list[list[int]], list[Migration], list[int]]:
    """Streaming pre-pass: which tenants ever run on which shard.

    Returns (members-per-shard, migrations, arrivals-routed-per-shard).
    Each shard boots exactly its member set -- cross-shard moves are
    known before any kernel exists, which is what lets shards run as
    independent :mod:`repro.exec` grid cells.
    """
    placer = Placer(config)
    route = placer.route
    members: list[set[int]] = [set() for _ in range(config.shards)]
    for arr in config.arrivals():
        members[route(arr)[0]].add(arr.tenant)
    return ([sorted(m) for m in members], placer.migrations,
            list(placer.load))


# ---------------------------------------------------------------------------
# Environment construction (multi-tenant make_env)
# ---------------------------------------------------------------------------


@dataclass
class Tenant:
    """A booted tenant: its process, measurement driver, and state."""

    index: int
    profile: RequestProfile
    proc: Process
    driver: Driver
    state: AppState
    counter: int = 0


def boot_tenants(config: ServeConfig, image=None, *,
                 block_cache: bool | None = None,
                 indices: list[int] | None = None,
                 ) -> tuple[MiniKernel, list[Tenant]]:
    """Boot one kernel with ``config.tenants`` cgroup-backed processes,
    run the offline profiling pass, arm the scheme, and run each
    tenant's server setup under the armed policy.

    Mirrors :func:`repro.eval.envs.make_env`'s deployment flow, but for
    N distrusting contexts sharing the machine: every tenant gets its
    own cgroup (so its own DSV/DSVMT and, for Perspective flavors, its
    own installed ISV).

    ``indices`` restricts the boot to a subset of the config's global
    tenant indices (a shard boots only the tenants placed on its core);
    the default boots all of them.
    """
    kernel = MiniKernel(image=shared_image() if image is None else image)
    if block_cache is not None:
        kernel.pipeline.config.enable_block_cache = block_cache
    procs: list[tuple[int, Process, RequestProfile]] = []
    for index in (range(config.tenants) if indices is None else indices):
        profile = REQUEST_PROFILES[config.profile_of(index)]
        proc = kernel.create_process(f"tenant{index}.{profile.name}")
        procs.append((index, proc, profile))

    # Offline profiling pass (identical for every scheme: history parity,
    # exactly as make_env does for single-tenant environments).
    kernel.tracer.start()
    for _, proc, profile in procs:
        driver = Driver(kernel, proc, rare_every=0)
        state = AppState()
        profile.setup(driver, state)
        for i in range(config.profile_requests):
            profile.request(driver, state, i)
    kernel.tracer.stop()

    flavor = FLAVORS.get(config.scheme)
    arm(kernel, config.scheme, () if flavor is None else [
        flavor_isv(kernel.image, proc.cgroup.cg_id, flavor,
                   binary=APPLICATIONS[profile.name],
                   traced=kernel.tracer.traced_functions(proc.cgroup.cg_id))
        for _, proc, profile in procs])

    tenants: list[Tenant] = []
    for index, proc, profile in procs:
        driver = Driver(kernel, proc, rare_every=config.rare_every)
        state = AppState()
        profile.setup(driver, state)
        driver.reset_stats()  # setup is boot, not served traffic
        tenants.append(Tenant(index=index, profile=profile, proc=proc,
                              driver=driver, state=state))
    return kernel, tenants


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class TenantReport:
    """Per-tenant outcome of one engine run."""

    tenant: int
    profile: str
    arrivals: int = 0
    admitted: int = 0
    shed: int = 0
    #: Sheds forced by the ``admission-queue-corrupt`` fault (a subset of
    #: ``shed``): the corrupted slot was discarded, never dispatched.
    corrupt_shed: int = 0
    completed: int = 0
    kernel_cycles: float = 0.0
    syscalls: int = 0
    switches: int = 0
    switch_cycles: float = 0.0
    fence_stall_cycles: float = 0.0
    fenced_loads: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q) if self.latencies else 0.0

    def merge(self, other: TenantReport) -> None:
        """Add another shard's share of this tenant."""
        self.arrivals += other.arrivals
        self.admitted += other.admitted
        self.shed += other.shed
        self.corrupt_shed += other.corrupt_shed
        self.completed += other.completed
        self.kernel_cycles += other.kernel_cycles
        self.syscalls += other.syscalls
        self.switches += other.switches
        self.switch_cycles += other.switch_cycles
        self.fence_stall_cycles += other.fence_stall_cycles
        for kind, count in other.fenced_loads.items():
            self.fenced_loads[kind] = self.fenced_loads.get(kind, 0) + count
        self.fenced_loads = dict(sorted(self.fenced_loads.items()))
        self.latencies.extend(other.latencies)

    def as_dict(self) -> dict[str, Any]:
        # Sorted once: percentile's own sort of a sorted list is linear.
        ordered = sorted(self.latencies)
        return {
            "tenant": self.tenant, "profile": self.profile,
            "arrivals": self.arrivals, "admitted": self.admitted,
            "shed": self.shed, "corrupt_shed": self.corrupt_shed,
            "completed": self.completed,
            "kernel_cycles": self.kernel_cycles,
            "syscalls": self.syscalls,
            "switches": self.switches,
            "switch_cycles": self.switch_cycles,
            "fence_stall_cycles": self.fence_stall_cycles,
            "fenced_loads": dict(sorted(self.fenced_loads.items())),
            "latency_p50": percentile(ordered, 50.0) if ordered else 0.0,
            "latency_p95": percentile(ordered, 95.0) if ordered else 0.0,
            "latency_p99": percentile(ordered, 99.0) if ordered else 0.0,
            "latency_mean": (sum(self.latencies) / len(self.latencies)
                             if self.latencies else 0.0),
            "latency_max": max(self.latencies, default=0.0),
        }


@dataclass
class ShardReport:
    """Per-shard outcome (JSON-stable via as_dict)."""

    shard: int
    tenants: list[int]
    arrivals: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    makespan_cycles: float = 0.0
    kernel_cycles: float = 0.0
    switches: int = 0
    switch_cycles: float = 0.0
    migrations_in: int = 0
    ibpb_flushes: int = 0
    migration_cold_dispatches: int = 0
    migration_excess_cycles: float = 0.0
    memo_keys: int = 0
    memo_replays: int = 0
    memo_interpreted: int = 0

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class ServeReport:
    """Aggregate outcome of one engine run (JSON-stable via as_dict)."""

    config: ServeConfig
    tenants: list[TenantReport] = field(default_factory=list)
    shards: list[ShardReport] = field(default_factory=list)
    makespan_cycles: float = 0.0
    migrations: list[Migration] = field(default_factory=list)
    placement_home: dict[int, int] = field(default_factory=dict)
    #: The shards' schedulers (kernels, tenants, memo tables), for memo
    #: transplanting and harnesses that read kernel counters.
    _states: list[ShardScheduler] = field(default_factory=list,
                                          repr=False, compare=False)

    @classmethod
    def of(cls, config: ServeConfig, shards: list[ShardScheduler],
           placer: Placer) -> ServeReport:
        """Collect finished shards into the run's report."""
        tenants = [TenantReport(tenant=i, profile=config.profile_of(i))
                   for i in range(config.tenants)]
        for sched in shards:
            sched.collect()
            for merged, part in zip(tenants, sched.reports):
                merged.merge(part)
        return cls(config=config, tenants=tenants,
                   shards=[sched.shard_report() for sched in shards],
                   makespan_cycles=max(sched.makespan for sched in shards),
                   migrations=list(placer.migrations),
                   placement_home=dict(placer.home), _states=shards)

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants)

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    @property
    def all_latencies(self) -> list[float]:
        merged: list[float] = []
        for tenant in self.tenants:
            merged.extend(tenant.latencies)
        return merged

    @property
    def throughput_rps(self) -> float:
        if self.makespan_cycles <= 0.0:
            return 0.0
        return self.completed * CORE_HZ / self.makespan_cycles

    def as_dict(self) -> dict[str, Any]:
        # Sorted once: percentile's own sort of a sorted list is linear.
        latencies = sorted(self.all_latencies)
        return {
            "config": self.config.as_dict(),
            "makespan_cycles": self.makespan_cycles,
            "completed": self.completed,
            "shed": self.shed,
            "throughput_rps": self.throughput_rps,
            "latency_p50": percentile(latencies, 50.0) if latencies else 0.0,
            "latency_p95": percentile(latencies, 95.0) if latencies else 0.0,
            "latency_p99": percentile(latencies, 99.0) if latencies else 0.0,
            "kernel_cycles": sum(t.kernel_cycles for t in self.tenants),
            "switches": sum(t.switches for t in self.tenants),
            "switch_cycles": sum(t.switch_cycles for t in self.tenants),
            "fence_stall_cycles": sum(t.fence_stall_cycles
                                      for t in self.tenants),
            "tenants": [t.as_dict() for t in self.tenants],
            "shards": [s.as_dict() for s in self.shards],
            "placement": {
                "policy": self.config.placement,
                "home": {str(t): s for t, s
                         in sorted(self.placement_home.items())},
            },
            "migrations": len(self.migrations),
            "migration_excess_cycles": sum(
                s.migration_excess_cycles for s in self.shards),
            "memo_replays": sum(s.memo_replays for s in self.shards),
            "memo_interpreted": sum(s.memo_interpreted
                                    for s in self.shards),
        }


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoRecord:
    """The measured cost of one interpreted dispatch class."""

    kernel_cycles: float
    syscalls: int
    driver_calls: int
    fence_stall_cycles: float
    fenced_loads: tuple[tuple[str, int], ...]


class ShardScheduler:
    """FIFO run-to-completion scheduling on one shard's core.

    ``tenants`` is indexed by global tenant index; entries for tenants
    placed elsewhere are ``None``.  The adversarial campaign
    (:mod:`repro.serve.campaign`) serves several offered batches through
    one instance: the busy clock (``free_at``), the waiting queue, and
    the last-served tenant all carry across epochs, exactly as they
    would on a long-lived server.
    """

    def __init__(self, config: ServeConfig, tenants: list[Tenant | None],
                 *, kernel: MiniKernel | None = None, index: int = 0,
                 trace_cell: str = "") -> None:
        self.tenants = tenants
        self.members = [t.index for t in tenants if t is not None]
        self.reports = [TenantReport(tenant=i, profile=config.profile_of(i))
                        for i in range(config.tenants)]
        self.kernel = kernel
        self.index = index
        self.queue_bound = config.queue_bound
        self.waiting: deque[Arrival] = deque()
        self.free_at = 0.0
        self.current: int | None = None
        self.makespan = 0.0
        #: Event-skip horizon: a cached lower bound on the next backlog
        #: dispatch's start cycle.  ``free_at`` only ever grows and the
        #: queue head only moves to later arrivals, so a stale value
        #: stays a lower bound -- arrivals strictly before it can skip
        #: the head re-scan without changing a single dispatch.
        self._next_start = 0.0
        #: Request-trace identity inputs (repro.obs.reqtrace): trace IDs
        #: derive from (trace_seed, trace_cell, tenant, arrival seq).
        #: The campaign re-labels trace_cell per epoch.
        self.trace_seed = config.seed
        self.trace_cell = trace_cell
        self._periods = [config.period_of(i) for i in range(config.tenants)]
        #: tenant -> source shard of a pending (not yet charged) move-in.
        self._cold_from: dict[int, int] = {}
        self.migrations_in = 0
        self.tenant_migrations: dict[int, int] = {}
        self.ibpb_flushes = 0
        self.migration_cold_dispatches = 0
        self.migration_excess_cycles = 0.0
        #: (tenant, phase) -> last warm total service cycles, the
        #: reference the cold-dispatch excess is attributed against.
        self._warm_obs: dict[tuple[int, int], float] = {}
        # Memo classes: service keyed (tenant, phase, cold, rare-phase),
        # switch keyed ("sw", tenant, cold, rare-phase).
        self.memo_mode = config.service_model == "memo"
        self.memo_warmup = config.memo_warmup
        self._memo: dict[tuple, MemoRecord] = {}
        self._seen: dict[tuple, int] = {}
        self.memo_replays = 0
        self.memo_interpreted = 0

    # -- migration ---------------------------------------------------------

    def note_migration(self, tenant: int, src: int) -> None:
        """A tenant just migrated in; its next dispatch runs cold."""
        self._cold_from[tenant] = src
        self.migrations_in += 1
        self.tenant_migrations[tenant] = \
            self.tenant_migrations.get(tenant, 0) + 1
        obs.add("serve.migrations")

    def _flush_for_migration(self, tenant_idx: int, src: int) -> None:
        """Charge the move-in on this core: IBPB-style full predictor
        flush plus ASID-targeted view-cache invalidation, so the next
        dispatches pay cold-refill costs through the real pipeline."""
        ctx = self.tenants[tenant_idx].proc.cgroup.cg_id
        self.kernel.branch_unit.reset()
        # Force the context-switch flush path on the next syscall too:
        # whatever ran last on this core, the migrated context is new.
        self.kernel._last_kernel_ctx = None
        framework = getattr(self.kernel.pipeline.policy, "framework", None)
        if framework is not None:
            framework.isv_cache.invalidate_asid(ctx)
            framework.dsv_cache.invalidate_asid(ctx)
        self.ibpb_flushes += 1
        self.migration_cold_dispatches += 1
        obs.add("serve.migration.flushes")
        ev.emit("tenant-migration", context=ctx,
                reason=f"shard{src}->shard{self.index}",
                scheme=self.kernel.pipeline.policy.name)

    # -- memo --------------------------------------------------------------

    def _memo_cost(self, prefix: tuple, tenant: Tenant,
                   report: TenantReport, run: Callable, *args,
                   ) -> tuple[float, bool]:
        """Kernel cycles of one dispatch of the memo class ``prefix`` +
        the driver's rare-path phase, and whether they were replayed.

        A class interpreted ``memo_warmup`` times replays its recorded
        cost by pure accounting (folded into the report, on top of the
        driver's counters that :meth:`collect` adds later); otherwise
        ``run(*args)`` is interpreted and its cost recorded.
        """
        driver = tenant.driver
        rare = driver.rare_every
        key = prefix + (driver._counter % rare if rare else 0,)
        memo = self._memo.get(key)
        reg = INSTRUMENTS.registry
        if memo is not None and self._seen.get(key, 0) >= self.memo_warmup:
            report.kernel_cycles += memo.kernel_cycles
            report.syscalls += memo.syscalls
            report.fence_stall_cycles += memo.fence_stall_cycles
            fenced = report.fenced_loads
            for kind, count in memo.fenced_loads:
                fenced[kind] = fenced.get(kind, 0) + count
            # Advance the driver's call counter so rare-path phases stay
            # aligned with what full interpretation would have seen.
            driver._counter += memo.driver_calls
            self.memo_replays += 1
            if reg is not None:
                reg.add("serve.memo.replays")
            return memo.kernel_cycles, True
        stats = driver.stats
        cycles, syscalls, calls = \
            stats.kernel_cycles, stats.syscalls, driver._counter
        stall = stats.exec.fence_stall_cycles
        fenced_before = dict(stats.exec.fenced_loads)
        run(*args)
        memo = self._memo[key] = MemoRecord(
            kernel_cycles=stats.kernel_cycles - cycles,
            syscalls=stats.syscalls - syscalls,
            driver_calls=driver._counter - calls,
            fence_stall_cycles=stats.exec.fence_stall_cycles - stall,
            fenced_loads=tuple(sorted(
                (kind, count - fenced_before.get(kind, 0))
                for kind, count in stats.exec.fenced_loads.items()
                if count != fenced_before.get(kind, 0))))
        self._seen[key] = self._seen.get(key, 0) + 1
        self.memo_interpreted += 1
        if reg is not None:
            reg.add("serve.memo.interpreted")
        return memo.kernel_cycles, False

    def preload_memo(self, tables: dict[tuple, MemoRecord]) -> None:
        """Transplant memo tables from a prior run of the same config
        (the benchmark pre-warms once, then times pure scheduling)."""
        self._memo.update(tables)
        for key in tables:
            self._seen[key] = self.memo_warmup

    def memo_tables(self) -> dict[tuple, MemoRecord]:
        return dict(self._memo)

    # -- serving -----------------------------------------------------------

    def _trace_for(self, rec, arr: Arrival):
        return (rec.lookup(self.trace_seed, self.trace_cell,
                           arr.tenant, arr.seq)
                or rec.admit(self.trace_seed, self.trace_cell,
                             arr.tenant, arr.seq, arr.cycle))

    def dispatch(self, arr: Arrival) -> None:
        """Serve one request: charge a pending migration, switch tenants
        if needed, run (or replay) the request, then account latency.

        The planes are read once; an unarmed one costs an ``is None``
        test and no hook call."""
        cycle, idx, _ = arr
        tenant = self.tenants[idx]
        report = self.reports[idx]
        driver = tenant.driver
        cold = idx in self._cold_from
        if cold:
            self._flush_for_migration(idx, self._cold_from.pop(idx))
        phase = tenant.counter % self._periods[idx]
        start = max(self.free_at, cycle)
        switched = self.current != idx
        ins = INSTRUMENTS
        reg = ins.registry
        rec = ins.recorder
        rollup = ins.rollup
        trace = None
        if rec is not None:
            trace = self._trace_for(rec, arr)
            rec.open(trace)
            rec.record("sched", "slice", 0.0,
                       {"start_cycle": start,
                        "queue_wait": start - cycle,
                        "switch": switched})
        memo = self.memo_mode
        before = driver.stats.kernel_cycles
        switch_cycles = 0.0
        if switched:
            # Context switch, charged through the real pipeline: the
            # incoming tenant runs the switch path under the armed
            # scheme (predictor flush, cold view-cache refills, DSVMT
            # walks for the new ASID -- whatever the scheme costs).
            if memo:
                switch_cycles, _ = self._memo_cost(
                    ("sw", idx, cold), tenant, report,
                    driver.call, "sched_yield")
            else:
                switch_cycles = driver.call("sched_yield").cycles
            report.switches += 1
            report.switch_cycles += switch_cycles
            self.current = idx
            if reg is not None:
                reg.add("serve.switches")
                reg.observe("serve.switch_cycles", switch_cycles)
        if memo:
            service, replayed = self._memo_cost(
                (idx, phase, cold), tenant, report,
                tenant.profile.request, driver, tenant.state, tenant.counter)
            if replayed and rec is not None:
                rec.record("service", "memo-replay", service, {})
            cost = switch_cycles + service
            completion = start + switch_cycles + service
        else:
            tenant.profile.request(driver, tenant.state, tenant.counter)
            cost = driver.stats.kernel_cycles - before
            completion = start + cost
        tenant.counter += 1
        if cold:
            warm = self._warm_obs.get((idx, phase))
            if warm is not None:
                self.migration_excess_cycles += max(0.0, cost - warm)
        else:
            self._warm_obs[(idx, phase)] = cost
        latency = completion - cycle
        self.free_at = completion
        if completion > self.makespan:
            self.makespan = completion
        report.completed += 1
        report.latencies.append(latency)
        if reg is not None:
            reg.observe("serve.latency_cycles", latency,
                        buckets=LATENCY_BUCKETS)
            reg.observe(f"serve.tenant.{idx}.latency_cycles", latency,
                        buckets=LATENCY_BUCKETS)
            reg.add("serve.requests.completed")
        if rollup is not None:
            rollup.record_request(completion, latency)
        if rec is not None:
            rec.close(trace, "completed", start_cycle=start,
                      completion_cycle=completion, latency_cycles=latency)
            rec.exemplar("serve.latency_cycles", latency,
                         LATENCY_BUCKETS, trace.trace_id)
            rec.exemplar(f"serve.tenant.{idx}.latency_cycles",
                         latency, LATENCY_BUCKETS, trace.trace_id)

    def offer(self, arr: Arrival) -> None:
        """Handle one arrival: serve whatever starts first, then admit,
        shed (queue bound), or discard (corrupt admission slot)."""
        cycle, idx, _ = arr
        self.drain_until(cycle)
        report = self.reports[idx]
        report.arrivals += 1
        ins = INSTRUMENTS
        rec = ins.recorder
        plane = ins.faults
        if plane is not None \
                and plane.should_fire("admission-queue-corrupt"):
            # The queue slot failed its integrity check: the request is
            # shed -- fail closed, a request with corrupt tenant metadata
            # is never dispatched under the wrong context's views.
            report.shed += 1
            report.corrupt_shed += 1
            reg = ins.registry
            if reg is not None:
                reg.add("serve.requests.shed")
                reg.add("serve.requests.corrupt_shed")
                reg.add(f"serve.tenant.{idx}.shed")
            ev.emit("fault-fallback", context=idx,
                    reason="admission-corrupt-shed")
            rollup = ins.rollup
            if rollup is not None:
                rollup.record_shed(cycle)
            if rec is not None:
                trace = self._trace_for(rec, arr)
                rec.note(trace, "admission", "corrupt-shed",
                         queue_depth=len(self.waiting))
                rec.close(trace, "corrupt-shed")
            return
        if self.queue_bound and len(self.waiting) >= self.queue_bound:
            report.shed += 1
            reg = ins.registry
            if reg is not None:
                reg.add("serve.requests.shed")
                reg.add(f"serve.tenant.{idx}.shed")
            rollup = ins.rollup
            if rollup is not None:
                rollup.record_shed(cycle)
            if rec is not None:
                trace = self._trace_for(rec, arr)
                rec.note(trace, "admission", "shed",
                         queue_depth=len(self.waiting))
                rec.close(trace, "shed")
            return
        report.admitted += 1
        if rec is not None:
            trace = self._trace_for(rec, arr)
            rec.note(trace, "admission", "admit",
                     queue_depth=len(self.waiting))
        if not self.waiting:
            self._next_start = max(self.free_at, cycle)
        self.waiting.append(arr)

    def drain_until(self, cycle: float) -> None:
        """Serve every queued request that starts at or before ``cycle``."""
        # The horizon check skips the idle gap up to the next possible
        # dispatch start in O(1) (byte-identical: when it skips, the loop
        # below would dispatch nothing anyway).
        waiting = self.waiting
        if waiting and cycle >= self._next_start:
            while waiting and max(self.free_at, waiting[0].cycle) <= cycle:
                self.dispatch(waiting.popleft())
            if waiting:
                self._next_start = max(self.free_at, waiting[0].cycle)

    def drain(self) -> None:
        """Run the queue dry."""
        self.drain_until(float("inf"))

    def occupy(self, cycles: float) -> None:
        """Charge co-located non-request activity (an attacker tenant's
        PoC probes) to the shared core: later requests queue behind it."""
        self.free_at += cycles
        if self.free_at > self.makespan:
            self.makespan = self.free_at

    def collect(self) -> None:
        """Add each booted tenant's driver counters to its report, on top
        of the replayed memo costs already there.  Call once, after the
        last dispatch."""
        for idx in self.members:
            stats = self.tenants[idx].driver.stats
            report = self.reports[idx]
            report.kernel_cycles += stats.kernel_cycles
            report.syscalls += stats.syscalls
            report.fence_stall_cycles += stats.exec.fence_stall_cycles
            fenced = report.fenced_loads
            for kind, count in stats.exec.fenced_loads.items():
                fenced[kind] = fenced.get(kind, 0) + count
            report.fenced_loads = dict(sorted(fenced.items()))

    def shard_report(self) -> ShardReport:
        out = ShardReport(
            shard=self.index, tenants=list(self.members),
            makespan_cycles=self.makespan,
            migrations_in=self.migrations_in,
            ibpb_flushes=self.ibpb_flushes,
            migration_cold_dispatches=self.migration_cold_dispatches,
            migration_excess_cycles=self.migration_excess_cycles,
            memo_keys=len(self._memo), memo_replays=self.memo_replays,
            memo_interpreted=self.memo_interpreted)
        for report in self.reports:
            out.arrivals += report.arrivals
            out.admitted += report.admitted
            out.shed += report.shed
            out.completed += report.completed
            out.kernel_cycles += report.kernel_cycles
            out.switches += report.switches
            out.switch_cycles += report.switch_cycles
        return out


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


def boot_shard(config: ServeConfig, index: int, members: list[int],
               image=None, block_cache: bool | None = None,
               ) -> ShardScheduler:
    """Boot one shard's kernel with its member tenants; a shard without
    members gets a scheduler but no kernel."""
    tenants: list[Tenant | None] = [None] * config.tenants
    kernel = None
    if members:
        kernel, booted = boot_tenants(config, image=image,
                                      block_cache=block_cache,
                                      indices=members)
        for tenant in booted:
            tenants[tenant.index] = tenant
    cell = f"s{config.seed}.t{config.tenants}"
    if config.shards > 1:
        cell += f".sh{index}"
    return ShardScheduler(config, tenants, kernel=kernel, index=index,
                          trace_cell=cell)


def boot_shards(config: ServeConfig, image=None, *,
                block_cache: bool | None = None,
                memo_seed: list[dict] | None = None,
                ) -> list[ShardScheduler]:
    """Plan placement, boot every shard, and transplant ``memo_seed``
    (per-shard tables from :func:`memo_tables_of`) if given."""
    members, _, _ = plan_placement(config)
    shards = [boot_shard(config, index, members[index], image=image,
                         block_cache=block_cache)
              for index in range(config.shards)]
    for sched, tables in zip(shards, memo_seed or ()):
        sched.preload_memo(tables)
    return shards


def serve_arrivals(config: ServeConfig,
                   shards: list[ShardScheduler | None]) -> Placer:
    """The event loop: route every arrival to its shard and offer it
    there, then run every queue dry.  Arrivals routed to a ``None``
    shard (one not booted in this process) are skipped.  Returns the
    placer, whose homes and migrations the report records."""
    placer = Placer(config)
    route = placer.route
    for arr in config.arrivals():
        shard, migration = route(arr)
        sched = shards[shard]
        if sched is None:
            continue
        if migration is not None:
            sched.note_migration(arr.tenant, migration.src)
        sched.offer(arr)
    for sched in shards:
        if sched is not None:
            sched.drain()
    return placer


def run_serve(config: ServeConfig, image=None, *,
              block_cache: bool | None = None,
              memo_seed: list[dict] | None = None) -> ServeReport:
    """Run the open-loop simulation; returns the per-tenant report.

    ``block_cache`` forces the pipeline's block-trace memoization on or
    off for the whole cell (boot included); ``None`` keeps the pipeline
    default.  Not part of :class:`ServeConfig` because replay is
    byte-exact: the report is identical either way, only wall time
    changes (the block-JIT benchmark relies on exactly that).
    ``memo_seed`` transplants memo tables from a prior run of the same
    config (see :meth:`ShardScheduler.preload_memo`).
    """
    shards = boot_shards(config, image=image, block_cache=block_cache,
                         memo_seed=memo_seed)
    return ServeReport.of(config, shards, serve_arrivals(config, shards))


def memo_tables_of(report: ServeReport) -> list[dict]:
    """The per-shard memo tables of a finished run (for transplanting
    into a fresh engine of the same config)."""
    return [sched.memo_tables() for sched in report._states]


# ---------------------------------------------------------------------------
# Grid cell (the repro.exec fan-out unit)
# ---------------------------------------------------------------------------


def serve_cell(**params: Any) -> dict[str, Any]:
    """One (seed, tenants) cell of the serve sweep: the report as a
    JSON-able dict.

    With ``observe`` set the cell also publishes its report figures as
    summary gauges under a per-cell prefix; the ``serve`` grid runs it
    through :func:`repro.exec.grids.run_cell`, which arms the cell's own
    planes (``observe``, ``trace``, ``slo_window``) and attaches their
    snapshots.  ``block_cache`` forces the block JIT
    on/off for the cell.  None of these changes the report bytes.
    """
    config = config_from_params(params)
    out = run_serve(config, block_cache=params.get("block_cache")).as_dict()
    if params.get("observe"):
        # Summary gauges under a per-cell prefix, so merged cell
        # registries never collide and the smoke snapshot carries the
        # report figures the diff gate should watch.
        cell = f"serve.cell.s{config.seed}.t{config.tenants}"
        obs.gauge(f"{cell}.shards", config.shards)
        for key in ("completed", "shed", "throughput_rps",
                    "makespan_cycles", "latency_p50", "latency_p95",
                    "latency_p99", "switch_cycles", "fence_stall_cycles",
                    "migrations", "migration_excess_cycles"):
            obs.gauge(f"{cell}.{key}", out[key])
    return out
