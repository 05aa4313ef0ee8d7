"""The end-to-end benchmark's workloads.

Each workload has the same four steps: ``setup`` (image, boot, warm-up:
what ``setup_s`` covers), ``maintain`` (untimed upkeep before a rep),
``rep`` (one timed unit of work) and ``checks`` (correctness, after the
timed reps).  All of them turn the block JIT on, as the serve CLI does.

Every ``repro`` entry point is reached through its module object
(``envs.make_env``, not an imported name) so that the host-time tracer,
which rebinds module attributes, sees the harness's calls too.

Every workload runs on the default kernel image.  The seed varies one
input per workload, chosen so that a run's work barely depends on it:
how often syscalls take a rarely-used kernel path (LEBench, serve-full)
or the arrival stream (serve-memo, whose runs are long enough to average
arrival effects out).  Kernel images and serve-full arrival streams were
tried as seeds and rejected: across ten seeds they moved a run's host
work by 13-15%, more than any regression bound could absorb.

``SIZES`` is the size table the CLI runs; the self-test passes a reduced
table of the same shape.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from repro.eval import envs
from repro.kernel import image as kimage
from repro.kernel import kernel as kkernel
from repro.serve import shard
from repro.workloads import lebench

SIZES: dict[str, dict[str, Any]] = {
    # One suite is 191 syscalls; two warm-up suites reach steady state
    # (the first one compiles the JIT and is colder).
    "lebench-perspective": {"scheme": "perspective", "suites_per_rep": 1,
                            "warmup_suites": 2},
    "lebench-unsafe-jit": {"scheme": "unsafe", "suites_per_rep": 2,
                           "warmup_suites": 2},
    # Fresh boot per rep: boot-time ISV generation, ASID-cold refills,
    # switches, migrations and queueing all sit inside the timed rep.
    "serve-full": {"seed_drives": "rare_every", "tenants": 4, "shards": 2,
                   "placement": "least-loaded", "migrate_every": 6,
                   "mean_interarrival": 20000.0, "requests_per_tenant": 12,
                   "service_model": "full"},
    # Memo tables from the warm-up run are transplanted into every rep,
    # so timed reps replay every dispatch: scheduling, placement and
    # arrival handling are what is left.
    "serve-memo": {"seed_drives": "arrivals", "tenants": 4, "shards": 2,
                   "placement": "least-loaded",
                   "migrate_every": 100, "service_model": "memo",
                   "memo_period": 24, "rare_every": 0, "profile_requests": 2,
                   "mean_interarrival": 40000.0,
                   "requests_per_tenant": 8000},
}


@dataclass
class Rep:
    """What one timed rep produced (wall time is the harness's)."""

    ops: int
    #: All simulated kernel cycles of the rep, and those per op of the
    #: workload's deterministic measurement.
    sim_cycles: float
    cycles_per_op: float
    #: Simulated latencies, sorted: LEBench per-test ROI cycles per
    #: iteration, or serve request latencies from arrival.
    latencies: list[float]
    digest: str
    #: Kernels whose counters the rep moved, and the exec stats of the
    #: drivers it ran (read by the traced run's layer counters).
    kernels: list = field(default_factory=list)
    execs: list = field(default_factory=list)
    memo_replays: int = 0
    memo_interpreted: int = 0
    migrations: int = 0


def digest(obj: Any) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile (the serve report's definition)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def kernel_state(kernel) -> dict[str, Any]:
    """Architectural memory plus the TLB/L1/L2 counters of one kernel."""
    pipe = kernel.pipeline
    out: dict[str, Any] = {"memory": kernel.memory.digest(),
                           "tlb": [pipe.tlb.stats.hits, pipe.tlb.stats.misses]}
    for name in ("l1i", "l1d", "l2"):
        stats = getattr(pipe.hierarchy, name).stats
        out[name] = [stats.hits, stats.misses]
    return out


class Workload:
    """One workload: a rep's ops are syscalls (LEBench) or requests."""

    def __init__(self, name: str, seed: int, size: dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.image = None
        #: Queue waits the traced run's op hook records (serve only).
        self.queue_waits: list[float] = []

    def setup(self) -> None:
        self.image = kimage.shared_image()

    def maintain(self) -> None:
        pass

    def live_kernels(self) -> list:
        """Kernels that exist before the next rep starts."""
        return []

    def op_hooks(self) -> dict:
        return {}

    def rep(self) -> Rep:
        raise NotImplementedError

    def reference(self) -> str | None:
        """The digest every rep must reproduce (None: the first rep's)."""
        return None

    def checks(self) -> list[tuple[str, bool]]:
        return []


class LEBench(Workload):
    """``run_lebench`` on one warm ``make_env("lebench", scheme)`` kernel.

    LEBench maps memory it never unmaps, so a kernel runs out of frames
    after ~35 suites; ``maintain`` boots an identical fresh environment
    (outside the timed rep) before that happens.
    """

    def __init__(self, name: str, seed: int, size: dict[str, Any]) -> None:
        super().__init__(name, seed, size)
        names = size.get("tests")
        self.tests = None if names is None else \
            [t for t in lebench.build_tests() if t.name in names]
        # run_lebench's default period (25) exceeds the calls one test
        # makes, so it never injects; 4-8 does, in a seed-chosen mix.
        self.rare_every = 4 + seed % 5
        self.env = None
        self._reference: str | None = None
        self.boots_matching = True
        self._syscalls = 0

    def setup(self) -> None:
        super().setup()
        self._boot()

    def _env(self, block_cache: bool):
        env = envs.make_env("lebench", self.size["scheme"], image=self.image)
        env.kernel.pipeline.config.enable_block_cache = block_cache
        return env

    def _suite(self, env, stats: list | None = None) -> dict[str, float]:
        return lebench.run_lebench(env.kernel, env.proc,
                                   rare_every=self.rare_every,
                                   tests=self.tests, collect_stats=stats)

    def _boot(self) -> None:
        # The old kernel sits in reference cycles: collect it before the
        # new one boots, so peak RSS does not depend on collector timing.
        self.env = None
        gc.collect()
        self.env = self._env(True)
        for _ in range(self.size["warmup_suites"]):
            free = self.env.kernel.buddy.free_frames()
            last = self._suite(self.env)
        self.frames_per_rep = self.size["suites_per_rep"] * (
            free - self.env.kernel.buddy.free_frames())
        reference = digest([last] * self.size["suites_per_rep"])
        if self._reference is None:
            self._reference = reference
        self.boots_matching &= reference == self._reference

    def maintain(self) -> None:
        if self.env.kernel.buddy.free_frames() < 2 * self.frames_per_rep:
            self._boot()

    def live_kernels(self) -> list:
        return [self.env.kernel]

    def op_hooks(self) -> dict:
        def label(kernel, proc, name, *args, **kwargs):
            self._syscalls += 1
            return f"syscall{self._syscalls}:{name}"
        return {kkernel.MiniKernel.syscall: label}

    def rep(self) -> Rep:
        """Simulated metrics come from the ROI (the per-test cycles are
        the same in every steady-state suite); the syscalls outside it
        depend on allocator history and vary by a few cycles."""
        kernel = self.env.kernel
        syscalls, cycles = kernel.syscall_count, kernel.kernel_cycles_total
        stats: list = []
        outputs = [self._suite(self.env, stats)
                   for _ in range(self.size["suites_per_rep"])]
        return Rep(ops=kernel.syscall_count - syscalls,
                   sim_cycles=kernel.kernel_cycles_total - cycles,
                   cycles_per_op=sum(s.kernel_cycles for s in stats)
                   / sum(s.syscalls for s in stats),
                   latencies=sorted(v for roi in outputs
                                    for v in roi.values()),
                   digest=digest(outputs), kernels=[kernel],
                   execs=[s.exec for s in stats])

    def reference(self) -> str | None:
        return self._reference

    def checks(self) -> list[tuple[str, bool]]:
        """JIT off and on agree on a fresh environment: ROI cycles, total
        cycles, memory digest and TLB/L1/L2 counters."""
        runs = []
        for block_cache in (False, True):
            env = self._env(block_cache)
            runs.append((self._suite(env), env.kernel.kernel_cycles_total,
                         kernel_state(env.kernel)))
        return [("regenerated environments match", self.boots_matching),
                ("block JIT off == on", runs[0] == runs[1])]


class Serve(Workload):
    """``run_serve_sharded`` under ``perspective``, one full run per rep.

    ``seed_drives`` names the input the seed sets: the arrival (and
    placement tie-break) seed, or the rare-path period -- every 8th to
    16th driver call, with seed 0 at the serve default of 12 -- over the
    arrival stream of seed 0.
    """

    def __init__(self, name: str, seed: int, size: dict[str, Any]) -> None:
        super().__init__(name, seed, size)
        params = dict(size)
        if params.pop("seed_drives") == "arrivals":
            params["seed"] = seed
        else:
            params["rare_every"] = 8 + (seed + 4) % 9
        self.config = shard.ShardedServeConfig(scheme="perspective",
                                               **params)
        self.memo_seed = None
        self._reference: str | None = None
        self._last: dict[str, Any] = {}

    def _run(self, block_cache: bool = True):
        return shard.run_serve_sharded(self.config, image=self.image,
                                       block_cache=block_cache,
                                       memo_seed=self.memo_seed)

    def setup(self) -> None:
        super().setup()
        warm = self._run()
        if self.config.service_model == "memo":
            self.memo_seed = shard.memo_tables_of(warm)
        else:
            self._reference = digest(warm.as_dict())

    def op_hooks(self) -> dict:
        def label(sched, arr):
            start = max(sched.free_at, arr.cycle)
            self.queue_waits.append(start - arr.cycle)
            return f"t{arr.tenant}.{arr.seq}"
        return {shard.ShardScheduler.dispatch: label}

    def rep(self) -> Rep:
        report = self._run()
        out = report.as_dict()
        self._last = out
        latencies = sorted(lat for tenant in report.tenants
                           for lat in tenant.latencies)
        states = [s for s in report._states if s.kernel is not None]
        return Rep(ops=out["completed"], sim_cycles=out["kernel_cycles"],
                   cycles_per_op=out["kernel_cycles"] / out["completed"],
                   latencies=latencies, digest=digest(out),
                   kernels=[s.kernel for s in states],
                   execs=[t.driver.stats.exec for s in states
                          for t in s.tenants if t is not None],
                   memo_replays=out["memo_replays"],
                   memo_interpreted=out["memo_interpreted"],
                   migrations=out["migrations"])

    def reference(self) -> str | None:
        return self._reference

    def checks(self) -> list[tuple[str, bool]]:
        last = self._last
        offered = sum(t["arrivals"] for t in last["tenants"])
        out = [("offered == completed + shed",
                offered == last["completed"] + last["shed"]
                == self.config.tenants * self.config.requests_per_tenant)]
        if self.config.service_model == "full":
            out.append(("block JIT off == on",
                        digest(self._run(block_cache=False).as_dict())
                        == self._reference))
        return out


WORKLOADS = {
    "lebench-perspective": LEBench,
    "lebench-unsafe-jit": LEBench,
    "serve-full": Serve,
    "serve-memo": Serve,
}


def make(name: str, seed: int, sizes: dict[str, dict] | None = None
         ) -> Workload:
    return WORKLOADS[name](name, seed, (sizes or SIZES)[name])
