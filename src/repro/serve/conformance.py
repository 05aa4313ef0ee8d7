"""Cross-scheme differential conformance: the architectural oracle.

Every defense scheme gates *speculative* execution only, so running the
same syscall trace under every scheme must produce identical
**architectural** results -- return values, denied flags, final memory
contents, allocator and fd/vma state, and the planted secret still
intact -- differing only in cycle counts and speculation statistics.
Any divergence means a defense changed semantics (or the baseline
leaked), which is exactly the class of bug a speculation framework must
never have.

The corpus is seeded: :func:`generate_trace` derives a multi-tenant
syscall trace from ``Random(f"conformance:{seed}")`` (string-seeded, so
``PYTHONHASHSEED``-proof), with fd/VA arguments kept *symbolic* in the
trace and resolved against live kernel state at run time -- the same
resolution under every scheme, because resolution depends only on
syscall semantics.  On divergence, :func:`minimize_divergence` greedily
shrinks the trace to a minimal still-diverging repro and the result
renders a copy-pasteable reproduction command.

The same oracle holds the block JIT to exact replay: with
``cache_parity``, every scheme also runs the trace with the block JIT
on, and that run must equal the JIT-off run in every key, cycles
included.  One seed is one cell of the ``conformance`` grid
(:mod:`repro.exec.grids`, whose row holds the corpus's default seeds,
steps, tenants and schemes): :func:`run_corpus` runs those cells for the
CLI and the test corpus, and the defense matrix runs them too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Any

from repro.analysis.binary import ApplicationBinary
from repro.analysis.flavors import FLAVORS, flavor_isv
from repro.core.framework import Perspective
from repro.defenses.registry import arm
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.workloads.driver import Driver

#: Schemes the oracle holds to identical architectural behaviour.  Both
#: fencing extremes, the deployed-software point (spot), the
#: shadow-structure family (invisispec, safespec), memory tagging
#: (context), and both main Perspective flavors -- the eight columns of
#: the cross-paper table (:mod:`repro.eval.defense_matrix`).
CONFORMANCE_SCHEMES = ("unsafe", "fence", "perspective", "perspective++",
                       "spot", "invisispec", "safespec", "context")

#: Rare-path injection period during conformance runs: exercises the
#: paths dynamic ISVs fence, identically under every scheme.
RARE_EVERY = 5

SECRET = b"CONFORMANCE-SECRET"


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

#: Steps that need no live resource.  (name, argmaker, spin)
_NEUTRAL_OPS = (
    ("getpid", lambda rng: (), 0),
    ("getuid", lambda rng: (), 0),
    ("stat", lambda rng: (rng.randrange(4),), 0),
    ("access", lambda rng: (rng.randrange(4),), 0),
    ("futex", lambda rng: (0,), 8),
    ("poll", lambda rng: (rng.randrange(1, 16),), 8),
    ("select", lambda rng: (rng.randrange(1, 16),), 8),
    ("epoll_wait", lambda rng: (rng.randrange(1, 16),), 8),
    ("sendmsg", lambda rng: (0, rng.randrange(1, 4) * 1024), 4),
    ("recvmsg", lambda rng: (0, rng.randrange(1, 4) * 1024), 4),
    ("brk", lambda rng: (), 0),
)


@dataclass(frozen=True)
class TraceStep:
    """One syscall of a conformance trace.

    ``args`` may contain symbolic tokens: ``["fd", k]`` resolves to the
    tenant's ``k``-th live file descriptor at run time (``["va", k]``
    likewise for mmapped areas); plain ints pass through.  Tokens are
    lists, not tuples, so a step round-trips through JSON unchanged.
    """

    tenant: int
    syscall: str
    args: tuple[Any, ...] = ()
    spin: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {"tenant": self.tenant, "syscall": self.syscall,
                "args": [list(a) if isinstance(a, (tuple, list)) else a
                         for a in self.args],
                "spin": self.spin}


def generate_trace(seed: int, steps: int, tenants: int) -> list[TraceStep]:
    """A seeded multi-tenant trace mixing resource producers, consumers,
    and neutral syscalls; consumers are only emitted when a producer ran
    earlier, so every reference resolves to a live resource."""
    rng = Random(f"conformance:{seed}")
    n_fds = [0] * tenants
    n_vas = [0] * tenants
    out: list[TraceStep] = []
    for _ in range(steps):
        tenant = rng.randrange(tenants)
        roll = rng.random()
        if roll < 0.30:  # producers
            name = rng.choice(("open", "socket", "pipe", "mmap"))
            if name == "mmap":
                out.append(TraceStep(tenant, "mmap",
                                     (0, rng.randrange(1, 5) * 4096)))
                n_vas[tenant] += 1
            else:
                out.append(TraceStep(tenant, name, (rng.randrange(4),)))
                n_fds[tenant] += 2 if name == "pipe" else 1
        elif roll < 0.60 and (n_fds[tenant] or n_vas[tenant]):  # consumers
            use_fd = n_fds[tenant] and (not n_vas[tenant] or rng.random() < 0.7)
            if use_fd:
                token = ("fd", rng.randrange(n_fds[tenant]))
                name = rng.choice(("read", "write", "lseek", "fstat",
                                   "dup", "close"))
                spin = 8 if name in ("read", "write") else 0
                args = (token, 4096) if name in ("read", "write") \
                    else (token,)
                out.append(TraceStep(tenant, name, args, spin))
                if name == "close":
                    n_fds[tenant] -= 1
                elif name == "dup":
                    n_fds[tenant] += 1
            else:
                token = ("va", rng.randrange(n_vas[tenant]))
                out.append(TraceStep(tenant, "munmap", (token,)))
                n_vas[tenant] -= 1
        else:  # neutral
            name, argmaker, spin = _NEUTRAL_OPS[
                rng.randrange(len(_NEUTRAL_OPS))]
            out.append(TraceStep(tenant, name, argmaker(rng), spin))
    return out


def steps_from_dicts(raw: list[dict[str, Any]]) -> list[TraceStep]:
    """Rebuild a trace from ``as_dict`` output (the minimized-repro path)."""
    return [TraceStep(tenant=d["tenant"], syscall=d["syscall"],
                      args=tuple(tuple(a) if isinstance(a, list) else a
                                 for a in d["args"]),
                      spin=d.get("spin", 0))
            for d in raw]


# ---------------------------------------------------------------------------
# Trace execution and the architectural digest
# ---------------------------------------------------------------------------


def _resolve(token: Any, fds: list[int], vas: list[int]) -> int:
    if isinstance(token, (tuple, list)):
        kind, k = token
        pool = fds if kind == "fd" else vas
        return pool[k % len(pool)] if pool else 0
    return token


def _profile_trace(trace: list[TraceStep], tenants: int,
                   image) -> list[frozenset[str]]:
    """Offline profiling pass on a throwaway kernel: the traced kernel
    functions per tenant, used to build dynamic ISVs.  Context ids are
    assigned in creation order, so they line up with every scheme run."""
    kernel = MiniKernel(image=image)
    procs = [kernel.create_process(f"conf{t}") for t in range(tenants)]
    drivers = [Driver(kernel, p, rare_every=0) for p in procs]
    kernel.tracer.start()
    _run_trace(kernel, procs, drivers, trace)
    kernel.tracer.stop()
    return [kernel.tracer.traced_functions(p.cgroup.cg_id) for p in procs]


def _run_trace(kernel, procs, drivers, trace) -> list[dict[str, Any]]:
    """Issue the trace; returns the per-step architectural outcomes."""
    fds: list[list[int]] = [[] for _ in procs]
    vas: list[list[int]] = [[] for _ in procs]
    outcomes: list[dict[str, Any]] = []
    for step in trace:
        t = step.tenant
        args = tuple(_resolve(a, fds[t], vas[t]) for a in step.args)
        result = drivers[t].call(step.syscall, args=args, spin=step.spin)
        rv = result.retval
        if step.syscall in ("open", "socket", "accept", "dup") and rv >= 0:
            fds[t].append(rv)
        elif step.syscall == "pipe" and rv >= 0:
            fds[t].extend((rv, rv + 1))
        elif step.syscall == "close" and rv == 0:
            fds[t].remove(args[0])
        elif step.syscall == "mmap" and rv > 0:
            vas[t].append(rv)
        elif step.syscall == "munmap" and rv == 0:
            vas[t].remove(args[0])
        outcomes.append({"syscall": step.syscall, "tenant": t,
                         "retval": rv, "denied": result.denied})
    return outcomes


def _view_digest(framework: Perspective | None) -> str | None:
    """Fingerprint of the DSV registry's frame-ownership map (Perspective
    flavors only; ``None`` elsewhere, excluded from comparison)."""
    if framework is None:
        return None
    owners = sorted(framework.dsv_registry.frame_owners().items())
    return hashlib.sha256(json.dumps(owners).encode()).hexdigest()


def run_trace_under(scheme: str, trace: list[TraceStep], tenants: int,
                    image=None,
                    profiles: list[frozenset[str]] | None = None,
                    block_cache: bool | None = None,
                    ) -> dict[str, Any]:
    """Run the trace on a fresh kernel under ``scheme``; returns the
    architectural digest (plus cycle counts, which the cross-scheme
    check ignores but the block-JIT check compares exactly).  The
    digest is JSON-native: it equals its own JSON round trip.

    ``block_cache`` forces the pipeline's basic-block trace memoization
    on or off (``None`` keeps the pipeline default).  Each tenant of
    ``perspective-static`` gets the static ISV of a binary issuing the
    tenant's syscalls; the traced flavors use ``profiles``."""
    image = shared_image() if image is None else image
    flavor = FLAVORS.get(scheme)
    if flavor not in (None, "static") and profiles is None:
        profiles = _profile_trace(trace, tenants, image)

    kernel = MiniKernel(image=image)
    if block_cache is not None:
        kernel.pipeline.config.enable_block_cache = block_cache
    procs = [kernel.create_process(f"conf{t}") for t in range(tenants)]
    secret_va = kernel.plant_secret(procs[0], SECRET)
    policy = arm(kernel, scheme, () if flavor is None else [
        flavor_isv(image, proc.cgroup.cg_id, flavor,
                   binary=ApplicationBinary(f"conf{t}", frozenset(
                       step.syscall for step in trace if step.tenant == t)),
                   traced=None if profiles is None else profiles[t])
        for t, proc in enumerate(procs)])
    framework = None if flavor is None else policy.framework

    drivers = [Driver(kernel, p, rare_every=RARE_EVERY) for p in procs]
    outcomes = _run_trace(kernel, procs, drivers, trace)

    secret_pa = procs[0].aspace.translate(secret_va)
    allocations = sorted(kernel.buddy.allocations())
    return {
        # --- architectural (must match across schemes) ---
        "outcomes": outcomes,
        "memory": kernel.memory.digest(),
        "secret_intact":
            kernel.memory.load_bytes(secret_pa, len(SECRET)) == SECRET,
        "buddy": {
            "allocated_frames": kernel.buddy.allocated_frames(),
            "free_frames": kernel.buddy.free_frames(),
            "owners": hashlib.sha256(
                json.dumps(allocations).encode()).hexdigest(),
        },
        "tenants": [{
            "fds": sorted([fd, f.fops_kind]
                          for fd, f in proc.files.items()),
            "vmas": sorted([vma.va, vma.length]
                           for vma in proc.vmas.values()),
        } for proc in procs],
        # --- per-flavor (compared among Perspective flavors only) ---
        "views": _view_digest(framework),
        # --- timing (compared only between block-JIT-off and -on) ---
        "cycles": sum(d.stats.kernel_cycles for d in drivers),
        "fenced_loads": sum(d.stats.exec.total_fenced for d in drivers),
    }


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

_ARCH_KEYS = ("outcomes", "memory", "secret_intact", "buddy", "tenants")

#: Keys the block-JIT check compares between a scheme's JIT-off and
#: JIT-on runs.  Unlike the cross-scheme check, the timing keys are
#: **included**: memoized replay promises the same cycles and fence
#: counts as interpretation, not just the same architecture.
_PARITY_KEYS = _ARCH_KEYS + ("views", "cycles", "fenced_loads")


def arch_divergence(base: dict[str, Any],
                    other: dict[str, Any]) -> list[str]:
    """The architectural keys on which digest ``other`` differs from
    ``base``; empty when the two runs agree."""
    return [key for key in _ARCH_KEYS if other[key] != base[key]]


@dataclass
class ConformanceResult:
    """Outcome of checking one seed across all schemes."""

    seed: int
    schemes: tuple[str, ...]
    ok: bool
    #: Keys that diverged, per scheme: architectural keys vs the first
    #: scheme, ``views`` among the Perspective flavors, and ``jit:<key>``
    #: between the scheme's block-JIT-off and -on runs.
    divergences: dict[str, list[str]] = field(default_factory=dict)
    #: Block-JIT-off digests, per scheme.
    digests: dict[str, dict[str, Any]] = field(default_factory=dict)
    minimized: list[TraceStep] | None = None
    #: Whether the block-JIT check ran too (``--cache-parity``).
    cache_parity: bool = False
    #: Syscalls in the seed's trace (``--steps``).  The cell payload
    #: leaves it out: the grid's params carry it.
    steps: int | None = None

    def repro(self) -> str:
        """A copy-pasteable reproduction recipe for a divergence: the
        run's flags, with ``--seeds N,`` selecting seed N alone."""
        trace = self.minimized
        flags = " --cache-parity" if self.cache_parity else ""
        if self.steps is not None:
            flags += f" --steps {self.steps}"
        lines = [f"# conformance divergence at seed {self.seed}: "
                 f"{self.divergences}",
                 f"PYTHONPATH=src python -m repro.serve conformance{flags} "
                 f"--seeds {self.seed}, --schemes {','.join(self.schemes)}"]
        if trace is not None:
            lines.append("# minimized trace "
                         f"({len(trace)} steps):")
            for step in trace:
                lines.append(f"#   {json.dumps(step.as_dict())}")
        return "\n".join(lines)


def _compare(digests: dict[str, dict[str, Any]],
             schemes: tuple[str, ...],
             jit: dict[str, dict[str, Any]] | None = None,
             ) -> dict[str, list[str]]:
    """Keys diverging, per scheme.  Architectural keys are compared with
    the first scheme's and ``views`` among the schemes that have views.
    When block-JIT-on digests are passed as ``jit``, every
    ``_PARITY_KEYS`` key must also equal the scheme's JIT-off digest; a
    difference is reported as ``jit:<key>``."""
    base = digests[schemes[0]]
    divergences: dict[str, list[str]] = {}
    view_base: str | None = None
    for scheme in schemes:
        d = digests[scheme]
        bad = arch_divergence(base, d)
        if d["views"] is not None:
            if view_base is None:
                view_base = d["views"]
            elif d["views"] != view_base:
                bad.append("views")
        if jit is not None:
            bad += [f"jit:{key}" for key in _PARITY_KEYS
                    if jit[scheme][key] != d[key]]
        if bad:
            divergences[scheme] = bad
    return divergences


def check_seed(seed: int, schemes: tuple[str, ...], steps: int,
               tenants: int, image=None,
               cache_parity: bool = False) -> ConformanceResult:
    """Run one seeded trace under every scheme and compare architecture.

    With ``cache_parity``, every scheme also runs with the block JIT on,
    and that run must equal the JIT-off run in every key, cycles
    included: memoized replay must not diverge from interpretation."""
    trace = generate_trace(seed, steps=steps, tenants=tenants)
    return _check_trace(trace, seed, schemes, tenants, image, cache_parity)


def _check_trace(trace: list[TraceStep], seed: int,
                 schemes: tuple[str, ...], tenants: int,
                 image, cache_parity: bool) -> ConformanceResult:
    image = shared_image() if image is None else image
    profiles = None
    if any(s in FLAVORS for s in schemes):
        profiles = _profile_trace(trace, tenants, image)

    def run(scheme: str, block_cache: bool) -> dict[str, Any]:
        return run_trace_under(scheme, trace, tenants=tenants, image=image,
                               profiles=profiles, block_cache=block_cache)

    digests = {scheme: run(scheme, False) for scheme in schemes}
    jit = ({scheme: run(scheme, True) for scheme in schemes}
           if cache_parity else None)
    divergences = _compare(digests, schemes, jit)
    return ConformanceResult(seed=seed, schemes=schemes,
                             ok=not divergences, divergences=divergences,
                             digests=digests, cache_parity=cache_parity,
                             steps=len(trace))


def minimize_divergence(trace: list[TraceStep], schemes: tuple[str, ...],
                        tenants: int, image=None,
                        cache_parity: bool = False) -> list[TraceStep]:
    """Greedy delta-debugging: drop any step whose removal keeps the
    divergence alive, until no single removal does.  Symbolic tokens stay
    valid on any subset (resolution falls back to harmless constants), so
    every candidate subset is executable.  ``cache_parity`` selects the
    same checks as :func:`check_seed`."""

    def diverges(candidate: list[TraceStep]) -> bool:
        return not _check_trace(candidate, -1, schemes, tenants, image,
                                cache_parity).ok

    current = list(trace)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            if diverges(candidate):
                current = candidate
                shrunk = True
                break
    return current


def conformance_cell(seed: int, schemes: list[str], steps: int,
                     tenants: int, cache_parity: bool) -> dict[str, Any]:
    """One seed of the ``conformance`` grid: :func:`check_seed`'s result
    as JSON, without the ``steps`` the cell's params already hold."""
    payload = asdict(check_seed(seed, tuple(schemes), steps, tenants,
                                cache_parity=cache_parity))
    del payload["steps"]
    return payload


def run_corpus(params: dict[str, Any] | None = None,
               minimize: bool = True) -> list[ConformanceResult]:
    """Check every seed of the ``conformance`` grid, whose defaults
    ``params`` override (one cell per seed, see :func:`check_seed`);
    with ``minimize``, divergent results carry a minimized repro."""
    # Imported on first call: ``import repro.serve`` stays engine-free.
    from repro.exec.engine import run_experiment
    from repro.exec.grids import get_grid
    resolved = get_grid("conformance").resolve(params or {})
    results = run_experiment("conformance", resolved)
    if minimize:
        for result in results:
            if not result.ok:
                result.minimized = minimize_divergence(
                    generate_trace(result.seed, resolved["steps"],
                                   resolved["tenants"]),
                    result.schemes, resolved["tenants"],
                    cache_parity=result.cache_parity)
    return results
