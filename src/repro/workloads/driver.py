"""Workload driver: issues syscalls on behalf of a benchmark process.

Centralizes two cross-cutting behaviours:

* **cycle accounting** -- sums simulated kernel cycles and speculation
  statistics across every syscall of a run;
* **rare-path injection** -- during *measurement* runs (not profiling
  runs), every ``rare_every``-th eligible syscall passes the magic ``r1``
  argument that steers the kernel down a rarely-used path.  Profiling runs
  never do, which is precisely why dynamic ISVs occasionally fence benign
  execution (the ISV share of Table 10.1's fence breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.pipeline import ExecResult
from repro.kernel.image import RARE_PATH_MAGIC
from repro.kernel.kernel import MiniKernel, SyscallResult
from repro.kernel.process import Process
from repro.obs import events as ev
from repro.obs import reqtrace as rt
from repro.obs.instruments import INSTRUMENTS

#: Syscalls whose second argument carries no semantic meaning in the
#: kernel model, so the driver may use it for rare-path injection.
_RARE_SAFE = frozenset({
    "read", "write", "pread64", "pwrite64", "readv", "writev",
    "sendto", "recvfrom", "sendmsg", "recvmsg", "poll", "select",
    "epoll_wait", "getpid", "getuid", "sched_yield", "futex", "fstat",
    "lseek", "access", "stat", "nanosleep",
})


@dataclass
class RunStats:
    """Aggregated outcome of a driven workload run."""

    kernel_cycles: float = 0.0
    syscalls: int = 0
    exec: ExecResult = field(default_factory=ExecResult)

    def add(self, result: SyscallResult) -> None:
        self.kernel_cycles += result.cycles
        self.syscalls += 1
        if result.exec_result is not None:
            self.exec.merge(result.exec_result)

    def merge(self, other: "RunStats") -> None:
        """Accumulate another window of the same run into this one."""
        self.kernel_cycles += other.kernel_cycles
        self.syscalls += other.syscalls
        self.exec.merge(other.exec)

    @property
    def cycles_per_syscall(self) -> float:
        return self.kernel_cycles / self.syscalls if self.syscalls else 0.0


class Driver:
    """Issues syscalls for one process, with optional rare-path injection."""

    def __init__(self, kernel: MiniKernel, proc: Process,
                 rare_every: int = 0) -> None:
        self.kernel = kernel
        self.proc = proc
        self.rare_every = rare_every
        self._counter = 0
        self.stats = RunStats()

    def call(self, name: str, args: tuple[int, ...] = (),
             spin: int = 0) -> SyscallResult:
        self._counter += 1
        if (self.rare_every and name in _RARE_SAFE
                and self._counter % self.rare_every == 0):
            padded = list(args) + [0] * (2 - len(args))
            args = (padded[0], RARE_PATH_MAGIC, *padded[2:])
        registry = INSTRUMENTS.registry
        if registry is None:
            result = self.kernel.syscall(self.proc, name, args=args,
                                         spin=spin)
        else:
            # Span nesting: syscall/<name> here, fn/<entry>/phase/* from
            # the pipeline inside.  The driver node keeps only the trap
            # cost as self cycles, so the subtree sums to result.cycles.
            with registry.span(f"syscall/{name}"):
                result = self.kernel.syscall(self.proc, name, args=args,
                                             spin=spin)
                exec_cycles = result.exec_result.cycles \
                    if result.exec_result is not None else 0.0
                registry.tick(result.cycles - exec_cycles)
            registry.add("driver.syscalls")
            registry.observe("driver.syscall_cycles", result.cycles)
        # The pipeline advances the event-journal base by its own cycles;
        # the driver adds the trap cost so journal stamps stay aligned
        # with cumulative kernel cycles.
        if result.exec_result is not None:
            ev.advance(result.cycles - result.exec_result.cycles)
        self.stats.add(result)
        # Request tracing: one step per syscall on the open request (a
        # global read + None test when no recorder/request is active).
        rt.step("syscall", name, result.cycles)
        return result

    def reset_stats(self) -> None:
        self.stats = RunStats()
