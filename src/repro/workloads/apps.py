"""Datacenter application models: httpd, nginx, memcached, redis.

Each model replays the server's per-request syscall sequence against the
kernel (Figure 9.3's workloads), with clients driving over the loopback
interface -- the paper's worst case, since nothing bottlenecks on I/O.

Userspace compute is modeled as a fixed per-request cycle budget derived
from the paper's measured kernel-time fractions (50% httpd, 65% nginx,
65% memcached, 53% redis): defenses gate *kernel* speculation, so user
cycles are scheme-invariant, which is why application overheads are much
smaller than microbenchmark ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.binary import APPLICATIONS, ApplicationBinary
from repro.kernel.kernel import MiniKernel
from repro.kernel.layout import PAGE_SIZE
from repro.kernel.process import Process
from repro.obs import registry as obs
from repro.workloads.driver import Driver


@dataclass
class AppState:
    """Long-lived server state (listening socket, open log)."""

    listen_fd: int = -1
    log_fd: int = -1


@dataclass
class AppSpec:
    """One application: its binary, kernel-time fraction, and request."""

    name: str
    binary: ApplicationBinary
    kernel_time_fraction: float
    setup: Callable[[Driver, AppState], None]
    request: Callable[[Driver, AppState, int], None]

    def user_cycles_per_request(self,
                                unsafe_kernel_per_request: float) -> float:
        """Userspace budget implied by the paper's kernel-time fraction
        at the UNSAFE baseline's kernel cycles per request."""
        f = self.kernel_time_fraction
        return unsafe_kernel_per_request * (1.0 - f) / f


def _setup_server(driver: Driver, state: AppState) -> None:
    state.listen_fd = driver.call("socket", args=(0,)).retval
    driver.call("bind", args=(state.listen_fd,))
    driver.call("listen", args=(state.listen_fd,))


def _setup_redis(driver: Driver, state: AppState) -> None:
    _setup_server(driver, state)
    state.log_fd = driver.call("open", args=(0,)).retval
    driver.call("epoll_create")


def _httpd_request(driver: Driver, state: AppState, i: int) -> None:
    driver.call("epoll_wait", args=(16,), spin=16)
    conn = driver.call("accept", args=(state.listen_fd,)).retval
    driver.call("recvfrom", args=(conn, 512), spin=12)
    driver.call("stat", args=(0,))
    file_fd = driver.call("open", args=(i,)).retval
    driver.call("read", args=(file_fd, 8 * PAGE_SIZE), spin=32)
    driver.call("writev", args=(conn, 8 * PAGE_SIZE), spin=32)
    driver.call("close", args=(file_fd,))
    driver.call("close", args=(conn,))


def _nginx_request(driver: Driver, state: AppState, i: int) -> None:
    driver.call("epoll_wait", args=(16,), spin=16)
    conn = driver.call("accept", args=(state.listen_fd,)).retval
    driver.call("recvfrom", args=(conn, 512), spin=12)
    file_fd = driver.call("open", args=(i,)).retval
    driver.call("pread64", args=(file_fd, 8 * PAGE_SIZE), spin=32)
    driver.call("writev", args=(conn, 8 * PAGE_SIZE), spin=32)
    driver.call("close", args=(file_fd,))
    driver.call("close", args=(conn,))


def _memcached_request(driver: Driver, state: AppState, i: int) -> None:
    driver.call("epoll_wait", args=(12,), spin=12)
    driver.call("recvfrom", args=(state.listen_fd, 128), spin=16)
    driver.call("sendto", args=(state.listen_fd, 1024), spin=24)
    if i % 16 == 0:
        driver.call("futex", args=(0,), spin=4)
    if i % 96 == 0:
        driver.call("sendmsg", args=(state.listen_fd, 4096), spin=8)


def _redis_request(driver: Driver, state: AppState, i: int) -> None:
    driver.call("epoll_wait", args=(12,), spin=12)
    driver.call("recvfrom", args=(state.listen_fd, 128), spin=16)
    driver.call("sendto", args=(state.listen_fd, 512), spin=20)
    if i % 8 == 0:
        driver.call("write", args=(state.log_fd, 256), spin=4)
    if i % 24 == 0:
        # Large multi-bulk replies go out through gather buffers.
        driver.call("sendmsg", args=(state.listen_fd, 8192), spin=8)


APP_SPECS: dict[str, AppSpec] = {
    "httpd": AppSpec("httpd", APPLICATIONS["httpd"], 0.50,
                     _setup_server, _httpd_request),
    "nginx": AppSpec("nginx", APPLICATIONS["nginx"], 0.65,
                     _setup_server, _nginx_request),
    "memcached": AppSpec("memcached", APPLICATIONS["memcached"], 0.65,
                         _setup_server, _memcached_request),
    "redis": AppSpec("redis", APPLICATIONS["redis"], 0.53,
                     _setup_redis, _redis_request),
}

APP_NAMES = tuple(APP_SPECS)


@dataclass
class AppRunResult:
    """Measured kernel time for a batch of requests."""

    app: str
    requests: int
    kernel_cycles: float
    syscalls: int

    @property
    def kernel_cycles_per_request(self) -> float:
        return self.kernel_cycles / self.requests


class AppWorkload:
    """A running server instance bound to one kernel process."""

    def __init__(self, kernel: MiniKernel, proc: Process, spec: AppSpec,
                 rare_every: int = 25) -> None:
        self.kernel = kernel
        self.proc = proc
        self.spec = spec
        self.driver = Driver(kernel, proc, rare_every=rare_every)
        self.state = AppState()
        spec.setup(self.driver, self.state)
        self._request_counter = 0

    def serve(self, requests: int) -> AppRunResult:
        """Serve a batch of client requests on fresh driver stats;
        returns the batch's kernel-side timing."""
        self.driver.reset_stats()
        for _ in range(requests):
            with obs.span(f"request/{self.spec.name}"):
                self.spec.request(self.driver, self.state,
                                  self._request_counter)
            self._request_counter += 1
        stats = self.driver.stats
        return AppRunResult(app=self.spec.name, requests=requests,
                            kernel_cycles=stats.kernel_cycles,
                            syscalls=stats.syscalls)
