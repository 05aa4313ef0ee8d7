"""Tests for the workload layer: driver, LEBench, and application models."""

from __future__ import annotations

import pytest

from repro.kernel.image import RARE_PATH_MAGIC
from repro.workloads.apps import APP_NAMES, APP_SPECS, AppWorkload
from repro.workloads.clients import CLIENTS
from repro.workloads.driver import Driver
from repro.workloads.lebench import (
    TEST_NAMES,
    build_tests,
    exercise_all,
    run_lebench,
)


class TestDriver:
    def test_accumulates_stats(self, kernel, proc):
        driver = Driver(kernel, proc)
        driver.call("getpid")
        driver.call("getuid")
        assert driver.stats.syscalls == 2
        assert driver.stats.kernel_cycles > 0
        assert driver.stats.cycles_per_syscall > 0

    def test_reset_stats(self, kernel, proc):
        driver = Driver(kernel, proc)
        driver.call("getpid")
        driver.reset_stats()
        assert driver.stats.syscalls == 0

    def test_rare_injection_period(self, kernel, proc):
        """Every Nth eligible call passes the rare-path magic in arg1."""
        calls = []
        original = kernel.syscall

        def spy(p, name, args=(), spin=0):
            calls.append(args)
            return original(p, name, args=args, spin=spin)

        kernel.syscall = spy
        driver = Driver(kernel, proc, rare_every=3)
        for _ in range(6):
            driver.call("getpid", args=(0, 0))
        magic = [args for args in calls
                 if len(args) > 1 and args[1] == RARE_PATH_MAGIC]
        assert len(magic) == 2

    def test_rare_injection_skips_semantic_args(self, kernel, proc):
        """mmap's length argument must never be replaced by the magic."""
        driver = Driver(kernel, proc, rare_every=1)
        result = driver.call("mmap", args=(0, 4096))
        assert result.retval != -1
        assert proc.vmas  # the real length was honoured

    def test_no_injection_when_disabled(self, kernel, proc):
        driver = Driver(kernel, proc, rare_every=0)
        result = driver.call("read", args=(3, 64))
        assert result is not None  # simply runs


class TestLEBench:
    def test_suite_covers_paper_test_classes(self):
        names = set(TEST_NAMES)
        for expected in ("getpid", "fork", "big-fork", "mmap", "munmap",
                         "page-fault", "read", "big-read", "write",
                         "select", "poll", "epoll", "send", "recv",
                         "context-switch"):
            assert expected in names

    def test_run_returns_cycles_per_test(self, kernel, proc):
        tests = [t for t in build_tests()
                 if t.name in ("getpid", "read", "poll")]
        results = run_lebench(kernel, proc, tests=tests)
        assert set(results) == {"getpid", "read", "poll"}
        assert all(cycles > 0 for cycles in results.values())

    def test_spin_tests_cost_more_than_tiny_tests(self, kernel, proc):
        """The fd-scan loop dominates poll's cycles; a well-fed OOO core
        hides much of it, but it still costs clearly more than getpid."""
        tests = [t for t in build_tests() if t.name in ("getpid", "poll")]
        results = run_lebench(kernel, proc, tests=tests)
        assert results["poll"] > 1.3 * results["getpid"]

    def test_exercise_all_touches_every_test_surface(self, kernel, proc):
        kernel.tracer.start()
        exercise_all(Driver(kernel, proc, rare_every=0))
        kernel.tracer.stop()
        syscalls = kernel.tracer.traced_syscalls(proc.cgroup.cg_id)
        assert {"getpid", "fork", "mmap", "select", "poll",
                "page_fault"} <= syscalls

    def test_deterministic(self, image):
        from repro.kernel.kernel import MiniKernel

        def once():
            kernel = MiniKernel(image=image)
            proc = kernel.create_process("lb")
            tests = [t for t in build_tests() if t.name == "read"]
            return run_lebench(kernel, proc, tests=tests)["read"]
        assert once() == once()


class TestApps:
    def test_all_four_apps_modeled(self):
        assert set(APP_NAMES) == {"httpd", "nginx", "memcached", "redis"}

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_serving_requests_accumulates_kernel_time(self, kernel, app):
        proc = kernel.create_process(app)
        workload = AppWorkload(kernel, proc, APP_SPECS[app])
        result = workload.serve(5)
        assert result.requests == 5
        assert result.kernel_cycles > 0
        assert result.syscalls >= 5

    def test_kernel_time_fractions_match_paper(self):
        assert APP_SPECS["httpd"].kernel_time_fraction == 0.50
        assert APP_SPECS["nginx"].kernel_time_fraction == 0.65
        assert APP_SPECS["memcached"].kernel_time_fraction == 0.65
        assert APP_SPECS["redis"].kernel_time_fraction == 0.53

    def test_user_cycle_budget_formula(self):
        assert APP_SPECS["httpd"].user_cycles_per_request(1000.0) == \
            pytest.approx(1000.0)  # f=0.5 -> user == kernel

    def test_request_syscalls_within_binary_surface(self, kernel):
        """Every syscall an app issues must be declared by its binary
        (otherwise static ISVs and seccomp policies would be wrong)."""
        for app in APP_NAMES:
            proc = kernel.create_process(app)
            kernel.tracer.start()
            workload = AppWorkload(kernel, proc, APP_SPECS[app],
                                   rare_every=0)
            workload.serve(100)
            kernel.tracer.stop()
            used = kernel.tracer.traced_syscalls(proc.cgroup.cg_id)
            declared = APP_SPECS[app].binary.static_syscall_surface()
            assert used <= declared, (app, used - declared)
            kernel.tracer.clear()

    def test_open_close_balance(self, kernel):
        proc = kernel.create_process("httpd")
        workload = AppWorkload(kernel, proc, APP_SPECS["httpd"])
        workload.serve(20)
        # Only the listening socket stays open.
        assert len(proc.files) == 1

    def test_client_specs_reference_real_apps(self):
        for client in CLIENTS.values():
            assert client.app in APP_SPECS
            assert client.sampled_requests < client.paper_requests
            assert "samples" in client.sampling_note
