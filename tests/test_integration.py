"""End-to-end integration scenarios across the whole stack."""

from __future__ import annotations

import pytest

from repro.analysis.dynamic_isv import seccomp_filter_from_trace
from repro.attacks.base import AttackSetup
from repro.attacks.harness import build_perspective
from repro.attacks.spectre_v1 import SpectreV1ActiveAttack
from repro.attacks.spectre_v2 import SpectreV2PassiveAttack
from repro.kernel.kernel import MiniKernel
from repro.kernel.seccomp import Action
from repro.workloads.apps import APP_SPECS, AppWorkload


class TestMultiTenantScenario:
    """A server, an attacker, and Perspective -- all at once."""

    @pytest.fixture()
    def scene(self, image):
        kernel = MiniKernel(image=image)
        server = kernel.create_process("redis")
        attacker = kernel.create_process("attacker")
        secret = b"DBPW"
        secret_va = kernel.plant_secret(server, secret)
        framework, policy = build_perspective(kernel)
        workload = AppWorkload(kernel, server, APP_SPECS["redis"])
        return kernel, server, attacker, secret, secret_va, workload

    def test_attack_fails_while_service_runs(self, scene):
        kernel, server, attacker, secret, secret_va, workload = scene
        baseline = workload.serve(10).kernel_cycles_per_request
        setup = AttackSetup(kernel=kernel, attacker=attacker,
                            victim=server, secret=secret,
                            secret_va=secret_va)
        # Interleave attack rounds with service traffic.
        attack = SpectreV1ActiveAttack(setup)
        results = []
        for _ in range(2):
            results.append(attack.run("perspective"))
            workload.serve(5)
        assert all(r.blocked for r in results)
        # Service throughput under concurrent attack stays sane.
        under_attack = workload.serve(10).kernel_cycles_per_request
        assert under_attack < baseline * 1.5

    def test_active_and_passive_both_blocked_live(self, scene):
        kernel, server, attacker, secret, secret_va, workload = scene
        setup = AttackSetup(kernel=kernel, attacker=attacker,
                            victim=server, secret=secret,
                            secret_va=secret_va)
        assert SpectreV1ActiveAttack(setup).run("p").blocked
        assert SpectreV2PassiveAttack(setup).run("p").blocked


class TestInterpositionMarriage:
    """Section 5.3: one profiling pass feeds both the seccomp sandbox and
    the dynamic ISV."""

    def test_trace_yields_both_filters(self, kernel):
        proc = kernel.create_process("httpd")
        kernel.tracer.start()
        workload = AppWorkload(kernel, proc, APP_SPECS["httpd"],
                               rare_every=0)
        workload.serve(4)
        kernel.tracer.stop()
        filt = seccomp_filter_from_trace(kernel, proc.cgroup.cg_id)
        # The profiled syscalls are allowed...
        assert filt.evaluate("read", ()) is Action.ALLOW
        assert filt.evaluate("accept", ()) is Action.ALLOW
        # ...and everything unprofiled is denied.
        assert filt.evaluate("fork", ()) is Action.ERRNO
        # Install and verify live enforcement.
        kernel.install_seccomp(proc, filt)
        assert not kernel.syscall(proc, "stat", args=(0,)).denied
        assert kernel.syscall(proc, "fork").denied

    def test_seccomp_denial_vs_isv_fencing(self, kernel):
        """The paper's adoption argument: a syscall outside the seccomp
        list *fails*, while a function outside the ISV merely runs
        non-speculatively -- same profile, very different failure modes."""
        from repro.eval.envs import build_isv_for
        proc = kernel.create_process("nginx")
        isv = build_isv_for(kernel, proc, "nginx", "dynamic")
        filt = seccomp_filter_from_trace(kernel, proc.cgroup.cg_id)
        kernel.install_seccomp(proc, filt)
        # fork is in neither profile.  Under seccomp it hard-fails:
        assert kernel.syscall(proc, "fork").denied
        # Under the ISV alone (remove the filter) it *works*, just slower
        # (every speculative load in its path is fenced).
        kernel.install_seccomp(proc, type(filt)(
            rules=[], default_action=Action.ALLOW))
        from repro.attacks.harness import build_perspective
        framework, policy = build_perspective(
            kernel, isv_functions=isv.functions,
            context_ids=[proc.cgroup.cg_id])
        result = kernel.syscall(proc, "fork")
        assert not result.denied
        assert result.retval > 0  # the fork actually happened
        assert policy.fence_stats.by_reason.get("isv", 0) > 0


class TestCLI:
    def test_help_runs(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "Perspective" in capsys.readouterr().out


class TestWholeStackDeterminism:
    def test_attack_and_defense_reproducible(self, image):
        from repro.attacks.harness import run_attack

        def once():
            result = run_attack("spectre-v1-active", "perspective")
            return (result.leaked, result.unrecovered)
        assert once() == once()
