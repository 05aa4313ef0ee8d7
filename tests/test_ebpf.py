"""Tests for the eBPF substrate and the Table 4.1 rows 3-4 story."""

from __future__ import annotations

import pytest

from repro.attacks.base import make_setup
from repro.attacks.ebpf import (
    EBPFInjectionAttack,
    guarded_oob_program,
    masked_program,
    vulnerable_manager,
)
from repro.attacks.harness import (
    attack_on,
    build_perspective,
    build_policy,
    non_driver_isv_functions,
)
from repro.core.views import InstructionSpeculationView
from repro.cpu.isa import AluOp, Op, alu, call, kret, load, ret, store
from repro.kernel.ebpf import (
    BPFManager,
    BPFProgram,
    BPFVerifier,
    MAP_SIZE,
    VerifierError,
)
from repro.kernel.kernel import MiniKernel


def prog(*ops) -> BPFProgram:
    return BPFProgram("t", list(ops) + [ret()])


class TestVerifierArchitecturalRules:
    def test_safe_masked_program_accepted(self):
        BPFVerifier(True).verify(masked_program("ok"))

    def test_empty_program_rejected(self):
        with pytest.raises(VerifierError, match="empty"):
            BPFVerifier(True).verify(BPFProgram("t", []))

    def test_must_end_with_ret(self):
        with pytest.raises(VerifierError, match="RET"):
            BPFVerifier(True).verify(
                BPFProgram("t", [alu("r5", AluOp.LI, imm=1)]))

    def test_forbidden_ops_rejected(self):
        for bad in (call("kmalloc"), kret()):
            with pytest.raises(VerifierError, match="forbidden"):
                BPFVerifier(True).verify(prog(bad))

    def test_reserved_register_writes_rejected(self):
        with pytest.raises(VerifierError, match="writes"):
            BPFVerifier(True).verify(prog(alu("r15", AluOp.LI, imm=0)))

    def test_reserved_register_reads_rejected(self):
        with pytest.raises(VerifierError, match="reads"):
            BPFVerifier(True).verify(prog(alu("r5", AluOp.MOV, "r13")))

    def test_constant_offset_in_map_accepted(self):
        BPFVerifier(True).verify(prog(load("r5", "r15", imm=MAP_SIZE - 8)))

    def test_constant_offset_outside_map_rejected(self):
        with pytest.raises(VerifierError, match="outside the map"):
            BPFVerifier(True).verify(prog(load("r5", "r15", imm=MAP_SIZE)))

    def test_unbounded_register_offset_rejected(self):
        with pytest.raises(VerifierError, match="not provably bounded"):
            BPFVerifier(True).verify(prog(
                alu("r7", AluOp.ADD, "r15", "r0"),
                load("r5", "r7")))

    def test_store_checked_like_load(self):
        with pytest.raises(VerifierError, match="not provably bounded"):
            BPFVerifier(True).verify(prog(
                alu("r7", AluOp.ADD, "r15", "r0"),
                store("r7", "r5")))

    def test_mask_invalidated_by_arithmetic(self):
        """A masked index loses its bound if modified afterwards."""
        with pytest.raises(VerifierError):
            BPFVerifier(True).verify(prog(
                alu("r5", AluOp.AND, "r0", imm=0xFF),
                alu("r5", AluOp.SHL, "r5", imm=8),  # may exceed the map
                alu("r7", AluOp.ADD, "r15", "r5"),
                load("r6", "r7")))


class TestVerifierSpeculationGap:
    def test_buggy_verifier_accepts_branch_guarded_oob(self):
        """The historical hole: architecturally safe, transiently not."""
        BPFVerifier(speculation_safe=False).verify(
            guarded_oob_program("g"))

    def test_fixed_verifier_rejects_branch_guarded_oob(self):
        with pytest.raises(VerifierError, match="mask the index"):
            BPFVerifier(speculation_safe=True).verify(
                guarded_oob_program("g"))

    def test_fixed_verifier_still_accepts_masked_access(self):
        BPFVerifier(speculation_safe=True).verify(masked_program("m"))


class TestManager:
    def test_unprivileged_load_banned_by_default(self, kernel, proc):
        with pytest.raises(PermissionError, match="unprivileged"):
            kernel.bpf.load(proc, masked_program("m"))

    def test_privileged_load_allowed(self, kernel, proc):
        handle = kernel.bpf.load(proc, masked_program("m"), privileged=True)
        assert handle in kernel.bpf.loaded

    def test_loaded_program_runs_with_map_base(self, kernel, proc):
        handle = kernel.bpf.load(proc, masked_program("m"), privileged=True)
        result = kernel.bpf.run(proc, handle, arg=8)
        assert result.committed_ops == 5

    def test_program_isolated_to_owner(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        handle = kernel.bpf.load(a, masked_program("m"), privileged=True)
        with pytest.raises(PermissionError, match="another process"):
            kernel.bpf.run(b, handle)

    def test_programs_live_in_overlay_not_shared_image(self, image):
        k1 = MiniKernel(image=image)
        k2 = MiniKernel(image=image)
        p1 = k1.create_process("p")
        k1.bpf.load(p1, masked_program("m"), privileged=True)
        assert any(n.startswith("bpf_prog") for n in k1.layout.local_names())
        assert not any(n.startswith("bpf_prog") for n in k2.layout.names())
        assert not any(n.startswith("bpf_prog") for n in image.layout.names())

    def test_unload(self, kernel, proc):
        handle = kernel.bpf.load(proc, masked_program("m"), privileged=True)
        kernel.bpf.unload(handle)
        with pytest.raises(KeyError):
            kernel.bpf.run(proc, handle)


class TestInjectionAttack:
    def test_injected_gadget_leaks_on_unsafe_hardware(self, image):
        kernel = MiniKernel(image=image)
        setup = make_setup(kernel, secret=b"BP")
        attack = EBPFInjectionAttack(setup, vulnerable_manager(kernel))
        result = attack.run("unsafe")
        assert result.success, result

    def test_fixed_verifier_stops_the_load(self, image):
        kernel = MiniKernel(image=image)
        setup = make_setup(kernel)
        manager = BPFManager(kernel, verifier=BPFVerifier(True),
                             allow_unprivileged=True)
        with pytest.raises(VerifierError):
            EBPFInjectionAttack(setup, manager)

    def test_unprivileged_ban_stops_the_load(self, image):
        kernel = MiniKernel(image=image)
        setup = make_setup(kernel)
        manager = BPFManager(kernel,
                             verifier=BPFVerifier(speculation_safe=False),
                             allow_unprivileged=False)
        with pytest.raises(PermissionError):
            EBPFInjectionAttack(setup, manager)

    def test_perspective_dsv_blocks_injected_gadget(self, image):
        """Even with the buggy verifier and the gadget loaded -- and the
        attacker's ISV trusting its own program -- the transient OOB
        access violates ownership and dies at the DSV check."""
        kernel = MiniKernel(image=image)
        setup = make_setup(kernel, secret=b"BP")
        manager = vulnerable_manager(kernel)
        attack = EBPFInjectionAttack(setup, manager)
        framework, _ = build_perspective(kernel)
        ctx = setup.attacker.cgroup.cg_id
        trusted = non_driver_isv_functions(image) | {
            prog.function.name for prog in manager.loaded.values()}
        framework.install_isv(InstructionSpeculationView(
            ctx, trusted, kernel.layout, source="with-bpf"))
        result = attack.run("perspective")
        assert result.blocked


class TestRepeatedInjection:
    """Program handles come from one sequence per kernel, so a second
    PoC on a kernel loads its programs under new names instead of
    colliding with the first PoC's."""

    @pytest.mark.parametrize("scheme", ("unsafe", "perspective"))
    def test_two_pocs_on_one_kernel(self, image, scheme):
        kernel = MiniKernel(image=image)
        attacker = kernel.create_process("attacker")
        victim = kernel.create_process("victim")
        build_policy(scheme, kernel)
        results = [attack_on(kernel, attacker, victim, "ebpf-injection",
                             scheme) for _ in range(2)]
        if scheme == "unsafe":
            assert [r.leaked for r in results] == [b"K3Y!", b"K3Y!"]
        else:
            assert all(r.blocked for r in results)
        assert kernel.layout.local_names() == [
            "bpf_prog_1_low", "bpf_prog_2_high",
            "bpf_prog_3_low", "bpf_prog_4_high"]

    def test_campaign_survives_a_second_epoch(self, image):
        from repro.serve.campaign import CampaignSpec, run_campaign

        report = run_campaign(CampaignSpec(attackers=("ebpf-injection",),
                                           epochs=2), image=image)
        assert report["leaks"]["attempted_bytes"] > 0
