"""End-to-end security tests: the Chapter 8 PoC matrix.

Every attack must leak the planted secret on the UNSAFE baseline (the PoC
actually works) and be blocked by Perspective.  The spot-mitigation rows
reproduce the motivating gaps of Table 4.1: Spectre v1, Retbleed and
Spectre-RSB leak *through* KPTI+retpoline.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

import repro.attacks
from repro.attacks.base import make_setup
from repro.attacks.covert import CovertChannel
from repro.attacks.cves import (
    MitigationGap,
    Primitive,
    TABLE_4_1,
    record_for_row,
    records_by_primitive,
)
from repro.attacks.harness import (
    _NEEDS_EIBRS,
    ATTACKS,
    attack_on,
    build_perspective,
    build_policy,
    run_attack,
)
from repro.attacks.midfunction import MidFunctionHijackAttack
from repro.kernel.image import shared_image
from repro.kernel.kernel import KernelConfig, MiniKernel
from repro.obs.events import EventJournal
from repro.obs.instruments import instrumented

ACTIVE = ("spectre-v1-active", "spectre-v2-active")
PASSIVE = ("spectre-v2-passive", "retbleed-passive", "spectre-rsb-passive")


class TestCovertChannel:
    def test_flush_then_reload_distinguishes_touched_line(self, kernel):
        proc = kernel.create_process("p")
        channel = CovertChannel(kernel, proc)
        channel.flush()
        assert channel.reload().hit_lines() == frozenset()
        pa = proc.aspace.translate(
            proc.heap_va + 0x10000 + 37 * 64)
        kernel.hierarchy.access_data(pa)
        assert channel.reload().hit_lines() == frozenset({37})

    def test_differential_recovery(self, kernel):
        proc = kernel.create_process("p")
        channel = CovertChannel(kernel, proc)
        measured = frozenset({3, 7, 42})
        control = frozenset({3, 7})
        assert channel.recover_differential(measured, control) == 42
        assert channel.recover_differential(measured, measured) is None
        assert channel.recover_differential(
            frozenset({1, 2, 3}), frozenset()) is None  # ambiguous


class TestUnsafeBaseline:
    @pytest.mark.parametrize("attack", ACTIVE + PASSIVE)
    def test_attack_leaks_on_unsafe_hardware(self, attack):
        result = run_attack(attack, "unsafe")
        assert result.success, \
            f"{attack} PoC failed to leak on unprotected hardware"
        assert result.leaked == result.secret

    def test_bhi_leaks_despite_eibrs(self):
        assert run_attack("bhi-passive", "unsafe").success

    @pytest.mark.parametrize("attack", ("spectre-v2-active",
                                        "spectre-v1-active"))
    def test_secret_equal_to_a_control_byte_leaks(self, attack):
        """0x5C is a control byte of both active PoCs: when the secret
        equals it, the measured and control rounds coincide on its line,
        and that line is the byte."""
        result = run_attack(attack, "unsafe", secret=b"\x5c\xa7")
        assert result.success, result

    def test_plain_v2_blocked_by_eibrs(self):
        """The BHI control experiment: naive cross-domain injection is
        stopped by the hardware isolation."""
        assert run_attack("spectre-v2-vs-eibrs", "unsafe").blocked


class TestSpotMitigationGaps:
    def test_spectre_v1_leaks_through_spot_mitigations(self):
        """KPTI and retpolines do nothing for v1 (Table 4.1 rows 1-3)."""
        assert run_attack("spectre-v1-active", "spot").success

    def test_retbleed_leaks_through_retpoline(self):
        """Table 4.1 row 7: return hijacking bypasses retpolines."""
        assert run_attack("retbleed-passive", "spot").success

    def test_rsb_poisoning_leaks_through_spot(self):
        assert run_attack("spectre-rsb-passive", "spot").success

    def test_retpoline_does_block_classic_v2(self):
        assert run_attack("spectre-v2-passive", "spot").blocked
        assert run_attack("spectre-v2-active", "spot").blocked


class TestPerspectiveBlocksEverything:
    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_blocked_under_perspective(self, attack):
        result = run_attack(attack, "perspective")
        assert result.blocked, f"{attack} leaked under Perspective!"
        assert result.leaked == b""

    def test_active_attacks_blocked_by_dsv_alone(self, image):
        """Section 8.1: DSVs alone eliminate active attacks, even with a
        fully permissive ISV."""
        from repro.attacks.harness import build_perspective
        from repro.attacks.spectre_v1 import SpectreV1ActiveAttack
        from repro.kernel.kernel import MiniKernel
        kernel = MiniKernel(image=image)
        setup = make_setup(kernel)
        build_perspective(kernel,
                          isv_functions=frozenset(image.info))  # allow all
        result = SpectreV1ActiveAttack(setup).run("perspective-dsv-only")
        assert result.blocked

    def test_passive_attack_blocked_by_isv_alone(self, image):
        """Section 8.2: the hijack gadget is outside the ISV, so the
        victim cannot transiently execute its transmitter."""
        from repro.attacks.harness import build_perspective, \
            non_driver_isv_functions
        from repro.attacks.spectre_v2 import SpectreV2PassiveAttack
        from repro.defenses import PerspectivePolicy
        from repro.kernel.kernel import MiniKernel
        kernel = MiniKernel(image=image)
        setup = make_setup(kernel)
        framework, policy = build_perspective(kernel)
        policy.enforce_dsv = False  # ISVs only
        result = SpectreV2PassiveAttack(setup).run("perspective-isv-only")
        assert result.blocked


class TestOtherHardwareSchemes:
    @pytest.mark.parametrize("scheme", ("fence", "dom", "stt"))
    def test_v1_blocked_by_restrictive_schemes(self, scheme):
        assert run_attack("spectre-v1-active", scheme).blocked

    @pytest.mark.parametrize("scheme", ("fence", "stt"))
    def test_passive_v2_blocked_by_restrictive_schemes(self, scheme):
        assert run_attack("spectre-v2-passive", scheme).blocked


class TestISVPatchingStory:
    def test_shrinking_isv_blocks_newly_found_gadget(self, image):
        """Section 5.4: a gadget inside the ISV leaks until the view is
        tightened at runtime -- no kernel patch, no downtime."""
        from repro.attacks.harness import build_perspective
        from repro.attacks.spectre_v1 import SpectreV1ActiveAttack
        from repro.defenses import PerspectivePolicy
        from repro.kernel.kernel import MiniKernel
        kernel = MiniKernel(image=image)
        setup = make_setup(kernel)
        framework, policy = build_perspective(
            kernel, isv_functions=frozenset(image.info))
        policy.enforce_dsv = False  # isolate the ISV mechanism
        attack = SpectreV1ActiveAttack(setup)
        # Attack its OWN context's data so DSV would not matter anyway:
        # plant a known byte in the victim's place inside attacker heap.
        leaked_before = attack.run("isv-permissive")
        assert leaked_before.success  # gadget inside ISV: leaks
        framework.shrink_isv(setup.attacker.cgroup.cg_id,
                             {"ioctl_v1_gadget"})
        leaked_after = attack.run("isv-hardened")
        assert leaked_after.blocked


class TestCVERegistry:
    def test_nine_rows(self):
        assert len(TABLE_4_1) == 9
        assert [r.row for r in TABLE_4_1] == list(range(1, 10))

    def test_primitive_partition(self):
        data = records_by_primitive(Primitive.DATA_ACCESS)
        flow = records_by_primitive(Primitive.CONTROL_FLOW)
        assert len(data) == 4
        assert len(flow) == 5

    def test_every_row_has_runnable_poc(self):
        for rec in TABLE_4_1:
            assert rec.poc in ATTACKS

    def test_row_lookup(self):
        assert record_for_row(7).description == "Retbleed"
        with pytest.raises(KeyError):
            record_for_row(10)

    def test_known_gaps_annotated(self):
        assert record_for_row(5).gap is MitigationGap.HARDWARE
        assert record_for_row(7).gap is MitigationGap.SOFTWARE


#: The pinned runs' secret.  Its last two bytes are the eBPF PoC's
#: control bytes, so the coincident-control recovery path runs too.
PIN_SECRET = b"K3Y!\x2a\xd5"


def _fingerprint(kernel: MiniKernel, results, journal: EventJournal) -> str:
    """sha256 over the PoC outcomes and the machine state they leave:
    kernel cycles, syscall count, memory digest, TLB/L1I/L1D/L2 hit and
    miss counts and the event journal."""
    hier = kernel.hierarchy
    stats = (kernel.pipeline.tlb.stats, hier.l1i.stats, hier.l1d.stats,
             hier.l2.stats)
    blob = json.dumps({
        "results": [[r.name, r.scheme, r.secret.hex(), r.leaked.hex(),
                     r.unrecovered, r.notes] for r in results],
        "kernel_cycles_total": kernel.kernel_cycles_total,
        "syscall_count": kernel.syscall_count,
        "memory": kernel.memory.digest(),
        "caches": [[s.hits, s.misses] for s in stats],
        "journal_emitted": journal.emitted,
        "journal": journal.to_jsonl(),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _pinned_run(attack: str, scheme: str) -> str:
    """One PoC run booted the way :func:`run_attack` boots it."""
    config = KernelConfig(btb_hardware_isolation=attack in _NEEDS_EIBRS)
    kernel = MiniKernel(image=shared_image(), config=config)
    setup = make_setup(kernel, secret=PIN_SECRET)
    build_policy(scheme, kernel)
    poc = ATTACKS[attack](setup)
    journal = EventJournal()
    with instrumented(journal=journal):
        result = poc.run(scheme_name=scheme)
    return _fingerprint(kernel, [result], journal)


def _pinned_midfunction(cfi: bool | None) -> str:
    """The mid-function PoC on unsafe hardware (``cfi`` None) or under a
    permissive Perspective with CFI on or off."""
    kernel = MiniKernel(image=shared_image())
    setup = make_setup(kernel, secret=PIN_SECRET)
    label = "unsafe"
    if cfi is not None:
        _, policy = build_perspective(kernel)
        policy.cfi = cfi
        label = f"perspective-cfi-{'on' if cfi else 'off'}"
    poc = MidFunctionHijackAttack(setup)
    journal = EventJournal()
    with instrumented(journal=journal):
        result = poc.run(label)
    return _fingerprint(kernel, [result], journal)


#: Every non-eIBRS PoC, in turn, through one armed kernel (the serve
#: campaign's path).
_ATTACK_ON_SEQUENCE = ("spectre-v1-active", "spectre-v2-active",
                       "spectre-v2-passive", "retbleed-passive",
                       "spectre-rsb-passive", "ebpf-injection")


def _pinned_attack_on(scheme: str) -> str:
    kernel = MiniKernel(image=shared_image())
    attacker = kernel.create_process("attacker")
    victim = kernel.create_process("victim")
    build_policy(scheme, kernel)
    journal = EventJournal()
    with instrumented(journal=journal):
        results = [attack_on(kernel, attacker, victim, attack, scheme,
                             secret=PIN_SECRET)
                   for attack in _ATTACK_ON_SEQUENCE]
    return _fingerprint(kernel, results, journal)


class TestPinnedPoCs:
    """Every PoC pinned end to end: outcome, cycles, syscalls, memory,
    cache/TLB counters and event journal.

    The digests were measured before the PoCs shared one leak loop and
    one flush+reload round (identical under PYTHONHASHSEED 0 and 7): a
    refactor of :mod:`repro.attacks` must reproduce every run's calls in
    the same order.
    """

    PINS = {
        ("spectre-v1-active", "unsafe"):
            "b8717c600b06ba7b86867156409fd8a6dc76c1cea9928274112e642acad72dba",
        ("spectre-v1-active", "perspective"):
            "65b7899e8175c9c3d2c666a235c74cdb7d9158092d7a22511c918636d2d9abe7",
        ("spectre-v1-active", "spot"):
            "818daea58111e62a1c3fcbcf716e0b5037628fb8be7161857c7d966474f5acba",
        ("spectre-v2-active", "unsafe"):
            "8e06fa88220236f34a55491d893bb2082837b2fbb9faf99d7ac6fd578c733989",
        ("spectre-v2-active", "perspective"):
            "9db2ad0b9f44a472c32dd0b0c1ace76fb364158b916df56dee162be4a452f54f",
        ("spectre-v2-active", "spot"):
            "1419a681a99c69ed08b5204381017d65c3411619806776fc1c5420ce600ef02c",
        ("spectre-v2-passive", "unsafe"):
            "35e0c301966e385364c9ccaf05f05ca10f4e310fcd83b83adcebb19c1ac58071",
        ("spectre-v2-passive", "perspective"):
            "8bcd34bb2d2966c3a46c2acba1e87579ba746a377bb8911b4dca79af1a1bd891",
        ("spectre-v2-passive", "spot"):
            "318cabc4935fcb3a0484ef99f923cfdc811776eb0821c12765223ed51bab3273",
        ("retbleed-passive", "unsafe"):
            "634e18e39be4836924992d45eaf297de41f5844aa927ee43115592b62fee80fa",
        ("retbleed-passive", "perspective"):
            "3c7ddf87f09dcc8fab6d40946629a9fef12890cd68c6028c19d0fa5d33bb87c8",
        ("retbleed-passive", "spot"):
            "6c2501b4bcbccfca83b6741e26330ea648310742fc594413dec89bc3d9b12ff8",
        ("spectre-rsb-passive", "unsafe"):
            "d84d6bd14da6d2fa2830f049ed1ede1da3157372d45328b7ec6b2053ec2026d7",
        ("spectre-rsb-passive", "perspective"):
            "5982566a821bb48c0291c578ec932299eae3d575596f4c79f3bf597d24dc861e",
        ("spectre-rsb-passive", "spot"):
            "7769939e3a7effe42d78310dd06c17426b170c87fabe6a77e74ce9920e2b96ae",
        ("bhi-passive", "unsafe"):
            "f24a9bb399ba90ef437b290890917f34d15cf850d1b7503c16b00dac01681c75",
        ("bhi-passive", "perspective"):
            "bc8c5438a36435d64e3b497ab959f68620ce0dea61abfea5a30e90c02175da46",
        ("bhi-passive", "spot"):
            "ce423d9b9dfbd947aabb7b4689aabb4c9aa3ef5f5f3ee80eb0af85c7d76be322",
        ("spectre-v2-vs-eibrs", "unsafe"):
            "9f54a4568cbdb1de80f2181d80028f00e2db74266e2337aad9f1535ec0a5c734",
        ("spectre-v2-vs-eibrs", "perspective"):
            "4fc6a2273785a5ec688e522c17ad7d0217ba0edbce33b6c3c8fe3642de980595",
        ("spectre-v2-vs-eibrs", "spot"):
            "1d4a9a3e9d593f6263173827583cd62776c0031d3d41612c24896dd4ea2ed5f5",
        ("ebpf-injection", "unsafe"):
            "1118d885e264c5bf9bc577fc57e6d7dabbe515f0289f0e7160ae89af54ae7292",
        ("ebpf-injection", "perspective"):
            "f95577ba1a88d883bf522475ca4689696fbd8295d86d1c0cf17928c9db18b0d1",
        ("ebpf-injection", "spot"):
            "b518b8273023aff9d689809d4bc6d9747e1a948b428943605be318d4a884e71c",
    }

    MIDFUNCTION_PINS = {
        None:
            "65bb0c63a4c8d9b55bb233465284010ee9be04a54f370de5214ce96bc511f661",
        False:
            "e99c9aa9a1952d1aed3cd1da2dde817861f7c870d4f548727313631e8110e3b4",
        True:
            "2d32273d9452bff0a69fe53161a5b48b53014ae50a5a18c3c0dedbf6c8cc5748",
    }

    ATTACK_ON_PIN = \
        "1e8602625a345590f4fb5d8299bae8ac85c758579499f0b243bba9d752a32bff"

    @pytest.mark.parametrize("attack,scheme", sorted(PINS))
    def test_poc(self, attack, scheme):
        assert _pinned_run(attack, scheme) == self.PINS[(attack, scheme)]

    @pytest.mark.parametrize("cfi", [None, False, True])
    def test_midfunction(self, cfi):
        assert _pinned_midfunction(cfi) == self.MIDFUNCTION_PINS[cfi]

    def test_attack_on_shared_kernel(self):
        assert _pinned_attack_on("spot") == self.ATTACK_ON_PIN

    def test_every_scheme_of_every_poc_is_pinned(self):
        assert set(self.PINS) == {
            (attack, scheme) for attack in ATTACKS
            for scheme in ("unsafe", "perspective", "spot")}

    def test_one_leak_loop_and_one_channel_round(self):
        """Every PoC runs :meth:`Attack.run`, and only the covert channel
        flushes and times probe lines."""
        from repro.attacks.base import Attack
        for cls in [*ATTACKS.values(), MidFunctionHijackAttack]:
            assert issubclass(cls, Attack), cls
            assert cls.run is Attack.run, cls
        package = pathlib.Path(repro.attacks.__file__).parent
        for module in sorted(package.glob("*.py")):
            if module.name == "covert.py":
                continue
            source = module.read_text()
            for call in ("probe_latency", "flush_data"):
                assert call not in source, (module.name, call)
