"""eBPF gadget injection (Table 4.1 rows 3-4).

The attacker loads a program that *passes verification*: every access is
guarded by a bounds check, so it is architecturally confined to its map
area.  Transiently, the guard is just a mistrainable branch -- the loaded
program is a Spectre v1 gadget the attacker injected into the kernel, with
an index register it fully controls.

Layered mitigations, all reproduced:

* the **fixed verifier** (``speculation_safe=True``) rejects the program
  at load time: branch guards no longer count as bounds proofs, only
  masking does;
* the **unprivileged-load ban** refuses the load outright;
* **Perspective's DSVs** stop even a loaded gadget: the transient
  out-of-bounds access violates ownership regardless of how the code got
  into the kernel.

The program transmits through its own 4 KB map area (64 cache lines), so
one run leaks 6 bits; a second program variant leaks the top 2 bits and
the attacker stitches the byte together.
"""

from __future__ import annotations

from functools import partial

from repro.attacks.base import ActiveAttack, AttackSetup
from repro.attacks.covert import LINE_BYTES
from repro.cpu.isa import AluOp, alu, br, load, ret
from repro.kernel.ebpf import BPFManager, BPFProgram, BPFVerifier, MAP_SIZE

#: Architectural bound the guard enforces (the "array size").
GUARD_BOUND = 64


def _transmit_tail(shift: int, mask_after_shift: int):
    """Ops encoding ``map[((r8 >> shift) & ...) << 6]`` with verifier-legal
    masking on the transmit index."""
    ops = []
    if shift:
        ops.append(alu("r9", AluOp.SHR, "r8", imm=shift))
        ops.append(alu("r9", AluOp.AND, "r9", imm=0x3F))
    else:
        ops.append(alu("r9", AluOp.AND, "r8", imm=0x3F))
    ops.append(alu("r9", AluOp.SHL, "r9", imm=6))
    ops.append(alu("r9", AluOp.AND, "r9", imm=0xFC0))
    ops.append(alu("r7", AluOp.ADD, "r15", "r9"))
    ops.append(load("r5", "r7"))
    return ops


def guarded_oob_program(name: str, shift: int = 0) -> BPFProgram:
    """The malicious-but-verifiable program: branch-guarded access.

    ``shift`` selects which bits of the accessed byte are transmitted
    (0 -> low six bits, 6 -> top two)."""
    body = [
        alu("r5", AluOp.MOV, "r0"),
        alu("r6", AluOp.CMPLTU, "r5", imm=GUARD_BOUND),
    ]
    branch_at = len(body)
    body.append(br("r6", target=-1))
    body.append(ret())  # out of bounds: architecturally refused
    body[branch_at] = br("r6", target=len(body))
    body.append(alu("r7", AluOp.ADD, "r15", "r5"))
    body.append(load("r8", "r7"))  # the injected access step
    body.extend(_transmit_tail(shift, 0xFC0))
    body.append(ret())
    return BPFProgram(name=name, body=body)


def masked_program(name: str) -> BPFProgram:
    """A genuinely safe program: the index is masked, not just guarded."""
    return BPFProgram(name=name, body=[
        alu("r5", AluOp.MOV, "r0"),
        alu("r5", AluOp.AND, "r5", imm=MAP_SIZE - 1),
        alu("r7", AluOp.ADD, "r15", "r5"),
        load("r8", "r7"),
        ret(),
    ])


class EBPFInjectionAttack(ActiveAttack):
    """End-to-end gadget injection against a chosen verifier/manager."""

    name = "ebpf-injection"
    #: Map offsets of known control bytes.  Two slots with different
    #: values in *both* bit groups disambiguate the case where the
    #: secret's transmitted bits equal one control's.
    CONTROL_SLOTS = ((0x300, 0x2A), (0x340, 0xD5))
    #: The programs transmit through their own map area at the heap base.
    PROBE_REGION = (0, MAP_SIZE // LINE_BYTES)

    def __init__(self, setup: AttackSetup, manager: BPFManager) -> None:
        # Load first: a refused load raises before any state changes.
        self.manager = manager
        self.low = manager.load(setup.attacker,
                                guarded_oob_program("low", 0),
                                privileged=False)
        self.high = manager.load(setup.attacker,
                                 guarded_oob_program("high", 6),
                                 privileged=False)
        super().__init__(setup)

    def _probe(self, handle: int, va: int) -> frozenset[int]:
        attacker = self.setup.attacker
        for _ in range(5):  # mistrain the guard toward in-bounds
            self.manager.run(attacker, handle, arg=1)
        return self.channel.observe(lambda: self.manager.run(
            attacker, handle, arg=va - attacker.heap_va))

    def leak_byte(self, i: int) -> int | None:
        """Stitch the byte together from the low six bits one program
        transmits and the top two the other does."""
        va = self.setup.secret_va + i
        low = self.recover(va, partial(self._probe, self.low),
                           lambda byte: byte & 0x3F)
        high = self.recover(va, partial(self._probe, self.high),
                            lambda byte: byte >> 6)
        if low is None or high is None:
            return None
        return ((high & 0x3) << 6) | low


def vulnerable_manager(kernel) -> BPFManager:
    """The historical configuration: buggy verifier, unprivileged loads."""
    return BPFManager(kernel,
                      verifier=BPFVerifier(speculation_safe=False),
                      allow_unprivileged=True)


class EBPFInjectionOnVulnerableConfig(EBPFInjectionAttack):
    """Matrix-harness adapter: builds the historical (vulnerable) BPF
    configuration itself, so it plugs into ``run_attack`` like the other
    PoCs.  Under Perspective the loaded program is outside every installed
    ISV *and* its OOB access violates the DSV -- blocked either way."""

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup, vulnerable_manager(setup.kernel))
