"""Mid-function speculative hijack: why Perspective builds on CFI.

ISVs are enforced on *transmitter instructions by location*: a function
inside the view is trusted speculatively.  But an attacker who can steer
an indirect prediction into the **middle** of an ISV-trusted function
lands *past its bounds check* -- the classic Spectre v1 gadget becomes an
unconditional read.  The paper closes this with SpecCFI-style control-flow
integrity (Section 5.1): predicted targets must be valid function entries.

This PoC poisons the victim's fops-dispatch BTB entry with the address of
the access block *inside* ``ioctl_v1_gadget`` (op index 4, just after the
bounds check).  With CFI off and a permissive ISV it leaks; Perspective's
default CFI layer suppresses the hijack at the predictor.
"""

from __future__ import annotations

from repro.attacks.base import (
    DEFAULT_SECRET,
    AttackResult,
    AttackSetup,
    PassiveAttack,
    make_setup,
)
from repro.attacks.harness import build_perspective
from repro.attacks.spectre_v2 import find_op_va
from repro.cpu.isa import Op
from repro.kernel.image import KernelImage, shared_image
from repro.kernel.kernel import MiniKernel

#: Op index of the gadget's access block (first op past the bounds check).
GADGET_ACCESS_INDEX = 4


class MidFunctionHijackAttack(PassiveAttack):
    """Spectre v2 steering speculation past an in-view bounds check."""

    name = "spectre-v2-midfunction"

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup)
        image = self.kernel.image
        entry = image.layout["sys_recvfrom"]
        self.hijack_pc = find_op_va(entry, Op.ICALL)
        gadget = image.layout["ioctl_v1_gadget"]
        # Target the middle of the (ISV-trusted) gadget: the access block.
        self.target_va = gadget.va_of(GADGET_ACCESS_INDEX)
        self.victim_fd = self.kernel.syscall(
            setup.victim, "socket", args=(0,)).retval
        # The hijacked access reads victim_heap + r0, and the victim's r0
        # is its socket fd: plant the byte to leak right there.
        self.leak_offset = self.victim_fd

    def plant_byte(self, value: int) -> None:
        pa = self.setup.victim.aspace.translate(
            self.setup.victim.heap_va + self.leak_offset)
        self.kernel.memory.store(pa, value)

    def poison(self) -> None:
        self.kernel.branch_unit.btb.poison(self.hijack_pc, self.target_va,
                                           domain="kernel")

    def victim_path(self, i: int) -> None:
        self.kernel.syscall(self.setup.victim, "recvfrom",
                            args=(self.victim_fd, 0, 0))

    def leak_byte(self, i: int) -> int | None:
        # The hijacked access reads leak_offset, not secret_va + i.
        self.plant_byte(self.setup.secret[i])
        return super().leak_byte(i)


def run_midfunction_attack(cfi: bool, image: KernelImage | None = None,
                           secret: bytes = DEFAULT_SECRET) -> AttackResult:
    """Run the PoC under Perspective with CFI on or off.

    The ISV is permissive (it contains the gadget function) and DSV
    enforcement cannot help (the hijacked access reads the victim's *own*
    heap), so the outcome isolates exactly the CFI layer's contribution.
    """
    kernel = MiniKernel(image=image or shared_image())
    setup = make_setup(kernel, secret=secret)
    framework, policy = build_perspective(kernel)
    policy.cfi = cfi
    attack = MidFunctionHijackAttack(setup)
    return attack.run(f"perspective-cfi-{'on' if cfi else 'off'}")
