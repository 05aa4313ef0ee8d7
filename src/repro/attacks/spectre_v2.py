"""Spectre v2 (branch target injection) attacks, passive and active.

**Passive** (Figure 4.2): the victim's ``sys_recvfrom`` path leaves a
reference to its own secret in ``r5`` ("Function 1"), then performs an
indirect call through the file-operations pointer table.  The attacker
poisons the BTB entry for that indirect-call site so the victim's kernel
thread transiently executes a driver gadget ("Function 2") that
dereferences ``r5`` -- a speculative type confusion -- and transmits the
byte through the victim's probe array, which the attacker monitors via the
shared cache.

**Active**: the attacker hijacks *its own* indirect call into a gadget
dereferencing the first syscall argument, with ``r0`` set to any kernel VA.

Perspective blocks the passive form with ISVs (the gadget function is in
no view) and the active form with DSVs (the access violates ownership).
"""

from __future__ import annotations

from repro.attacks.base import ActiveAttack, AttackSetup, PassiveAttack
from repro.cpu.isa import Op


def find_op_va(func, op_kind: Op, occurrence: int = 0) -> int:
    """VA of the n-th op of a given kind in a function."""
    seen = 0
    for idx, op in enumerate(func.body):
        if op.op is op_kind:
            if seen == occurrence:
                return func.va_of(idx)
            seen += 1
    raise ValueError(f"{func.name} has no {op_kind} #{occurrence}")


class SpectreV2PassiveAttack(PassiveAttack):
    """BTB poisoning against the victim's fops dispatch site."""

    name = "spectre-v2-passive"

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup)
        image = self.kernel.image
        entry = image.layout["sys_recvfrom"]
        self.hijack_pc = find_op_va(entry, Op.ICALL)
        self.gadget_va = image.layout["xilinx_usb_poc_gadget"].base_va
        # The victim needs an open socket for recvfrom.
        self.victim_fd = self.kernel.syscall(
            setup.victim, "socket", args=(0,)).retval

    def poison(self) -> None:
        # The injection happens while the attacker's own thread runs
        # (mistraining via colliding branches), so the core's last context
        # is the attacker's -- an IBPB-on-switch deployment flushes the
        # entry when the victim comes back in.
        self.kernel.syscall(self.setup.attacker, "getpid")
        self.kernel.branch_unit.btb.poison(
            self.hijack_pc, self.gadget_va, domain="kernel")

    def victim_path(self, i: int) -> None:
        self.kernel.syscall(self.setup.victim, "recvfrom",
                            args=(self.victim_fd, 0, i))


class SpectreV2ActiveAttack(ActiveAttack):
    """BTB poisoning of the attacker's own dispatch site: the hijacked
    gadget dereferences the attacker-chosen syscall argument."""

    name = "spectre-v2-active"
    CONTROL_SLOTS = ((0x300, 0x5C),)

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup)
        image = self.kernel.image
        entry = image.layout["sys_read"]
        self.hijack_pc = find_op_va(entry, Op.ICALL)
        self.gadget_va = image.layout["active_v2_deref_gadget"].base_va
        self.attacker_fd = self.kernel.syscall(
            setup.attacker, "open", args=(0,)).retval

    def probe(self, va: int) -> frozenset[int]:
        """Poison the dispatch, then hand the gadget ``va``."""
        self.kernel.branch_unit.btb.poison(
            self.hijack_pc, self.gadget_va, domain="kernel")
        return self.channel.observe(lambda: self.kernel.syscall(
            self.setup.attacker, "read", args=(va,)))
