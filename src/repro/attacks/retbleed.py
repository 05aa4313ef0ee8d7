"""Retbleed (Table 4.1 row 7): return-target hijacking despite retpolines.

The victim's ``sys_recvfrom`` path contains a call chain deeper than the
16-entry RSB.  On the way back up, the two outermost returns find the RSB
underflowed, and Retbleed-vulnerable cores fall back to the *BTB* for the
return-target prediction -- a structure the attacker can poison even when
every indirect call is compiled as a retpoline.  The hijacked return lands
in the driver gadget with the secret reference still live in ``r5``.
"""

from __future__ import annotations

from repro.attacks.base import AttackSetup, PassiveAttack
from repro.cpu.isa import Op


class RetbleedPassiveAttack(PassiveAttack):
    """BTB-poisoned underflowing returns on the victim's syscall path."""

    name = "retbleed-passive"

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup)
        image = self.kernel.image
        self.gadget_va = image.layout["xilinx_usb_poc_gadget"].base_va
        # The returns that underflow are the two outermost frames of the
        # deep chain: recv_deep0 and recv_deep1.
        self.ret_pcs = []
        for name in ("recv_deep0", "recv_deep1"):
            func = image.layout[name]
            for idx, op in enumerate(func.body):
                if op.op is Op.RET:
                    self.ret_pcs.append(func.va_of(idx))
        self.victim_fd = self.kernel.syscall(
            setup.victim, "socket", args=(0,)).retval

    def poison(self) -> None:
        # Mistraining runs in the attacker's context (see SpectreV2's
        # poison): IBPB deployments flush it at the victim's switch-in.
        self.kernel.syscall(self.setup.attacker, "getpid")
        for pc in self.ret_pcs:
            self.kernel.branch_unit.btb.poison(pc, self.gadget_va,
                                               domain="kernel")

    def unpoison(self) -> None:
        for pc in self.ret_pcs:
            self.kernel.branch_unit.btb.poison(pc, 0, domain="isolated")

    def victim_path(self, i: int) -> None:
        # Attacker primes the RSB empty first (its own ret-heavy code), so
        # the victim's deep chain underflows deterministically.
        self.kernel.branch_unit.rsb.clear()
        self.kernel.syscall(self.setup.victim, "recvfrom",
                            args=(self.victim_fd, 0, i))
