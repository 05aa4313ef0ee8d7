"""Branch History Injection (Table 4.1 row 5).

BHI targets hardware-isolated predictors (eIBRS): the BTB refuses to serve
cross-domain entries, but the *indexing* still mixes in branch history that
userspace controls.  By colliding on history, the attacker steers a victim
indirect branch onto an attacker-chosen (kernel-resident) target despite
the isolation -- so the hardware mitigation alone is insufficient.

The PoC runs against a kernel configured with ``btb_hardware_isolation``:
a plain cross-domain poison is ignored (eIBRS works as advertised), while
a history-colliding poison is consumed (BHI bypasses it).
"""

from __future__ import annotations

from repro.attacks.base import AttackSetup
from repro.attacks.spectre_v2 import SpectreV2PassiveAttack


class BHIPassiveAttack(SpectreV2PassiveAttack):
    """Spectre v2 via branch-history collision under eIBRS."""

    name = "bhi-passive"

    def __init__(self, setup: AttackSetup) -> None:
        if not setup.kernel.branch_unit.btb.hardware_isolation:
            raise ValueError(
                "the BHI PoC targets a kernel with eIBRS enabled; build the "
                "kernel with KernelConfig(btb_hardware_isolation=True)")
        super().__init__(setup)

    def poison(self) -> None:
        # Mistrained from the attacker's thread (see the v2 parent) with a
        # branch history that collides with the victim's.
        self.kernel.syscall(self.setup.attacker, "getpid")
        self.kernel.branch_unit.btb.poison(
            self.hijack_pc, self.gadget_va, domain="user:attacker",
            history_collision=True)


class EIBRSBaselineCheck(SpectreV2PassiveAttack):
    """Plain cross-domain v2 against an eIBRS kernel -- expected blocked.

    This is the control experiment for BHI: it shows that the hardware
    isolation is effective against naive injection, so the leak observed
    by :class:`BHIPassiveAttack` is attributable to the history collision.
    """

    name = "spectre-v2-vs-eibrs"

    def poison(self) -> None:
        # Naive cross-domain injection from the attacker's user domain.
        self.kernel.branch_unit.btb.poison(
            self.hijack_pc, self.gadget_va, domain="user:attacker",
            history_collision=False)
