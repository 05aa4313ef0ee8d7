"""Spectre RSB (ret2spec-style): poisoned return-stack consumption.

The consumption point is a context switch: when the victim thread is
switched back in, its first instruction is the RET out of
``finish_task_switch`` -- but the RSB now holds entries planted by the
attacker, who ran on this core in the meantime and executed calls whose
return sites collide with the gadget address.  The victim's resume RET
mispredicts into the gadget while its restored registers (including the
secret reference in ``r5``) are live.
"""

from __future__ import annotations

from repro.attacks.base import AttackSetup, PassiveAttack
from repro.cpu.pipeline import ExecutionContext
from repro.kernel.image import (
    REG_GLOBAL,
    REG_HEAP,
    REG_KSTACK,
    REG_TASK,
    REG_USERBUF,
    SECRET_OFF,
)
from repro.kernel.layout import USER_BASE


class SpectreRSBPassiveAttack(PassiveAttack):
    """RSB poisoning consumed at the victim's context-switch resume."""

    name = "spectre-rsb-passive"

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup)
        image = self.kernel.image
        self.gadget_va = image.layout["xilinx_usb_poc_gadget"].base_va
        self.resume_func = image.layout["finish_task_switch"]
        self.switched_from = image.layout["sys_nanosleep"]

    def unpoison(self) -> None:
        self.kernel.branch_unit.rsb.clear()

    def poison(self) -> None:
        """The attacker's colliding call sites fill the RSB with the
        gadget address."""
        rsb = self.kernel.branch_unit.rsb
        rsb.clear()
        for _ in range(4):
            rsb.push(self.gadget_va)

    def victim_path(self, i: int) -> None:
        """Run the victim's switch-in path: RET out of finish_task_switch
        back into its suspended nanosleep syscall."""
        victim = self.setup.victim
        regs = {
            "r5": victim.heap_va + SECRET_OFF + i,  # live secret ref
            REG_HEAP: victim.heap_va,
            REG_TASK: victim.heap_va,
            REG_KSTACK: victim.kernel_stack_va,
            REG_GLOBAL: self.kernel.global_page_va,
            REG_USERBUF: USER_BASE,
            "r11": 1, "r0": 0, "r1": 0, "r2": 0, "r4": 0, "r8": victim.heap_va,
        }
        context = ExecutionContext(
            context_id=victim.cgroup.cg_id, domain="kernel",
            address_space=victim.aspace, initial_regs=regs)
        # Resume at the RET (op index 1) of finish_task_switch, returning
        # into the tail of the suspended syscall entry.
        resume_at = len(self.switched_from.body) - 1  # the final KRET
        self.kernel.pipeline.run(
            self.resume_func, context, start_index=1,
            initial_call_stack=[(self.switched_from, resume_at)])
