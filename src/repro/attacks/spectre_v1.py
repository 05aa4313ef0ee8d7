"""Spectre v1 active attack (Figure 4.1 / Listing 2.1).

The attacker's own kernel thread runs the bounds-checked gadget on the
``sys_ioctl`` path.  Mistraining biases the bounds-check branch toward
taken; an out-of-bounds index then transiently reads
``attacker_heap[idx]`` -- which, through the kernel's monolithic direct
map, can be *any* physical byte, including the victim's secret -- and
transmits it through the attacker's own probe array.

Under Perspective, the transient access violates the attacker's DSV (the
secret's frame is owned by the victim's cgroup) and is blocked, killing
the leak at the access step.
"""

from __future__ import annotations

from repro.attacks.base import ActiveAttack

#: In-bounds ``sys_ioctl`` calls that bias the bounds check toward taken
#: before each out-of-bounds one.
MISTRAIN_ROUNDS = 6


class SpectreV1ActiveAttack(ActiveAttack):
    """End-to-end flush+reload Spectre v1 PoC."""

    name = "spectre-v1-active"
    #: Both beyond array1's 64-byte bound.
    CONTROL_SLOTS = ((0x300, 0x5C), (0x340, 0xA7))

    def probe(self, va: int) -> frozenset[int]:
        """Mistrain, then index array1 out of bounds at ``va``."""
        attacker = self.setup.attacker
        for _ in range(MISTRAIN_ROUNDS):
            self.kernel.syscall(attacker, "ioctl", args=(1,))
        return self.channel.observe(lambda: self.kernel.syscall(
            attacker, "ioctl", args=(va - attacker.heap_va,)))
