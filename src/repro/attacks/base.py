"""The one PoC recipe: result and setup types, the leak loop, and the two
attack shapes of the paper's security evaluation (Chapter 8).

:class:`Attack` holds the only byte-by-byte leak loop.  A PoC subclasses
one of its two shapes and implements only its primitives:

* :class:`ActiveAttack` -- the attacker's own kernel thread runs the
  gadget on an attacker-chosen address, transmitting into the attacker's
  probe array (DSVs stop it).  Primitive: ``probe(va)``.
* :class:`PassiveAttack` -- the victim's kernel thread is hijacked into a
  gadget that transmits into the victim's probe array, watched through
  the shared cache (ISVs stop it).  Primitives: ``poison()``,
  ``victim_path(i)`` and optionally ``unpoison()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.attacks.covert import PROBE_LINES, CovertChannel
from repro.kernel.image import PROBE_ARRAY_OFF
from repro.kernel.kernel import MiniKernel
from repro.kernel.process import Process

#: The secret every PoC plants by default.
DEFAULT_SECRET = b"K3Y!"


@dataclass
class AttackResult:
    """Outcome of one end-to-end PoC run."""

    name: str
    scheme: str
    secret: bytes
    leaked: bytes
    #: Bytes the attacker failed to recover at all (no unique hit line).
    unrecovered: int = 0
    notes: str = ""

    @property
    def success(self) -> bool:
        """The attack succeeded iff every secret byte was recovered."""
        return len(self.leaked) == len(self.secret) \
            and self.leaked == self.secret

    @property
    def blocked(self) -> bool:
        return not self.success


@dataclass
class AttackSetup:
    """Attacker and victim processes sharing a kernel (and its core)."""

    kernel: MiniKernel
    attacker: Process
    victim: Process
    secret: bytes = b""
    secret_va: int = 0
    extras: dict = field(default_factory=dict)


def make_setup(kernel: MiniKernel | None = None,
               secret: bytes = DEFAULT_SECRET) -> AttackSetup:
    """Boot a kernel (if needed) with an attacker and a victim process,
    planting ``secret`` in the victim's kernel heap."""
    kernel = kernel or MiniKernel()
    attacker = kernel.create_process("attacker")
    victim = kernel.create_process("victim")
    secret_va = kernel.plant_secret(victim, secret)
    return AttackSetup(kernel=kernel, attacker=attacker, victim=victim,
                       secret=secret, secret_va=secret_va)


#: Attempts per secret byte: a first transient touch can die to a cold
#: conservative block in the defense's view caches rather than to
#: enforcement proper, and attackers simply try again.
ATTEMPTS = 3


class Attack:
    """One end-to-end PoC against the secret planted in ``setup``."""

    name = ""

    def __init__(self, setup: AttackSetup) -> None:
        self.setup = setup
        self.kernel = setup.kernel

    def leak_byte(self, i: int) -> int | None:
        """One attempt at secret byte ``i``; ``None`` if it stayed
        hidden."""
        raise NotImplementedError

    def run(self, scheme_name: str = "unsafe") -> AttackResult:
        """Leak the whole planted secret byte by byte."""
        leaked = bytearray()
        unrecovered = 0
        for i in range(len(self.setup.secret)):
            byte = None
            for _ in range(ATTEMPTS):
                byte = self.leak_byte(i)
                if byte is not None:
                    break
            if byte is None:
                unrecovered += 1
            else:
                leaked.append(byte)
        return AttackResult(name=self.name, scheme=scheme_name,
                            secret=self.setup.secret, leaked=bytes(leaked),
                            unrecovered=unrecovered)


class ActiveAttack(Attack):
    """The attacker's own kernel thread transiently reads any kernel VA
    and transmits the byte into the attacker's probe region."""

    #: ``(heap offset, byte)`` pairs planted in the attacker's heap: reads
    #: of known bytes whose footprint the secret's is compared against.
    CONTROL_SLOTS: tuple[tuple[int, int], ...] = ()
    #: The probe region the gadget transmits into: ``(heap offset,
    #: lines)`` of the attacker's kernel heap.
    PROBE_REGION = (PROBE_ARRAY_OFF, PROBE_LINES)

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup)
        attacker = setup.attacker
        self.channel = CovertChannel(self.kernel, attacker,
                                     *self.PROBE_REGION)
        for offset, value in self.CONTROL_SLOTS:
            pa = attacker.aspace.translate(attacker.heap_va + offset)
            self.kernel.memory.store(pa, value)

    def probe(self, va: int) -> frozenset[int]:
        """One transient read of ``va``: the probe lines it touched."""
        raise NotImplementedError

    def leak_byte(self, i: int) -> int | None:
        return self.recover(self.setup.secret_va + i, self.probe)

    def recover(self, va: int, probe: Callable[[int], frozenset[int]],
                line: Callable[[int], int] = lambda byte: byte,
                ) -> int | None:
        """The line ``probe`` transmits for the byte at ``va``, told apart
        from the gadget's constant footprint by probing the control slots
        (``line`` maps a control byte to the line it transmits)."""
        measured = probe(va)
        heap = self.setup.attacker.heap_va
        return self.channel.recover_against_controls(measured, (
            (line(value), probe(heap + offset))
            for offset, value in self.CONTROL_SLOTS))


class PassiveAttack(Attack):
    """The victim's kernel thread is hijacked into a gadget that
    transmits into the victim's probe array; the attacker compares a
    benign round against a poisoned one through the shared cache."""

    def __init__(self, setup: AttackSetup) -> None:
        super().__init__(setup)
        self.channel = CovertChannel(self.kernel, setup.victim)

    def unpoison(self) -> None:
        """Clear attacker predictor state before the benign round."""

    def poison(self) -> None:
        """Plant the hijack in the shared predictors."""
        raise NotImplementedError

    def victim_path(self, i: int) -> None:
        """Run the victim's kernel path that consumes the prediction
        with a reference to secret byte ``i`` live."""
        raise NotImplementedError

    def leak_byte(self, i: int) -> int | None:
        self.unpoison()
        control = self.channel.observe(lambda: self.victim_path(i))
        self.poison()
        measured = self.channel.observe(lambda: self.victim_path(i))
        return self.channel.recover_differential(measured, control)
