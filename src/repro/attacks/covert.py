"""Flush+reload covert channel over the shared cache hierarchy.

The transmitter side is a kernel transient-execution gadget loading
``probe_array[secret_byte * 64]``; the receiver flushes the probe lines
beforehand and times a reload of each afterwards (:meth:`observe` is one
such round).  A line that comes back at L1/L2 latency was touched
transiently -- its index is the secret byte.

Because generated kernel functions may themselves contain (benign-input)
gadget patterns that deterministically touch probe lines, recovery is
*differential*: a control run with a known byte identifies the constant
pollution set, and the secret is the line unique to the measurement run
(:meth:`recover_differential`, :meth:`recover_against_controls`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.kernel.image import PROBE_ARRAY_OFF
from repro.kernel.kernel import MiniKernel
from repro.kernel.process import Process

#: Reload latency at or below this is a hit (L2 round trip + margin).
HIT_THRESHOLD = 12
PROBE_LINES = 256
LINE_BYTES = 64


@dataclass
class ProbeResult:
    """One reload sweep over the probe array."""

    latencies: list[int]

    def hit_lines(self, threshold: int = HIT_THRESHOLD) -> frozenset[int]:
        return frozenset(i for i, lat in enumerate(self.latencies)
                         if lat <= threshold)


class CovertChannel:
    """Receiver handle on one context's probe region: ``lines`` cache
    lines at ``offset`` into its kernel heap (default: the probe array)."""

    def __init__(self, kernel: MiniKernel, owner: Process,
                 offset: int = PROBE_ARRAY_OFF,
                 lines: int = PROBE_LINES) -> None:
        self.kernel = kernel
        self.owner = owner
        base_va = owner.heap_va + offset
        self._line_pas = [owner.aspace.translate(base_va + i * LINE_BYTES)
                          for i in range(lines)]

    def flush(self) -> None:
        """clflush every probe line (the flush half of flush+reload)."""
        for pa in self._line_pas:
            self.kernel.hierarchy.flush_data(pa)

    def reload(self) -> ProbeResult:
        """Time a non-perturbing reload of every probe line."""
        return ProbeResult([self.kernel.hierarchy.probe_latency(pa)
                            for pa in self._line_pas])

    def observe(self, transmit: Callable[[], object]) -> frozenset[int]:
        """One flush+reload round: the lines ``transmit`` touched."""
        self.flush()
        transmit()
        return self.reload().hit_lines()

    def recover_differential(self, measure_hits: frozenset[int],
                             control_hits: frozenset[int]) -> int | None:
        """The byte touched in the measurement but not the control run."""
        unique = measure_hits - control_hits
        if len(unique) == 1:
            return next(iter(unique))
        return None

    def recover_against_controls(
            self, measured: frozenset[int],
            controls: Iterable[tuple[int, frozenset[int]]]) -> int | None:
        """The byte of ``measured`` against known-byte control rounds.

        ``controls`` yields ``(line, hits)`` -- the line a control byte
        transmits and its round's hit lines -- and is consumed in order,
        only until the byte is found.  The byte is the line unique to
        ``measured``; if the secret equals a control byte, the two sets
        coincide on that control's own line, which is then the answer.
        """
        for line, control in controls:
            byte = self.recover_differential(measured, control)
            if byte is not None:
                return byte
            if measured == control and line in measured:
                return line
        return None
