"""How fast the host runs Python right now, from a fixed loop.

Other virtual machines on a shared host slow whole stretches of a run,
by up to 1.8x, for seconds to minutes at a time.  A benchmark child runs
``calibrate`` just before and just after each timed rep, and ``run.py``
reads the rep's CPU seconds in *reference-host seconds*: scaled by
``REFERENCE_S`` over the calibration's CPU seconds around that rep.  A
rep that runs while the host is 30% slow takes 30% longer, and so does
its calibration.

The loop runs no ``repro`` code, so no change to the program moves it.
It has two parts, one for each way a neighbour slows the simulator:

* object churn: attribute reads and writes on small objects, method
  calls, tuple-keyed dict stores and list churn, what the simulator does
  most (sensitive to a busy sibling core and to clock changes);
* random reads over a ``BUFFER_BYTES`` buffer, larger than the share of
  the last-level cache a virtual machine keeps under load (sensitive to
  neighbours' cache and memory-bandwidth use, as the simulator's heap of
  about 90 MB is).

The buffer stays allocated for the life of the process, so that
``allocate`` can be called once, before anything else, and peak RSS less
``buffer_mb()`` is the program's own.
"""

from __future__ import annotations

from time import process_time

#: CPU seconds of one ``calibrate()`` on the reference host (a 2.1 GHz
#: Intel Xeon virtual machine with 2 vCPUs, in a quiet stretch).
REFERENCE_S = 0.06
OBJECT_STEPS = 30000
MEMORY_STEPS = 60000
BUFFER_BYTES = 32 << 20

_buffer = b""


class _Line:
    """One way of a set of the object part's toy cache."""

    __slots__ = ("tag", "value", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.value = 0
        self.hits = 0

    def touch(self, value: int) -> None:
        self.hits += 1
        self.value = value


def allocate() -> None:
    """Allocate (and touch every page of) the memory part's buffer."""
    global _buffer
    if not _buffer:
        _buffer = bytes(range(256)) * (BUFFER_BYTES // 256)


def buffer_mb() -> float:
    """MiB of resident memory the buffer holds (0 before ``allocate``)."""
    return len(_buffer) / float(1 << 20)


def calibrate() -> float:
    """CPU seconds the fixed loop takes now."""
    allocate()
    began = process_time()
    sets = [[_Line(way) for way in range(8)] for _ in range(64)]
    table: dict[tuple[int, int], int] = {}
    state = 1
    for step in range(OBJECT_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        ways = sets[state & 63]
        tag = (state >> 6) & 15
        for line in ways:
            if line.tag == tag:
                line.touch(step)
                break
        else:
            ways.pop()
            ways.insert(0, _Line(tag))
        table[state & 1023, tag] = step
    buffer, mask, total = _buffer, BUFFER_BYTES - 1, 0
    for _ in range(MEMORY_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        total += buffer[(state * 64) & mask]
    return process_time() - began
