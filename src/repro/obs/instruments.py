"""The one instrumentation record and the scope that installs it.

What is observed or injected right now -- the metrics registry, the
security-event journal, the fault plane, the request-trace recorder and
the SLO rollup -- is one record, :data:`INSTRUMENTS`, and
:func:`instrumented` is the one way to change it::

    with instrumented(registry=reg, faults=plane):
        ...

A plane passed as ``None`` is deactivated inside the block, a plane not
passed is inherited from the enclosing scope, and every plane the scope
set is restored on exit, exception or not.  The hooks stay in their
modules and read the record: inactive, a hook costs one global read, one
attribute read and an ``is None`` test.

This module is a leaf: it imports nothing from ``repro`` at run time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.obs.events import EventJournal
    from repro.obs.registry import MetricsRegistry
    from repro.obs.reqtrace import TraceRecorder
    from repro.obs.slo import SloRollup
    from repro.reliability.faultplane import FaultPlane


@dataclass(slots=True)
class Instruments:
    """The active planes (``None`` = inactive) and one value no scope
    sets."""

    registry: MetricsRegistry | None = None
    journal: EventJournal | None = None
    faults: FaultPlane | None = None
    recorder: TraceRecorder | None = None
    rollup: SloRollup | None = None
    #: The journal's emission site, (cycle, context, pc, kernel_fn,
    #: scheme): set by the pipeline before each policy check while a
    #: journal is active, so modules deeper in the check can stamp events.
    site: tuple[float, int, int, str, str] = (0.0, -1, 0, "", "")


#: The record every hook reads.
INSTRUMENTS = Instruments()

#: Default of every :func:`instrumented` parameter: inherit the plane.
_INHERIT = object()


@contextmanager
def instrumented(*, registry=_INHERIT, journal=_INHERIT, faults=_INHERIT,
                 recorder=_INHERIT, rollup=_INHERIT,
                 ) -> Iterator[Instruments]:
    """Install the given planes on :data:`INSTRUMENTS` for the block."""
    ins = INSTRUMENTS
    given = {name: plane for name, plane in (
        ("registry", registry), ("journal", journal), ("faults", faults),
        ("recorder", recorder), ("rollup", rollup)) if plane is not _INHERIT}
    saved = [(name, getattr(ins, name)) for name in given]
    for name, plane in given.items():
        setattr(ins, name, plane)
    try:
        yield ins
    finally:
        for name, plane in saved:
            setattr(ins, name, plane)
