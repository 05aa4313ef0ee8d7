"""The one instrumentation scope (``repro.obs.instruments``).

Every plane -- registry, journal, fault plane, trace recorder, SLO
rollup -- is installed by ``instrumented(...)`` on one record.  These
tests pin the scope rules for all five at once: a plane not passed is
inherited, a plane passed as ``None`` is deactivated, everything the
scope set is restored on exit (exception included), and the fault
generation only increases and moves only around scopes that set
``faults``.
"""

from __future__ import annotations

import pytest

from repro.obs import INSTRUMENTS, instrumented
from repro.obs import events as ev
from repro.obs import registry as obs_hooks
from repro.obs import reqtrace as rt
from repro.obs import slo
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry
from repro.obs.reqtrace import RequestTrace, TraceRecorder
from repro.obs.slo import SloRollup
from repro.reliability.faultplane import FaultPlane, FaultSpec, fire

PLANES = ("registry", "journal", "faults", "recorder", "rollup")


def _recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    recorder.open(RequestTrace("t0", tenant=0, seq=0, cell="c",
                               arrival_cycle=0.0))
    return recorder


#: plane name -> (factory, drive the plane's hook once, recorded count).
HOOKS = {
    "registry": (MetricsRegistry,
                 lambda: obs_hooks.add("x"),
                 lambda reg: reg.counter("x")),
    "journal": (EventJournal,
                lambda: ev.emit("fence"),
                len),
    "faults": (lambda: FaultPlane(specs=(FaultSpec("trace-drop"),)),
               lambda: fire("trace-drop"),
               lambda plane: plane.fires.get("trace-drop", 0)),
    "recorder": (_recorder,
                 lambda: rt.step("syscall", "read", 1.0),
                 lambda rec: len(rec._open.steps)),
    "rollup": (lambda: SloRollup(1000.0),
               lambda: slo.record_request(10.0, 5.0),
               lambda rollup: sum(w.requests
                                  for w in rollup.windows.values())),
}


def _active() -> dict[str, object]:
    return {name: getattr(INSTRUMENTS, name) for name in PLANES}


def test_inactive_outside_any_scope():
    assert _active() == dict.fromkeys(PLANES)
    for _, drive, _ in HOOKS.values():
        drive()  # every hook is a no-op, nothing raised


def test_nested_scopes_inherit_and_restore():
    reg_outer, reg_inner = MetricsRegistry(), MetricsRegistry()
    journal = EventJournal()
    plane = FaultPlane(specs=(FaultSpec("trace-drop"),))
    with instrumented(registry=reg_outer, journal=journal):
        with instrumented(registry=reg_inner, faults=plane) as ins:
            assert ins is INSTRUMENTS
            # Passed planes replace, planes not passed are inherited.
            assert _active() == {"registry": reg_inner, "journal": journal,
                                 "faults": plane, "recorder": None,
                                 "rollup": None}
            obs_hooks.add("x")
            ev.emit("fence")
            assert fire("trace-drop")
        assert _active() == {"registry": reg_outer, "journal": journal,
                             "faults": None, "recorder": None,
                             "rollup": None}
        obs_hooks.add("x")
    assert _active() == dict.fromkeys(PLANES)
    assert reg_inner.counter("x") == 1
    assert reg_outer.counter("x") == 1
    assert len(journal) == 1


@pytest.mark.parametrize("name", PLANES)
def test_none_deactivates_plane(name):
    make, drive, count = HOOKS[name]
    plane = make()
    with instrumented(**{name: plane}):
        drive()
        with instrumented(**{name: None}):
            assert getattr(INSTRUMENTS, name) is None
            drive()
        assert getattr(INSTRUMENTS, name) is plane
    assert getattr(INSTRUMENTS, name) is None
    assert count(plane) == 1


def test_every_plane_restored_on_exception():
    planes = {name: make() for name, (make, _, _) in HOOKS.items()}
    outer = MetricsRegistry()
    with instrumented(registry=outer):
        with pytest.raises(RuntimeError, match="boom"):
            with instrumented(**planes):
                assert _active() == planes
                raise RuntimeError("boom")
        assert _active() == dict(dict.fromkeys(PLANES), registry=outer)
    assert _active() == dict.fromkeys(PLANES)


def test_generation_only_increases_and_moves_only_around_faults():
    plane = FaultPlane(specs=(FaultSpec("trace-drop"),))
    start = INSTRUMENTS.generation
    with instrumented(registry=MetricsRegistry(), journal=EventJournal(),
                      recorder=TraceRecorder(), rollup=SloRollup(1000.0)):
        assert INSTRUMENTS.generation == start
    assert INSTRUMENTS.generation == start
    with instrumented(faults=plane):
        armed = INSTRUMENTS.generation
        assert armed == start + 1
        with instrumented(registry=MetricsRegistry()):
            assert INSTRUMENTS.generation == armed
        assert INSTRUMENTS.generation == armed
        with instrumented(faults=None):
            assert INSTRUMENTS.generation == armed + 1
        # Leaving a scope never restores an older generation.
        assert INSTRUMENTS.generation == armed + 2
    assert INSTRUMENTS.generation == start + 4
    with pytest.raises(RuntimeError):
        with instrumented(faults=plane):
            raise RuntimeError("boom")
    assert INSTRUMENTS.generation == start + 6
