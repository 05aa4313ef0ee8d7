"""Property-based pins (hypothesis) of the block JIT while the
speculation environment changes under it, and of the committed-op
backstop with the JIT on (see ``repro.cpu.blockcache``).

* **Interleavings.**  A generated program (the corpus of
  ``tests/test_blockjit_generated.py``) runs on a kernel between the
  changes an OS makes while it runs: a policy swap to any registered
  scheme (armed with :func:`repro.defenses.registry.arm`), entering and
  leaving a fault-plane scope, a run under an event journal, and an ISV
  install or shrink.  A JIT-on kernel and its JIT-off twin see the same
  interleaving, and after every run they agree on registers, cycles,
  fence counts and stall cycles (the whole ``ExecResult``), the memory
  digest, TLB/L1I/L1D/L2 statistics, the fault plane's draws and the
  journal's JSONL.  The JIT-on twin's ``hits + misses`` also moves by
  exactly the arrivals the interpreter makes at compiled leaders, plus
  its entries into functions with no compiled block, so replay straight
  after a change neither loses nor double-counts an arrival.
* **Backstop.**  For every ``max_committed_ops`` budget across a
  program's run, JIT on and JIT off either both raise the same "program
  exceeded" error and leave equal memory and cache/TLB state, or both
  return equal results.

Tier-1 runs a bounded, derandomized example budget plus the explicit
examples; ``pytest -m slow`` runs a larger random one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cpu.blockcache import block_spans
from repro.cpu.isa import AluOp, BodyList
from repro.cpu.pipeline import Pipeline
from repro.defenses.registry import arm
from repro.obs import instrumented
from repro.obs.events import EventJournal
from repro.reliability.faultplane import FaultPlane, FaultSpec

from test_blockjit_generated import (
    PINNED, SCHEMES, Program, _FLIP, _TRAIN, _name, _on_kernel, boot,
    deploy, isv_of, programs,
)

_RUN = Pipeline.run.__code__


class _Fetches(BodyList):
    """A body that counts the interpreter's committed-path fetches per
    index: ``Pipeline.run``'s reads, not the wrong-path executor's."""

    __slots__ = ("counts",)

    def __init__(self, ops) -> None:
        super().__init__(ops)
        self.counts: Counter[int] = Counter()

    def __getitem__(self, index):
        if sys._getframe(1).f_code is _RUN:
            self.counts[index] += 1
        return super().__getitem__(index)


def _arrivals(funcs) -> int:
    """Arrivals at compiled leaders since the last call, plus entries
    into functions with no compiled block (only the entry reaches index
    0 of a generated function)."""
    total = 0
    for func in funcs:
        counts = func.body.counts
        starts = [start for start, _end, _term in block_spans(func.body)]
        total += sum(counts[s] for s in starts) if starts else counts[0]
        counts.clear()
    return total


def _state(pipeline) -> dict:
    h = pipeline.hierarchy
    return {"memory": pipeline.memory.digest(),
            **{name: vars(stats) for name, stats in (
                ("tlb", pipeline.tlb.stats), ("l1i", h.l1i.stats),
                ("l1d", h.l1d.stats), ("l2", h.l2.stats))}}


# ----------------------------------------------------------------------
# Interleavings
# ----------------------------------------------------------------------

#: Armed while a ``faults`` scope is open: every point the
#: speculative-load check can reach, firing on about half its draws.
_SPECS = (FaultSpec("isv-cache-forced-miss", 0.5),
          FaultSpec("isv-cache-stale", 0.5),
          FaultSpec("dsv-cache-forced-miss", 0.5),
          FaultSpec("dsv-cache-stale", 0.5),
          FaultSpec("dsvmt-walk-fail", 0.5),
          FaultSpec("view-refill-fault", 0.5))

_input = st.sampled_from((_TRAIN, _FLIP))
_funcs = st.frozensets(st.integers(0, 2))

#: ``run``/``journal``: run the program on an input, the second under a
#: fresh event journal; ``policy``: arm a scheme; ``faults``: enter a
#: fault-plane scope with this seed, or leave the open one; ``install``:
#: install an ISV trusting these functions; ``shrink``: drop these
#: functions from the current ISV.
_event = st.one_of(
    st.tuples(st.just("run"), _input),
    st.tuples(st.just("journal"), _input),
    st.tuples(st.just("policy"), st.sampled_from(SCHEMES)),
    st.tuples(st.just("faults"), st.integers(0, 3)),
    st.tuples(st.just("install"), _funcs),
    st.tuples(st.just("shrink"), _funcs),
)

#: A loop whose head loads under the back-edge prediction, run under
#: ``unsafe`` and then, replayed straight after the swap, under
#: ``fence``: a region that kept the passive fast path of the run that
#: compiled it stops fencing.
_SWAP = (("run", _TRAIN), ("policy", "fence"), ("run", _TRAIN),
         ("policy", "unsafe"), ("run", _TRAIN))

#: An ISV shrink and install around journaled runs under Perspective,
#: with a fault scope open across both.
_VIEWS = (("policy", "perspective"), ("faults", 1), ("journal", _TRAIN),
          ("shrink", frozenset({0})), ("journal", _FLIP),
          ("install", frozenset({0})), ("run", _TRAIN), ("faults", 0),
          ("run", _TRAIN))


def _interleave(program: Program, events, jit: bool) -> list[dict]:
    """Drive ``events`` on a fresh kernel; one record per run."""
    k, entry, ctx_id, context = boot(program)
    pipeline = k.pipeline
    pipeline.config.enable_block_cache = jit
    funcs = [k.layout[_name(i)] for i in range(len(program.funcs))]
    if not jit:
        for func in funcs:
            func.body = _Fetches(func.body)
    isv = isv_of(k, ctx_id, program.trusted)
    plane = None
    records = []
    with contextlib.ExitStack() as scope:
        for kind, arg in events:
            framework = getattr(pipeline.policy, "framework", None)
            if kind == "policy":
                arm(k, arg, views=(isv,))
            elif kind == "faults":
                if plane is None:
                    plane = FaultPlane(seed=arg, specs=_SPECS)
                    scope.enter_context(instrumented(faults=plane))
                else:
                    scope.close()
                    plane = None
            elif kind in ("install", "shrink"):
                chosen = {i for i in arg if i < len(funcs)}
                if kind == "install":
                    isv = isv_of(k, ctx_id, chosen)
                else:
                    isv = isv.shrink({_name(i) for i in chosen})
                if framework is not None:
                    framework.install_isv(isv)
            else:
                journal = EventJournal() if kind == "journal" else None
                cache = pipeline._blockcache
                before = cache.hits + cache.misses if cache else 0
                with instrumented(journal=journal) if journal \
                        else contextlib.nullcontext():
                    result = pipeline.run(entry, context(arg))
                cache = pipeline._blockcache
                records.append({
                    "result": dataclasses.asdict(result),
                    **_state(pipeline),
                    "draws": dict(plane.draws) if plane else None,
                    "journal": journal.to_jsonl() if journal else None,
                    "arrivals": cache.hits + cache.misses - before if jit
                    else _arrivals(funcs),
                })
    return records


def check_interleaving(program: Program, events) -> None:
    off = _interleave(program, events, jit=False)
    on = _interleave(program, events, jit=True)
    for i, (a, b) in enumerate(zip(off, on)):
        diverged = sorted(key for key in a if a[key] != b[key])
        assert not diverged, (i, diverged, program, events)
    assert len(off) == len(on)


_BOUNDED = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
_LARGE = settings(max_examples=600, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

_interleavings = given(program=programs(),
                       events=st.lists(_event, min_size=1, max_size=12))


class TestInterleavings:
    @example(program=PINNED["loop-head-load"], events=_SWAP)
    @example(program=PINNED["loop-head-load"]._replace(
        trusted=frozenset({0})), events=_VIEWS)
    @_BOUNDED
    @_interleavings
    def test_jit_on_equals_off_after_every_run(self, program, events):
        check_interleaving(program, events)


@pytest.mark.slow
class TestInterleavingsLarge:
    @_LARGE
    @_interleavings
    def test_jit_on_equals_off_after_every_run(self, program, events):
        check_interleaving(program, events)


# ----------------------------------------------------------------------
# Backstop
# ----------------------------------------------------------------------

#: 50 trips of a load, a store and a dependent add: 252 committed ops.
_LOOP = Program(((("loop", 50, (("load", "r2", "in", 0),
                                ("store", "out", "r2", 8),
                                ("alu", "r3", AluOp.ADD, "r3", "r2", 0))),),))

#: Schemes the private (kernel-free) substrate arms.
_PRIVATE = tuple(scheme for scheme in SCHEMES if not _on_kernel(scheme))


def _bounded(pipeline, entry, context) -> tuple:
    try:
        outcome = ("returned", dataclasses.asdict(pipeline.run(
            entry, context(_TRAIN))))
    except RuntimeError as error:
        outcome = ("raised", str(error))
    return outcome + (_state(pipeline),)


def check_backstop(program: Program, scheme: str) -> None:
    """Every budget from one op to one past the first run, on one pair
    of twins (so later budgets also meet warm caches, predictors and the
    memory earlier runs wrote)."""
    twins = [deploy(program, scheme, jit, kernel=False)
             for jit in (False, True)]
    first = [pipeline.run(entry, context(_TRAIN))
             for pipeline, entry, context in twins]
    assert first[0] == first[1], (scheme, program)
    total = first[0].committed_ops
    for budget in range(1, total + 2):
        outcomes = []
        for pipeline, entry, context in twins:
            pipeline.config.max_committed_ops = budget
            outcomes.append(_bounded(pipeline, entry, context))
        assert outcomes[0] == outcomes[1], (budget, scheme, program)


class TestBackstop:
    @example(program=_LOOP, scheme="unsafe")
    @example(program=_LOOP, scheme="fence")
    @settings(max_examples=10, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=programs(), scheme=st.sampled_from(_PRIVATE))
    def test_jit_on_equals_off_at_every_budget(self, program, scheme):
        check_backstop(program, scheme)


@pytest.mark.slow
class TestBackstopLarge:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=programs(), scheme=st.sampled_from(_PRIVATE))
    def test_jit_on_equals_off_at_every_budget(self, program, scheme):
        check_backstop(program, scheme)
