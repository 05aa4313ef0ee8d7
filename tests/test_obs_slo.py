"""Property-based tests (hypothesis) of the serve-plane observability
contracts (see ``repro.obs.slo``, ``repro.obs.reqtrace`` and
``repro.core.audit``):

* ``SloWindow.combine`` / ``SloRollup.merge`` form a commutative monoid:
  any split of the recorded signals into per-cell rollups merges -- in
  any association order -- to the same bytes as recording serially;
* burn-rate alert evaluation is a pure function of recorded counts:
  permuting the recording order never changes the alert list (alerts
  fire at deterministic simulated-cycle stamps);
* every histogram-bucket exemplar resolves to a recorded trace, both on
  a single recorder and after merging per-cell recorders in declared
  order;
* ``AdaptiveIsvController`` escalates from SLO burn-rate alerts alone
  (``reason == "slo-alert"``), and its decisions are invariant under
  reordering of both evidence sources.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.audit import AdaptiveIsvController
from repro.obs.events import SecurityEvent
from repro.obs.reqtrace import TraceRecorder, trace_id
from repro.obs.slo import (
    LATENCY_BUCKETS, SloAlert, SloObjective, SloRollup)

WINDOW = 10_000.0

#: One recorded serve signal: ("req", cycle, latency) | ("shed", cycle)
#: | ("leak", cycle, context).
_cycles = st.integers(min_value=0, max_value=60_000).map(float)
_latency = st.sampled_from(
    [500.0, 1_500.0, 9_000.0, 25_000.0, 90_000.0, 2_000_000.0])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("req"), _cycles, _latency),
    st.tuples(st.just("shed"), _cycles),
    st.tuples(st.just("leak"), _cycles, st.integers(1, 3)),
), max_size=40)


def _record(rollup: SloRollup, ops) -> None:
    for op in ops:
        if op[0] == "req":
            rollup.record_request(op[1], op[2])
        elif op[0] == "shed":
            rollup.record_shed(op[1])
        else:
            rollup.record_blocked_leak(op[1], op[2])


def _rollup(ops) -> SloRollup:
    rollup = SloRollup(WINDOW)
    _record(rollup, ops)
    return rollup


class TestWindowMergeMonoid:
    @given(_OPS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_split_merges_to_the_serial_bytes(self, ops, data):
        """Splitting the signals across cells and merging -- under either
        association -- reproduces the serial rollup byte-for-byte."""
        serial = _rollup(ops)
        i = data.draw(st.integers(0, len(ops)), label="cut1")
        j = data.draw(st.integers(i, len(ops)), label="cut2")
        a, b, c = _rollup(ops[:i]), _rollup(ops[i:j]), _rollup(ops[j:])

        left = _rollup(())
        left.merge(a)
        left.merge(b)   # (a + b) ...
        left.merge(c)   # ... + c

        bc = _rollup(ops[i:j])
        bc.merge(c)     # (b + c)
        right = _rollup(ops[:i])
        right.merge(bc)  # a + (b + c)

        assert left.to_json() == serial.to_json()
        assert right.to_json() == serial.to_json()

    @given(_OPS)
    @settings(max_examples=40, deadline=None)
    def test_halves_combine_to_double_width_window(self, ops):
        """Combining the two halves of a double-width window equals the
        double-width window computed directly."""
        narrow = _rollup(ops)
        wide = SloRollup(2 * WINDOW)
        _record(wide, ops)
        for index, win in wide.windows.items():
            lo = narrow.windows.get(2 * index)
            hi = narrow.windows.get(2 * index + 1)
            both = [w for w in (lo, hi) if w is not None]
            assert both, "a populated wide window needs a populated half"
            combined = both[0] if len(both) == 1 \
                else both[0].combine(both[1])
            assert combined.as_dict() == win.as_dict()


class TestAlertDeterminism:
    OBJECTIVES = (
        SloObjective("p99-latency", "latency", budget=0.01,
                     target=10_000.0),
        SloObjective("shed-rate", "shed", budget=0.05),
        SloObjective("blocked-leak-rate", "blocked-leak", budget=0.001),
    )

    @given(_OPS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_alerts_invariant_under_recording_reorder(self, ops, data):
        """evaluate() is a pure function of the recorded *counts*:
        permuting the recording order changes nothing."""
        shuffled = data.draw(st.permutations(ops), label="order")
        base = _rollup(ops).evaluate(self.OBJECTIVES)
        redo = _rollup(shuffled).evaluate(self.OBJECTIVES)
        assert base == redo

    @given(_OPS)
    @settings(max_examples=60, deadline=None)
    def test_alert_stamps_are_window_ends(self, ops):
        alerts = _rollup(ops).evaluate(self.OBJECTIVES)
        for alert in alerts:
            assert alert.cycle == (alert.window_index + 1) * WINDOW
        assert alerts == sorted(
            alerts, key=lambda a: (a.cycle, a.objective, a.context))


class TestExemplarResolution:
    @given(st.lists(st.tuples(st.integers(0, 3), _latency),
                    min_size=1, max_size=30),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_exemplar_resolves_after_any_cell_split(self, reqs,
                                                          data):
        """Exemplar IDs always name recorded traces -- on one recorder
        and after merging per-cell recorders in declared order -- and
        the merged bytes equal the serial recorder's."""
        serial = TraceRecorder()
        cut = data.draw(st.integers(0, len(reqs)), label="cut")
        cells = [TraceRecorder(), TraceRecorder()]
        for seq, (tenant, latency) in enumerate(reqs):
            for rec, cell in ((serial, "cell"),
                              (cells[seq >= cut], "cell")):
                trace = rec.admit(0, cell, tenant, seq,
                                  arrival_cycle=float(seq))
                rec.close(trace, "completed", latency_cycles=latency)
                rec.exemplar("serve.latency_cycles", latency,
                             LATENCY_BUCKETS, trace.trace_id)
        merged = TraceRecorder()
        merged.merge(cells[0])
        merged.merge(cells[1])
        assert merged.to_json() == serial.to_json()
        for rec in (serial, merged):
            for buckets in rec.exemplars.values():
                for ids in buckets.values():
                    assert 0 < len(ids) <= rec.max_exemplars
                    for tid in ids:
                        assert rec.resolve(tid) is not None

    def test_trace_ids_are_pure_and_distinct(self):
        assert trace_id(0, "s0.t2", 1, 3) == trace_id(0, "s0.t2", 1, 3)
        ids = {trace_id(seed, cell, tenant, seq)
               for seed in (0, 1) for cell in ("s0.t2", "s0.t3")
               for tenant in (0, 1) for seq in (0, 1)}
        assert len(ids) == 16


class TestServeCellConservation:
    """One real serve cell under trace + SLO + block JIT: the exported
    attribution and exemplars obey the conservation contracts the
    dashboard assumes."""

    PARAMS = {"seed": 0, "tenants": 2, "scheme": "perspective",
              "requests_per_tenant": 4, "mean_interarrival": 8_000.0,
              "queue_bound": 0, "block_cache": True, "trace": True,
              "slo_window": WINDOW}

    def test_miss_reasons_and_exemplars_conserve(self):
        from repro.cpu.blockcache import MISS_REASONS
        from repro.obs.dashboard import parse_attribution
        from repro.exec.grids import run_cell

        cell = run_cell("serve", {**self.PARAMS, "observe": True})
        counters = cell["metrics"]["counters"]
        misses = counters["pipeline.blockcache.misses"]
        by_reason = {r: counters.get(f"pipeline.blockcache.miss.{r}", 0)
                     for r in MISS_REASONS}
        assert sum(by_reason.values()) == misses > 0
        attributed: dict[str, int] = {}
        for scheme_attr in parse_attribution(counters).values():
            for fns in scheme_attr.values():
                for reason, count in fns.items():
                    attributed[reason] = attributed.get(reason, 0) + count
        assert attributed == {r: n for r, n in by_reason.items() if n}

        recorder = TraceRecorder.from_snapshot(cell["traces"])
        assert recorder.exemplars, "completed requests must leave exemplars"
        for buckets in recorder.exemplars.values():
            for ids in buckets.values():
                for tid in ids:
                    assert recorder.resolve(tid) is not None

        rollup = SloRollup.from_snapshot(cell["slo"])
        completed = sum(w.requests for w in rollup.windows.values())
        shed = sum(w.shed for w in rollup.windows.values())
        assert completed == cell["completed"]
        assert shed == cell["shed"]


def _alert(context: int, index: int = 0) -> SloAlert:
    return SloAlert(objective="blocked-leak-rate", kind="blocked-leak",
                    context=context, window_index=index,
                    cycle=(index + 1) * WINDOW,
                    burn_short=2.0, burn_long=1.5)


def _event(seq: int, context: int, fn: str = "sys_read") -> SecurityEvent:
    return SecurityEvent(seq=seq, cycle=float(seq), context=context,
                         pc=0x40000 + seq, kernel_fn=fn,
                         kind="blocked-leak", reason="isv-miss",
                         scheme="perspective")


class TestControllerSloEvidence:
    def test_alerts_alone_escalate_with_slo_reason(self):
        """The alert-only path: no journal events at all, but enough
        matching alerts, still climbs the ladder."""
        ctrl = AdaptiveIsvController(context=2, min_events=1)
        decision = ctrl.observe([], alerts=(_alert(2),))
        assert decision.action == "escalate"
        assert decision.reason == "slo-alert"
        assert decision.evidence == 1
        # Alerts for other contexts are not this controller's evidence.
        ctrl2 = AdaptiveIsvController(context=2, min_events=1)
        decision2 = ctrl2.observe([], alerts=(_alert(1),))
        assert decision2.action != "escalate"

    def test_events_take_reason_precedence(self):
        ctrl = AdaptiveIsvController(context=2, min_events=2)
        decision = ctrl.observe([_event(0, 2)], alerts=(_alert(2),))
        assert decision.action == "escalate"
        assert decision.reason == "leak-evidence"
        assert decision.evidence == 2

    @given(st.lists(st.tuples(
        st.lists(st.integers(1, 3), max_size=5),   # event contexts
        st.lists(st.integers(1, 3), max_size=3),   # alert contexts
    ), min_size=1, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_decisions_invariant_under_evidence_reorder(self, epochs,
                                                        data):
        """Reordering either evidence source within an epoch never
        changes any decision or the final exclusion set."""
        base = AdaptiveIsvController(context=2, min_events=2)
        redo = AdaptiveIsvController(context=2, min_events=2)
        seq = 0
        for e, (event_ctxs, alert_ctxs) in enumerate(epochs):
            events = [_event(seq + i, ctx, fn=f"sys_{ctx}")
                      for i, ctx in enumerate(event_ctxs)]
            seq += len(events)
            alerts = tuple(_alert(ctx, index=e) for ctx in alert_ctxs)
            shuffled_events = data.draw(st.permutations(events),
                                        label=f"events{e}")
            shuffled_alerts = tuple(data.draw(st.permutations(alerts),
                                              label=f"alerts{e}"))
            d1 = base.observe(events, alerts=alerts)
            d2 = redo.observe(shuffled_events, alerts=shuffled_alerts)
            assert d1 == d2
        assert base.exclusions == redo.exclusions
        assert base.flavor == redo.flavor
