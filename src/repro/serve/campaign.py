"""Adversarial serving campaigns: attacker tenants, fault storms, and
adaptive Perspective hardening under live traffic.

A **campaign** runs the multi-tenant serving engine for several epochs
on one long-lived kernel while three adversarial pressures are applied
at once:

* **attacker tenants** -- cgroup-backed processes co-located with the
  victims that run real PoCs from :mod:`repro.attacks.harness` through
  the *shared, armed* kernel (:func:`repro.attacks.harness.attack_on`).
  Their probe time is charged to the shared core, so victim tail
  latency feels the attack even when every leak is blocked;
* **fault storms** -- a seeded :class:`~repro.reliability.faultplane.
  FaultPlane` is injected for a window of epochs, firing the
  serve-plane fault points (``serve-ibpb-drop``, ``view-refill-fault``,
  ``admission-queue-corrupt``) plus whatever else the scenario arms.
  Every degraded path fails closed and journals a ``fault-fallback``
  event;
* **adaptive hardening** -- one :class:`~repro.core.audit.
  AdaptiveIsvController` per context digests each epoch's journal slice
  and climbs (or probes back down) the Perspective flavor ladder,
  re-installing the context's ISV live (the paper's Section 5.4
  incident-response flow, closed-loop).

Everything is a pure function of the :class:`CampaignSpec`: arrivals
are string-seeded per epoch (``campaign:epoch:N`` streams), fault
draws are per-point string-seeded, controller backoff jitter is
string-seeded, and the report dict is built in a fixed key order -- so
the same spec yields byte-identical JSON across processes, worker
counts, and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Any

from repro.analysis.binary import APPLICATIONS
from repro.analysis.flavors import (
    SCHEME_OF_FLAVOR,
    flavor_isv,
    non_driver_isv_functions,
)
from repro.attacks.harness import attack_on
from repro.core.audit import ESCALATION_LADDER, AdaptiveIsvController
from repro.core.views import InstructionSpeculationView
from repro.kernel.image import SECRET_OFF, shared_image
from repro.kernel.process import Process
from repro.obs import events as ev
from repro.obs import registry as obs
from repro.obs import slo
from repro.obs.events import EventJournal, SecurityEvent
from repro.obs.instruments import instrumented
from repro.reliability.faultplane import FaultPlane, FaultSpec
from repro.serve.arrival import Arrival, arrival_stream, percentile
from repro.serve.engine import ServeConfig, ShardScheduler, boot_tenants
from repro.workloads.apps import AppState
from repro.workloads.driver import Driver

#: Named fault-storm scenarios.  ``specs`` arm the plane (see
#: :data:`repro.reliability.faultplane.FAULT_POINTS`); ``epochs`` is the
#: storm window -- the plane is active only inside those epochs, and the
#: same plane object persists across them, so draws accumulate.
CAMPAIGN_SCENARIOS: dict[str, dict[str, Any]] = {
    "none": {"specs": [], "epochs": []},
    "ibpb-storm": {
        "specs": [{"point": "serve-ibpb-drop", "probability": 0.5}],
        "epochs": [2, 3],
    },
    "refill-storm": {
        "specs": [{"point": "view-refill-fault", "probability": 0.25}],
        "epochs": [2, 3],
    },
    "admission-storm": {
        "specs": [{"point": "admission-queue-corrupt",
                   "probability": 0.35}],
        "epochs": [2, 3],
    },
    "combined-storm": {
        "specs": [
            {"point": "serve-ibpb-drop", "probability": 0.5},
            {"point": "view-refill-fault", "probability": 0.2},
            {"point": "admission-queue-corrupt", "probability": 0.25},
        ],
        "epochs": [2, 3],
    },
}


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a campaign's outcome depends on (JSON-able)."""

    seed: int = 0
    scenario: str = "none"
    #: Starting Perspective flavor for every context.
    start_flavor: str = "static"
    victims: int = 2
    #: PoC names (:data:`repro.attacks.harness.ATTACKS`), one attacker
    #: tenant each.
    attackers: tuple[str, ...] = ("spectre-v1-active",
                                  "spectre-v2-passive")
    epochs: int = 5
    requests_per_epoch: int = 3
    mean_interarrival: float = 12_000.0
    queue_bound: int = 0
    profiles: tuple[str, ...] = ("httpd", "redis", "memcached")
    #: Rare-path injection period for victim drivers; 0 keeps benign
    #: traffic free of self-inflicted leak evidence, so escalation is
    #: driven by the attackers.
    rare_every: int = 0
    profile_requests: int = 3
    #: Secret planted in the targeted victim's kernel heap, hex-encoded.
    secret_hex: str = "4b21"
    #: Evidence events per epoch that trigger an escalation.
    min_events: int = 1
    #: Clean epochs before the first de-escalation probe.
    probe_after_clean: int = 2
    #: SLO: the campaign has *recovered* from a storm once an epoch's
    #: aggregate p99 is back within ``slo_factor`` of the pre-storm
    #: baseline.
    slo_factor: float = 1.25
    #: Window width (simulated cycles) of the :class:`repro.obs.slo.
    #: SloRollup` the campaign maintains across epochs.
    slo_window_cycles: float = 50_000.0
    #: When true, per-context SLO burn-rate alerts feed the adaptive
    #: controllers as evidence alongside journal events (``observe(...,
    #: alerts=...)``).  Off by default: the committed campaign smoke
    #: snapshot predates this evidence source.
    slo_alert_evidence: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in CAMPAIGN_SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; known: "
                f"{sorted(CAMPAIGN_SCENARIOS)}")
        if self.start_flavor not in ESCALATION_LADDER:
            raise ValueError(
                f"unknown flavor {self.start_flavor!r}; ladder: "
                f"{ESCALATION_LADDER}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.slo_window_cycles > 0.0:
            raise ValueError("slo_window_cycles must be positive")
        bytes.fromhex(self.secret_hex)  # validate early

    def as_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["attackers"] = list(self.attackers)
        out["profiles"] = list(self.profiles)
        return out


def spec_from_params(params: dict[str, Any]) -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a plain JSON-able param dict;
    keys that are not spec fields are ignored."""
    names = {f.name for f in fields(CampaignSpec)}
    kwargs = {k: v for k, v in params.items() if k in names}
    for key in ("attackers", "profiles"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return CampaignSpec(**kwargs)


@dataclass
class AttackerTenant:
    """One co-located attacker: its process and the PoC it runs."""

    index: int
    attack: str
    proc: Process


def _kind_counts(events: list[SecurityEvent]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return {kind: counts[kind] for kind in sorted(counts)}


def _attacker_warmup(driver: Driver, requests: int) -> None:
    """A benign-looking request mix: the attacker masquerades as a
    normal tenant during profiling, so its *dynamic* base view is a
    plausible traced surface rather than obviously hostile."""
    state = AppState()
    state.log_fd = driver.call("open", args=(0,)).retval
    for _ in range(requests):
        driver.call("getpid")
        driver.call("read", args=(state.log_fd, 4096), spin=8)
        driver.call("write", args=(state.log_fd, 4096), spin=8)


def run_campaign(spec: CampaignSpec, image=None) -> dict[str, Any]:
    """Run one adversarial campaign; returns the JSON-able report."""
    image = shared_image() if image is None else image
    scenario = CAMPAIGN_SCENARIOS[spec.scenario]
    secret = bytes.fromhex(spec.secret_hex)

    # -- boot: victims first (engine flow), then attacker tenants ------
    serve_config = ServeConfig(
        scheme=SCHEME_OF_FLAVOR[spec.start_flavor], tenants=spec.victims,
        seed=spec.seed, requests_per_tenant=spec.requests_per_epoch,
        mean_interarrival=spec.mean_interarrival,
        queue_bound=spec.queue_bound, profiles=spec.profiles,
        rare_every=spec.rare_every,
        profile_requests=spec.profile_requests)
    kernel, victims = boot_tenants(serve_config, image=image)
    framework = kernel.pipeline.policy.framework

    attackers: list[AttackerTenant] = []
    kernel.tracer.start()
    for index, attack_name in enumerate(spec.attackers):
        proc = kernel.create_process(f"attacker{index}.{attack_name}")
        _attacker_warmup(Driver(kernel, proc, rare_every=0),
                         spec.profile_requests)
        attackers.append(AttackerTenant(index, attack_name, proc))
    kernel.tracer.stop()

    # -- base view per (context, flavor): what each ladder rung installs
    binaries = {t.proc.cgroup.cg_id: APPLICATIONS[t.profile.name]
                for t in victims}
    # No application binary to analyse for a tenant that lied about its
    # workload: an attacker's static rung is the permissive
    # syscall-surface view.
    binaries.update({a.proc.cgroup.cg_id: None for a in attackers})
    base_views: dict[int, dict[str, frozenset]] = {}
    for ctx, binary in binaries.items():
        traced = kernel.tracer.traced_functions(ctx)
        base_views[ctx] = {
            "static": (non_driver_isv_functions(image) if binary is None
                       else flavor_isv(image, ctx, "static",
                                       binary=binary).functions),
            "dynamic": traced,
            "++": flavor_isv(image, ctx, "++", traced=traced).functions}

    controllers = {
        ctx: AdaptiveIsvController(
            ctx, start_flavor=spec.start_flavor,
            min_events=spec.min_events,
            probe_after_clean=spec.probe_after_clean, seed=spec.seed)
        for ctx in sorted(base_views)}

    def install(ctx: int) -> None:
        controller = controllers[ctx]
        framework.install_isv(InstructionSpeculationView(
            ctx,
            controller.view_functions(base_views[ctx][controller.flavor]),
            image.layout, source=f"adaptive-{controller.flavor}"))

    for ctx in sorted(controllers):
        install(ctx)

    # -- campaign state ------------------------------------------------
    plane = FaultPlane(seed=spec.seed,
                       specs=tuple(FaultSpec.from_dict(s)
                                   for s in scenario["specs"]))
    storm_epochs = set(scenario["epochs"]) if scenario["specs"] else set()
    journal = EventJournal(meta={"plane": "serve-campaign",
                                 "seed": spec.seed,
                                 "scenario": spec.scenario})
    sched = ShardScheduler(serve_config, victims)
    reports = sched.reports
    rollup = slo.SloRollup(spec.slo_window_cycles)
    alert_keys: set[tuple[str, int, int]] = set()
    alerts_fired: list[slo.SloAlert] = []
    ctx_of_victim = {t.index: t.proc.cgroup.cg_id for t in victims}
    victim_of_ctx = {ctx: idx for idx, ctx in ctx_of_victim.items()}
    attacker_rows = {
        a.index: {"attacker": a.index, "attack": a.attack,
                  "context": a.proc.cgroup.cg_id, "rounds": 0,
                  "attempted_bytes": 0, "leaked_bytes": 0,
                  "blocked_bytes": 0, "successes": 0,
                  "attack_cycles": 0.0}
        for a in attackers}
    targeted: set[int] = set()

    epoch_rows: list[dict[str, Any]] = []
    steps: list[dict[str, Any]] = []
    seq_mark = 0
    storm_onset: float | None = None

    with instrumented(journal=journal, rollup=rollup):
        for epoch in range(spec.epochs):
            # Request traces (when a recorder is ambient) are labeled per
            # epoch, so (tenant, seq) reuse across epochs stays unique.
            sched.trace_cell = f"s{spec.seed}.{spec.scenario}.e{epoch}"
            storm = epoch in storm_epochs
            if storm and storm_onset is None:
                storm_onset = sched.free_at
            latency_marks = [len(r.latencies) for r in reports]
            offset = sched.free_at
            guard = instrumented(faults=plane) if storm else nullcontext()
            attacks_row: list[dict[str, Any]] = []
            with guard:
                schedule = [
                    Arrival(cycle=a.cycle + offset, tenant=a.tenant,
                            seq=a.seq)
                    for a in arrival_stream(
                        spec.seed, spec.victims, spec.requests_per_epoch,
                        spec.mean_interarrival,
                        stream=f"campaign:epoch:{epoch}")]
                for arr in schedule:
                    sched.offer(arr)
                sched.drain()
                for attacker in attackers:
                    target = victims[(epoch + attacker.index)
                                     % len(victims)]
                    targeted.add(target.index)
                    label = SCHEME_OF_FLAVOR[
                        controllers[attacker.proc.cgroup.cg_id].flavor]
                    before = kernel.kernel_cycles_total
                    result = attack_on(kernel, attacker.proc, target.proc,
                                       attacker.attack, label,
                                       secret=secret)
                    cost = kernel.kernel_cycles_total - before
                    # The PoC ran on the shared core: victim requests
                    # queue behind it.
                    sched.occupy(cost)
                    correct = sum(1 for got, want
                                  in zip(result.leaked, secret)
                                  if got == want)
                    row = attacker_rows[attacker.index]
                    row["rounds"] += 1
                    row["attempted_bytes"] += len(secret)
                    row["leaked_bytes"] += correct
                    row["blocked_bytes"] += len(secret) - correct
                    row["successes"] += int(result.success)
                    row["attack_cycles"] += cost
                    attacks_row.append({
                        "attacker": attacker.index,
                        "attack": attacker.attack,
                        "target": target.index,
                        "leaked_hex": result.leaked.hex(),
                        "correct_bytes": correct,
                        "blocked_bytes": len(secret) - correct,
                        "success": result.success,
                        "cycles": cost})

            # Controllers digest this epoch's journal slice (the slice
            # is everything since the previous epoch's mark, in whatever
            # order the ring holds it -- the tally is order-free).
            new_events = [e for e in journal.events()
                          if e.seq >= seq_mark]
            # SLO rollup: blocked-leak events land in their cycle window;
            # requests/sheds were recorded live by the engine hooks.
            rollup.ingest_events(new_events)
            epoch_alerts: list[slo.SloAlert] = []
            for alert in rollup.evaluate():
                key = (alert.objective, alert.context, alert.window_index)
                if key in alert_keys:
                    continue
                alert_keys.add(key)
                epoch_alerts.append(alert)
                alerts_fired.append(alert)
                # Journal the alert at its absolute window-end stamp
                # (emit() adds the running base back in).
                ev.emit("slo-alert",
                        cycle=alert.cycle - journal.base_cycle,
                        context=alert.context,
                        reason=(f"{alert.objective}"
                                f":burn={alert.burn_long:.3f}"))
            new_events = [e for e in journal.events()
                          if e.seq >= seq_mark]
            seq_mark = journal.emitted
            controller_alerts = (tuple(epoch_alerts)
                                 if spec.slo_alert_evidence else ())
            flavors: dict[str, str] = {}
            for ctx in sorted(controllers):
                decision = controllers[ctx].observe(
                    new_events, alerts=controller_alerts)
                if decision.changed:
                    install(ctx)
                    kind = ("policy-escalate"
                            if decision.action == "escalate"
                            else "policy-deescalate")
                    ev.emit(kind, context=ctx,
                            reason=(f"{decision.from_flavor}"
                                    f"->{decision.to_flavor}"),
                            scheme=SCHEME_OF_FLAVOR[decision.to_flavor])
                    steps.append({
                        "epoch": epoch, "context": ctx,
                        "role": ("victim" if ctx in victim_of_ctx
                                 else "attacker"),
                        "action": decision.action,
                        "from_flavor": decision.from_flavor,
                        "to_flavor": decision.to_flavor,
                        "evidence": decision.evidence,
                        "implicated": list(decision.implicated),
                        "reason": decision.reason})
                flavors[str(ctx)] = controllers[ctx].flavor

            epoch_latencies: list[float] = []
            p99_by_tenant: list[float] = []
            for report, mark in zip(reports, latency_marks):
                latencies = report.latencies[mark:]
                epoch_latencies.extend(latencies)
                p99_by_tenant.append(
                    percentile(latencies, 99.0) if latencies else 0.0)
            epoch_rows.append({
                "epoch": epoch, "storm": storm,
                "offered": len(schedule),
                "p99": (percentile(epoch_latencies, 99.0)
                        if epoch_latencies else 0.0),
                "p99_by_tenant": p99_by_tenant,
                "flavors": flavors,
                "makespan": sched.makespan,
                "fault_fires": {k: plane.fires[k]
                                for k in sorted(plane.fires)},
                "events": _kind_counts(new_events),
                "slo_alerts": [a.as_dict() for a in epoch_alerts],
                "attacks": attacks_row})

    sched.collect()

    # -- SLO baseline, storm recovery ----------------------------------
    pre_storm = [row for row in epoch_rows if not storm_epochs
                 or row["epoch"] < min(storm_epochs)]
    # Baseline = the worst pre-storm epoch p99 (conservative: recovery
    # means getting back under what normal operation already exhibited).
    baseline_p99 = max((row["p99"] for row in pre_storm), default=0.0)
    threshold = (baseline_p99 * spec.slo_factor
                 if storm_epochs and baseline_p99 > 0.0 else None)
    recovered_epoch: int | None = None
    recovery_cycles: float | None = None
    if storm_epochs and storm_onset is not None and threshold is not None:
        for row in epoch_rows:
            if row["epoch"] >= min(storm_epochs) \
                    and row["p99"] <= threshold:
                recovered_epoch = row["epoch"]
                recovery_cycles = row["makespan"] - storm_onset
                break

    # Per-escalation SLO impact: the tenant's p99 in the epoch after the
    # step minus the epoch of the step (victim contexts only; attacker
    # contexts serve no requests, so their impact column is null).
    for step in steps:
        victim_idx = victim_of_ctx.get(step["context"])
        before_p99 = after_p99 = None
        if victim_idx is not None:
            before_p99 = (
                epoch_rows[step["epoch"]]["p99_by_tenant"][victim_idx])
            if step["epoch"] + 1 < len(epoch_rows):
                after_p99 = (epoch_rows[step["epoch"] + 1]
                             ["p99_by_tenant"][victim_idx])
        step["p99_before"] = before_p99
        step["p99_after"] = after_p99
        step["slo_delta"] = (after_p99 - before_p99
                             if before_p99 is not None
                             and after_p99 is not None else None)

    # -- final secret check: fail-closed means the planted bytes never
    # moved and never leaked ------------------------------------------
    slots: list[bytes] = []
    intact = True
    for idx in sorted(targeted):
        proc = victims[idx].proc
        pa = proc.aspace.translate(proc.heap_va + SECRET_OFF)
        slot = kernel.memory.load_bytes(pa, len(secret))
        slots.append(slot)
        intact = intact and slot == secret
    secret_digest = hashlib.sha256(b"".join(slots)).hexdigest()

    tenant_rows: list[dict[str, Any]] = []
    for tenant, report in zip(victims, reports):
        ctx = ctx_of_victim[tenant.index]
        controller = controllers[ctx]
        row = report.as_dict()
        row.update({
            "role": "victim", "context": ctx,
            "flavor_initial": spec.start_flavor,
            "flavor_final": controller.flavor,
            "escalations": sum(1 for d in controller.history
                               if d.action == "escalate"),
            "deescalations": sum(1 for d in controller.history
                                 if d.action == "deescalate"),
            "exclusions": len(controller.exclusions)})
        tenant_rows.append(row)

    attacker_out: list[dict[str, Any]] = []
    for attacker in attackers:
        ctx = attacker.proc.cgroup.cg_id
        controller = controllers[ctx]
        row = dict(attacker_rows[attacker.index])
        row.update({
            "role": "attacker",
            "flavor_final": controller.flavor,
            "escalations": sum(1 for d in controller.history
                               if d.action == "escalate"),
            "exclusions": len(controller.exclusions),
            "all_blocked": (row["leaked_bytes"] == 0
                            and row["successes"] == 0)})
        attacker_out.append(row)

    attempted = sum(r["attempted_bytes"] for r in attacker_out)
    leaked = sum(r["leaked_bytes"] for r in attacker_out)
    all_latencies = [lat for report in reports
                     for lat in report.latencies]
    return {
        "spec": spec.as_dict(),
        "makespan_cycles": sched.makespan,
        "completed": sum(r.completed for r in reports),
        "shed": sum(r.shed for r in reports),
        "corrupt_shed": sum(r.corrupt_shed for r in reports),
        "latency_p99": (percentile(all_latencies, 99.0)
                        if all_latencies else 0.0),
        "leaks": {
            "attempted_bytes": attempted,
            "leaked_bytes": leaked,
            "blocked_bytes": attempted - leaked,
            "all_blocked": leaked == 0 and attempted > 0},
        "slo": {
            "baseline_p99": baseline_p99,
            "slo_factor": spec.slo_factor,
            "threshold_p99": threshold,
            "storm_onset_cycle": storm_onset,
            "recovered_epoch": recovered_epoch,
            "recovery_cycles": recovery_cycles,
            "window_cycles": spec.slo_window_cycles,
            "alert_evidence": spec.slo_alert_evidence,
            "alerts": [a.as_dict() for a in alerts_fired],
            "rollup": rollup.snapshot()},
        "faults": {
            "scenario": spec.scenario,
            "specs": scenario["specs"],
            "storm_epochs": sorted(storm_epochs),
            "draws": {k: plane.draws[k] for k in sorted(plane.draws)},
            "fires": {k: plane.fires[k] for k in sorted(plane.fires)},
            "total_fires": plane.total_fires(),
            "ibpb_fault_flushes": kernel.ibpb_fault_flushes,
            "isv_refill_faults": framework.isv_cache.stats.refill_faults,
            "dsv_refill_faults": framework.dsv_cache.stats.refill_faults},
        "tenants": tenant_rows,
        "attackers": attacker_out,
        "escalation_steps": steps,
        "epochs": epoch_rows,
        "journal": {
            "emitted": journal.emitted,
            "dropped": journal.dropped,
            "by_kind": _kind_counts(journal.events())},
        "secret": {
            "planted_hex": spec.secret_hex,
            "targets": sorted(targeted),
            "intact": intact,
            "digest": secret_digest},
    }


# ---------------------------------------------------------------------------
# Grid cell (the repro.exec fan-out unit)
# ---------------------------------------------------------------------------


def campaign_cell(**params: Any) -> dict[str, Any]:
    """One (seed, scenario) cell of the campaign sweep: the campaign
    report.

    Mirrors :func:`repro.serve.engine.serve_cell`: with ``observe`` set
    the cell publishes its headline figures as summary gauges, and
    :func:`repro.exec.grids.run_cell` runs it under the fresh registry
    that collects them.
    """
    spec = spec_from_params(params)
    out = run_campaign(spec)
    if params.get("observe"):
        cell = f"campaign.cell.s{spec.seed}.{spec.scenario}"
        obs.gauge(f"{cell}.completed", float(out["completed"]))
        obs.gauge(f"{cell}.shed", float(out["shed"]))
        obs.gauge(f"{cell}.corrupt_shed", float(out["corrupt_shed"]))
        obs.gauge(f"{cell}.latency_p99", out["latency_p99"])
        obs.gauge(f"{cell}.makespan_cycles", out["makespan_cycles"])
        obs.gauge(f"{cell}.leaks.attempted",
                  float(out["leaks"]["attempted_bytes"]))
        obs.gauge(f"{cell}.leaks.blocked",
                  float(out["leaks"]["blocked_bytes"]))
        obs.gauge(f"{cell}.escalations",
                  float(sum(1 for s in out["escalation_steps"]
                            if s["action"] == "escalate")))
        obs.gauge(f"{cell}.fault_fires",
                  float(out["faults"]["total_fires"]))
        obs.gauge(f"{cell}.recovery_cycles",
                  out["slo"]["recovery_cycles"] or 0.0)
        obs.gauge(f"{cell}.secret_intact",
                  1.0 if out["secret"]["intact"] else 0.0)
    return out
