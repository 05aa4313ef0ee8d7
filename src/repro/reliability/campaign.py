"""Resilient evaluation-campaign runner with checkpoint/resume.

The straight-line evaluation driver (:mod:`repro.eval.report`) loses the
whole run when one experiment crashes.  ``CampaignRunner`` wraps the
``run_*_experiment`` functions with:

* **subprocess isolation** -- each experiment runs in its own forked
  process, so a crash (or an injected allocation-failure storm) cannot
  take down the campaign;
* **timeouts and bounded retry** -- exponential backoff with seeded
  jitter; delays are derived from the campaign seed, never from the
  wall clock, so the journal is byte-reproducible;
* a **JSONL journal** -- one record per finished experiment, written
  atomically after completion.  Re-running a campaign with the same
  journal skips every recorded experiment: kill -9 the process after N
  of M experiments and the next invocation resumes at N+1;
* **fault transport** -- an optional :class:`FaultPlane` spec is shipped
  to each worker, so whole campaigns can run under injected faults (the
  CI smoke campaign does exactly this).

Failures after retry exhaustion are recorded as terminal; the reporting
layer (:func:`repro.eval.report.render_campaign_report`) renders those
cells as ``—`` with a failure summary instead of aborting.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.attacks.harness import run_matrix
from repro.eval.runner import (
    run_apps_experiment,
    run_breakdown_experiment,
    run_gadget_experiment,
    run_kasper_experiment,
    run_lebench_experiment,
    run_surface_experiment,
)
from repro.exec.engine import run_in_subprocess
from repro.obs import registry as obs
from repro.obs.instruments import INSTRUMENTS, instrumented
from repro.reliability import serde
from repro.reliability.faultplane import FaultPlane, FaultSpec

JOURNAL_NAME = "campaign-journal.jsonl"
METRICS_NAME = "campaign-metrics.json"


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable, serializable experiment."""

    name: str
    run: Callable[..., Any]
    to_payload: Callable[[Any], dict[str, Any]]
    from_payload: Callable[[dict[str, Any]], Any]
    #: Full-scale keyword arguments (the paper's configuration).
    default_params: dict[str, Any] = field(default_factory=dict)
    #: Trimmed keyword arguments for smoke/CI runs.
    fast_params: dict[str, Any] = field(default_factory=dict)


def _serve_campaign_cell(**params: Any) -> dict[str, Any]:
    """The adversarial-serving campaign as a schedulable experiment.

    Imported lazily so the reliability layer does not pull the whole
    serving stack at module import (and so the subprocess worker
    resolves it fresh in the child).
    """
    from repro.serve.campaign import campaign_cell
    observe = params.pop("observe", True)
    return campaign_cell(params, observe=observe)


def _spec_name(name: str) -> str:
    """``"serve-campaign@s0.none"`` -> ``"serve-campaign"``.

    Everything before ``@`` resolves the :class:`ExperimentSpec`; the
    full instance name keys the journal, params, and results -- so one
    spec can be scheduled many times with different parameters in a
    single campaign (the serving campaign runs one instance per
    (seed, scenario) cell).
    """
    return name.split("@", 1)[0]


#: The evaluation experiments the campaign runner can schedule.  Params
#: must stay JSON-serializable -- they ride in the journal header and
#: across the subprocess boundary.
EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec for spec in (
        ExperimentSpec(
            "surface", run_surface_experiment,
            serde.surface_to_payload, serde.surface_from_payload,
            fast_params={"apps": ["lebench", "httpd"]}),
        ExperimentSpec(
            "gadgets", run_gadget_experiment,
            serde.gadgets_to_payload, serde.gadgets_from_payload,
            fast_params={"apps": ["lebench", "redis"]}),
        ExperimentSpec(
            "security", run_matrix,
            serde.security_to_payload, serde.security_from_payload,
            fast_params={"attacks": ["spectre-v1-active",
                                     "spectre-v2-passive"],
                         "schemes": ["unsafe", "perspective"]}),
        ExperimentSpec(
            "kasper", run_kasper_experiment,
            serde.kasper_to_payload, serde.kasper_from_payload,
            fast_params={"apps": ["httpd"], "n_seeds": 4}),
        ExperimentSpec(
            "lebench", run_lebench_experiment,
            serde.lebench_to_payload, serde.lebench_from_payload,
            fast_params={"schemes": ["unsafe", "fence", "perspective"]}),
        ExperimentSpec(
            "apps", run_apps_experiment,
            serde.apps_to_payload, serde.apps_from_payload,
            fast_params={"schemes": ["unsafe", "fence", "perspective"],
                         "apps": ["httpd"], "requests": 16}),
        ExperimentSpec(
            "breakdown", run_breakdown_experiment,
            serde.breakdown_to_payload, serde.breakdown_from_payload,
            fast_params={"workloads": ["lebench"],
                         "schemes": ["perspective"], "requests": 12}),
        ExperimentSpec(
            "serve-campaign", _serve_campaign_cell,
            serde.campaign_to_payload, serde.campaign_from_payload,
            default_params={"seed": 0, "scenario": "none",
                            "observe": True},
            fast_params={"seed": 0, "scenario": "none", "epochs": 3,
                         "observe": True}),
    )
}


@dataclass
class CampaignConfig:
    """Knobs for one campaign run."""

    seed: int = 0
    experiments: tuple[str, ...] = tuple(EXPERIMENTS)
    #: Per-experiment keyword-argument overrides (JSON-serializable).
    params: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Use each spec's trimmed ``fast_params`` as the base configuration.
    fast: bool = False
    max_attempts: int = 3
    #: Per-attempt wall-clock limit; ``None`` disables the timeout.
    timeout_s: float | None = 600.0
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 5.0
    #: Run each experiment in a subprocess (fork when available).
    isolate: bool = True
    #: Optional fault plane armed inside every worker.
    fault: FaultPlane | None = None
    #: Arm a fresh :class:`MetricsRegistry` inside every worker and merge
    #: the per-experiment snapshots into one whole-campaign snapshot
    #: (written as ``campaign-metrics.json`` next to the journal).
    #: Deliberately *not* part of :meth:`header`: the snapshot is a
    #: sidecar, and toggling it must not invalidate resumable journals.
    collect_metrics: bool = False

    def resolved_params(self, name: str) -> dict[str, Any]:
        spec = EXPERIMENTS[_spec_name(name)]
        base = spec.fast_params if self.fast else spec.default_params
        return {**base, **self.params.get(name, {})}

    def header(self) -> dict[str, Any]:
        return {
            "event": "header",
            "seed": self.seed,
            "experiments": list(self.experiments),
            "params": {name: self.resolved_params(name)
                       for name in self.experiments},
            "fast": self.fast,
            "max_attempts": self.max_attempts,
            "fault": self.fault.to_dict() if self.fault else None,
        }


@dataclass
class CampaignState:
    """Checkpointed view of a campaign (journal contents, materialized)."""

    payloads: dict[str, dict[str, Any]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    interrupted: bool = False

    @property
    def done(self) -> set[str]:
        return set(self.payloads)

    @property
    def finished(self) -> set[str]:
        """Experiments with a terminal record (done or failed-for-good)."""
        return self.done | set(self.failures)

    def result(self, name: str) -> Any | None:
        """Reconstructed experiment object, or None if unavailable."""
        payload = self.payloads.get(name)
        if payload is None:
            return None
        return EXPERIMENTS[_spec_name(name)].from_payload(payload)

    def results(self) -> dict[str, Any]:
        return {name: EXPERIMENTS[_spec_name(name)].from_payload(payload)
                for name, payload in self.payloads.items()}


def _run_spec(name: str, params: dict[str, Any],
              fault: dict[str, Any] | None, collect_metrics: bool,
              ) -> tuple[dict[str, Any], dict[str, int],
                         dict[str, Any] | None]:
    """Run one experiment spec: (payload, fault_fires, metrics_snapshot).

    With ``collect_metrics`` the experiment runs under a fresh registry
    whose snapshot ships back for whole-campaign aggregation
    (:meth:`MetricsRegistry.merge`); hot-path counters and spans from
    every shard combine into one picture of the campaign.
    """
    spec = EXPERIMENTS[_spec_name(name)]
    registry = obs.MetricsRegistry(meta={"experiment": name}) \
        if collect_metrics else None
    plane = FaultPlane.from_dict(fault) if fault is not None else None
    planes = {key: value for key, value in (
        ("registry", registry), ("faults", plane)) if value is not None}
    with instrumented(**planes):
        result = spec.run(**params)
    fires = dict(plane.fires) if plane is not None else {}
    snapshot = registry.snapshot() if registry is not None else None
    return spec.to_payload(result), fires, snapshot


def _campaign_worker(name: str, params: dict[str, Any],
                     fault: dict[str, Any] | None, collect_metrics: bool,
                     conn) -> None:
    """Subprocess entry point: run one experiment, ship its payload."""
    try:
        payload, fires, snapshot = _run_spec(name, params, fault,
                                             collect_metrics)
        conn.send({"ok": True, "payload": payload, "fault_fires": fires,
                   "metrics": snapshot})
    except BaseException as exc:  # noqa: BLE001 -- report, don't crash silently
        conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def _json_line(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class CampaignRunner:
    """Journaled, retrying, subprocess-isolated experiment scheduler."""

    def __init__(self, journal_dir: str | pathlib.Path,
                 config: CampaignConfig | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 on_experiment_start: Callable[[str], None] | None = None,
                 ) -> None:
        self.config = config or CampaignConfig()
        self.journal_dir = pathlib.Path(journal_dir)
        self.journal_path = self.journal_dir / JOURNAL_NAME
        self.metrics_path = self.journal_dir / METRICS_NAME
        #: Whole-campaign metrics: per-experiment shard snapshots merged
        #: as they arrive (only populated with ``collect_metrics``; a
        #: resumed campaign aggregates the experiments it actually ran).
        self.metrics = obs.MetricsRegistry(
            meta={"plane": "repro.reliability.campaign",
                  "seed": self.config.seed})
        #: Shards produced by the *current* ``run()`` invocation only --
        #: the persisted sidecar folds these into whatever an earlier
        #: (killed/interrupted) invocation already wrote, so the on-disk
        #: aggregate is cumulative and each experiment's counters land in
        #: it exactly once no matter how often the campaign resumes.
        self._pending_shards: list[obs.MetricsRegistry] = []
        self._sleep = sleep
        self._on_start = on_experiment_start
        unknown = [n for n in self.config.experiments
                   if _spec_name(n) not in EXPERIMENTS]
        if unknown:
            raise ValueError(f"unknown experiments: {unknown}")
        dupes = [n for n in self.config.experiments
                 if list(self.config.experiments).count(n) > 1]
        if dupes:
            raise ValueError(
                f"duplicate experiment instances: {sorted(set(dupes))}; "
                "schedule repeats as distinct 'name@instance' entries")

    # -- journal ----------------------------------------------------------

    def load_state(self) -> CampaignState:
        """Materialize the journal into a state (empty if none exists)."""
        state = CampaignState()
        if not self.journal_path.exists():
            return state
        header = self.config.header()
        with self.journal_path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("event") == "header":
                    # Forward-compatible match: a journal written before
                    # a runner upgrade lacks newly added header fields;
                    # every field it *does* carry must agree.
                    if not serde.header_compatible(record, header):
                        raise ValueError(
                            "journal was written by a different campaign "
                            "configuration; refusing to resume from "
                            f"{self.journal_path} (delete it to restart)")
                    continue
                record = serde.default_record(record)
                name = record["name"]
                state.attempts[name] = record["attempts"]
                if record["status"] == "done":
                    state.payloads[name] = record["payload"]
                else:
                    state.failures[name] = record["error"] \
                        or "unknown failure"
        return state

    def _append(self, record: dict[str, Any]) -> None:
        with self.journal_path.open("a") as handle:
            handle.write(_json_line(record))
            handle.flush()

    # -- execution --------------------------------------------------------

    def run(self, stop_after: int | None = None) -> CampaignState:
        """Run (or resume) the campaign; returns the final state.

        ``stop_after`` limits how many *new* experiments execute, which
        simulates an interrupted campaign for the resume tests and lets
        callers slice long campaigns across invocations.
        """
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        state = self.load_state()
        if not self.journal_path.exists():
            self._append(self.config.header())
        executed = 0
        for name in self.config.experiments:
            if name in state.finished:
                continue  # checkpointed: never re-run
            if stop_after is not None and executed >= stop_after:
                state.interrupted = True
                break
            if self._on_start is not None:
                self._on_start(name)
            record = self._run_with_retries(name)
            self._append(record)
            # Normalize through the journal encoding (sorted keys) so the
            # in-memory state is indistinguishable from a reload -- a
            # resumed campaign renders byte-identical reports.
            record = json.loads(_json_line(record))
            executed += 1
            state.attempts[name] = record["attempts"]
            if record["status"] == "done":
                state.payloads[name] = record["payload"]
            else:
                state.failures[name] = record["error"]
        if self.config.collect_metrics:
            self._write_metrics()
        return state

    def _write_metrics(self) -> None:
        """Persist the metrics sidecar, cumulatively across resumes.

        Only the shards this ``run()`` invocation produced are folded
        into whatever a previous (interrupted) invocation already wrote:
        journaled experiments are never re-run, so their counters must
        not be re-merged either -- a kill/resume cycle converges on the
        same sidecar a single uninterrupted run writes, and resuming a
        finished campaign is a no-op rather than an empty overwrite.
        """
        if self.metrics_path.exists():
            combined = obs.MetricsRegistry.from_snapshot(
                json.loads(self.metrics_path.read_text()))
        else:
            combined = obs.MetricsRegistry(meta=dict(self.metrics.meta))
        for part in self._pending_shards:
            combined.merge(part)
        self._pending_shards = []
        self.metrics_path.write_text(combined.to_json(indent=1) + "\n")

    def _run_with_retries(self, name: str) -> dict[str, Any]:
        params = self.config.resolved_params(name)
        backoff = random.Random(f"{self.config.seed}:backoff:{name}")
        delays: list[float] = []
        error = "never attempted"
        for attempt in range(1, self.config.max_attempts + 1):
            with obs.span(f"experiment/{name}"):
                ok, payload_or_error, fires, snapshot = \
                    self._attempt(name, params)
            if snapshot is not None:
                part = obs.MetricsRegistry.from_snapshot(snapshot)
                self.metrics.merge(part)
                self._pending_shards.append(part)
                # Thread worker-side metrics back into whatever registry
                # the *caller* has active: without this, counters and
                # spans recorded inside the subprocess were silently
                # dropped unless ``collect_metrics`` was set up front.
                ambient = INSTRUMENTS.registry
                if ambient is not None and ambient is not self.metrics:
                    ambient.merge(part)
            obs.add(f"campaign.{name}.attempts")
            for point in sorted(fires):
                obs.add(f"campaign.{name}.fault_fires.{point}",
                        fires[point])
            if ok:
                obs.add(f"campaign.{name}.done")
                return {"event": "experiment", "name": name,
                        "status": "done", "attempts": attempt,
                        "retry_delays": delays, "error": None,
                        "payload": payload_or_error}
            error = payload_or_error
            if attempt < self.config.max_attempts:
                obs.add(f"campaign.{name}.retries")
                # Exponential backoff with seeded jitter in [0.5, 1.5):
                # reproducible from the campaign seed, no wall clock.
                delay = min(self.config.backoff_cap_s,
                            self.config.backoff_base_s * 2 ** (attempt - 1))
                delay *= 0.5 + backoff.random()
                delays.append(round(delay, 6))
                self._sleep(delay)
        obs.add(f"campaign.{name}.failures")
        return {"event": "experiment", "name": name, "status": "failed",
                "attempts": self.config.max_attempts,
                "retry_delays": delays, "error": error, "payload": None}

    def _attempt(self, name: str, params: dict[str, Any],
                 ) -> tuple[bool, Any, dict[str, int],
                            dict[str, Any] | None]:
        """One execution attempt:
        (ok, payload_or_error, fault_fires, metrics_snapshot)."""
        fault = self.config.fault.to_dict() if self.config.fault else None
        # Collect when asked to *or* when the caller is observing: an
        # ambient registry means someone wants these metrics, and a
        # subprocess worker's registrations cannot reach it otherwise.
        collect = self.config.collect_metrics \
            or INSTRUMENTS.registry is not None
        if not self.config.isolate:
            try:
                payload, fires, snapshot = _run_spec(name, params, fault,
                                                     collect)
                return True, payload, fires, snapshot
            except Exception as exc:  # noqa: BLE001
                return False, f"{type(exc).__name__}: {exc}", {}, None
        # Crash/timeout isolation rides on the engine's shared transport
        # (fork with spawn fallback), same as the parallel cell pool.
        timeout = self.config.timeout_s
        isolated = run_in_subprocess(
            _campaign_worker, (name, params, fault, collect), timeout)
        message: dict[str, Any] | None = isolated.message
        if isolated.timed_out:
            return False, f"timeout after {timeout}s", {}, None
        if message is None:
            return False, \
                f"worker crashed (exit code {isolated.exitcode})", {}, None
        fires = message.get("fault_fires", {})
        if message["ok"]:
            return True, message["payload"], fires, \
                message.get("metrics")
        return False, message["error"], fires, None


def smoke_campaign(journal_dir: str | pathlib.Path,
                   seed: int = 0) -> tuple[CampaignState, str]:
    """The CI smoke campaign: a trimmed experiment set run under a
    moderate fault storm, rendered through the degradation-aware report.

    Returns the final state and the rendered report text.
    """
    from repro.eval.report import render_campaign_report
    fault = FaultPlane(seed=seed, specs=(
        FaultSpec("isv-cache-forced-miss", probability=0.05),
        FaultSpec("dsv-cache-forced-miss", probability=0.05),
        FaultSpec("dsvmt-walk-fail", probability=0.1),
        FaultSpec("dsv-assign-drop", probability=0.1),
        FaultSpec("trace-drop", probability=0.1),
        FaultSpec("buddy-alloc-fail", probability=0.002),
    ))
    config = CampaignConfig(
        seed=seed, fast=True, fault=fault, max_attempts=2,
        timeout_s=300.0, backoff_base_s=0.05,
        experiments=("surface", "security"), collect_metrics=True)
    runner = CampaignRunner(journal_dir, config)
    state = runner.run()
    report = render_campaign_report(state)
    return state, report.render()
