"""Resilient evaluation-campaign runner with checkpoint/resume.

An in-process evaluation (:func:`repro.eval.report.run_full_evaluation`)
loses the whole run when one experiment crashes.  ``CampaignRunner`` runs
the experiment grids of :mod:`repro.exec.grids` -- the one experiment
registry -- with:

* **subprocess isolation** -- each experiment runs in its own forked
  process, so a crash (or an injected allocation-failure storm) cannot
  take down the campaign;
* **timeouts and bounded retry** -- exponential backoff with seeded
  jitter; delays are derived from the campaign seed, never from the
  wall clock, so the journal is byte-reproducible;
* a **JSONL journal** -- one record per finished experiment, written
  atomically after completion.  A record's payload is the grid's
  resolved parameters and its cell payloads, the same JSON values the
  engine's cache and pool carry; :meth:`CampaignState.result` rebuilds
  the experiment object with the grid's ``assemble``.  Re-running a
  campaign with the same journal skips every recorded experiment: kill
  -9 the process after N of M experiments and the next invocation
  resumes at N+1;
* **fault transport** -- an optional :class:`FaultPlane` spec is shipped
  to each worker, so whole campaigns can run under injected faults (the
  CI smoke campaign does exactly this).

An experiment name is a grid name, optionally followed by
``@instance`` (``campaign@s0.none``), so one grid can be scheduled many
times with different parameters; the full name keys the journal, params
and results.  Each experiment runs its grid on the engine at one worker
with the cache off, so its cells execute in declared order under the
campaign's fault plane and registry.

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

from repro.eval.report import SECTIONS, render_campaign_report
from repro.exec.engine import (
    EngineConfig,
    ExperimentEngine,
    run_in_subprocess,
)
from repro.exec.grids import GRIDS, Grid, Key, get_grid
from repro.obs import registry as obs
from repro.obs.instruments import INSTRUMENTS, instrumented
from repro.reliability.faultplane import FaultPlane, FaultSpec

JOURNAL_NAME = "campaign-journal.jsonl"


def _grid(name: str) -> Grid:
    """The grid behind an experiment name (the part before ``@``)."""
    return get_grid(name.split("@", 1)[0])


@dataclass
class CampaignConfig:
    """Knobs for one campaign run."""

    seed: int = 0
    #: By default, every grid of the evaluation's section table
    #: (:data:`repro.eval.report.SECTIONS`), in report order.
    experiments: tuple[str, ...] = tuple(
        section.grid for section in SECTIONS if section.grid)
    #: Per-experiment grid-parameter overrides (JSON-serializable).
    params: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Use the section table's trimmed ``fast`` parameters as each grid's
    #: base configuration instead of its ``full`` ones; a grid without a
    #: section runs at its defaults.
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

    def resolved_params(self, name: str) -> dict[str, Any]:
        grid = _grid(name).name
        base = next((section.params(self.fast) for section in SECTIONS
                     if section.grid == grid), {})
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

    #: Journaled payload per finished experiment: the grid's resolved
    #: parameters and its cell payloads in declared order,
    #: ``{"params": {...}, "cells": [[key, payload], ...]}``.
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

    def cells(self, name: str) -> dict[Key, Any]:
        """The journaled cell payloads of one experiment, by cell key."""
        return {tuple(key): payload
                for key, payload in self.payloads[name]["cells"]}

    def result(self, name: str) -> Any | None:
        """The experiment object its grid assembles, or None if
        unavailable."""
        if name not in self.payloads:
            return None
        return _grid(name).assemble(self.payloads[name]["params"],
                                    self.cells(name))


def _run_grid(name: str, params: dict[str, Any],
              fault: dict[str, Any] | None, observed: bool,
              ) -> tuple[dict[str, Any], dict[str, int],
                         dict[str, Any] | None]:
    """Run one experiment's grid: (payload, fault_fires, metrics_snapshot).

    The grid runs at one worker with the cache off, so every cell
    executes here, in declared order, under the fault plane.  When the
    caller is ``observed`` (has a registry active) it runs under a fresh
    registry whose snapshot ships back to be merged into the caller's
    (:meth:`MetricsRegistry.merge`): a subprocess worker's counters and
    spans cannot reach it otherwise.
    """
    registry = obs.MetricsRegistry() if observed else None
    plane = FaultPlane.from_dict(fault) if fault is not None else None
    planes = {key: value for key, value in (
        ("registry", registry), ("faults", plane)) if value is not None}
    engine = ExperimentEngine(EngineConfig(workers=1, use_cache=False))
    with instrumented(**planes):
        merged, payloads, _ = engine.run_cells(_grid(name).name, params)
    fires = dict(plane.fires) if plane is not None else {}
    snapshot = registry.snapshot() if registry is not None else None
    cells = [[list(key), cell] for key, cell in payloads.items()]
    return {"params": merged, "cells": cells}, fires, snapshot


def _campaign_worker(name: str, params: dict[str, Any],
                     fault: dict[str, Any] | None, observed: bool,
                     conn) -> None:
    """Subprocess entry point: run one experiment, ship its payload."""
    try:
        payload, fires, snapshot = _run_grid(name, params, fault,
                                             observed)
        conn.send({"ok": True, "payload": payload, "fault_fires": fires,
                   "metrics": snapshot})
    except BaseException as exc:  # noqa: BLE001 -- report, don't crash silently
        conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def _json_line(record: dict[str, Any]) -> str:
    # No sort_keys, like the engine's payload round trip: dict insertion
    # order is the declared order results are assembled and rendered in.
    return json.dumps(record, separators=(",", ":")) + "\n"


#: Defaults for per-experiment journal records: keys newer runners write
#: but journals from before an upgrade may lack.  ``default_record``
#: fills these on load, so a pre-upgrade journal resumes cleanly.
RECORD_DEFAULTS: dict[str, Any] = {
    "attempts": 1,
    "retry_delays": [],
    "error": None,
    "payload": None,
}


def default_record(record: dict[str, Any]) -> dict[str, Any]:
    """Fill missing per-experiment record keys with their defaults."""
    out = dict(RECORD_DEFAULTS)
    out.update(record)
    return out


def header_compatible(stored: dict[str, Any],
                      current: dict[str, Any]) -> bool:
    """Whether a stored journal header can resume under ``current``.

    Every field the stored header carries must match the current
    configuration exactly; fields only the *current* header has are new
    configuration knobs added since the journal was written, and a
    pre-upgrade journal is still resumable (the knob's value at write
    time was, by definition, the default).  A field only the stored
    header has means the configuration schema moved away from it --
    refuse, the journal's meaning can no longer be checked.
    """
    return all(key in current and current[key] == value
               for key, value in stored.items())


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
        self._sleep = sleep
        self._on_start = on_experiment_start
        unknown = [n for n in self.config.experiments
                   if n.split("@", 1)[0] not in GRIDS]
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
                    if not header_compatible(record, header):
                        raise self._refusal("journal was written by a "
                                            "different campaign "
                                            "configuration")
                    continue
                record = default_record(record)
                name = record["name"]
                state.attempts[name] = record["attempts"]
                if record["status"] == "done":
                    if set(record["payload"]) != {"params", "cells"}:
                        raise self._refusal(
                            f"journal record {name!r} is not a grid-cell "
                            "payload (written before the runner ran grids)")
                    state.payloads[name] = record["payload"]
                else:
                    state.failures[name] = record["error"] \
                        or "unknown failure"
        return state

    def _refusal(self, why: str) -> ValueError:
        return ValueError(f"{why}; refusing to resume from "
                          f"{self.journal_path} (delete it to restart)")

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
            # Normalize through the journal encoding so the in-memory
            # state is indistinguishable from a reload -- a resumed
            # campaign renders byte-identical reports.
            record = json.loads(_json_line(record))
            executed += 1
            state.attempts[name] = record["attempts"]
            if record["status"] == "done":
                state.payloads[name] = record["payload"]
            else:
                state.failures[name] = record["error"]
        return state

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
                # The worker's counters and spans reach the caller's
                # registry.  Journaled experiments never re-run, so a
                # resumed campaign counts each experiment once.
                INSTRUMENTS.registry.merge(
                    obs.MetricsRegistry.from_snapshot(snapshot))
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
        observed = INSTRUMENTS.registry is not None
        if not self.config.isolate:
            try:
                payload, fires, snapshot = _run_grid(name, params, fault,
                                                     observed)
                return True, payload, fires, snapshot
            except Exception as exc:  # noqa: BLE001
                return False, f"{type(exc).__name__}: {exc}", {}, None
        # Crash/timeout isolation rides on the engine's shared transport
        # (fork with spawn fallback), same as the parallel cell pool.
        timeout = self.config.timeout_s
        isolated = run_in_subprocess(
            _campaign_worker, (name, params, fault, observed), timeout)
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
        experiments=("surface", "security"))
    runner = CampaignRunner(journal_dir, config)
    state = runner.run()
    report = render_campaign_report(state)
    return state, report.render()
