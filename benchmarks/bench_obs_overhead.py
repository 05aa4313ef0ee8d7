"""Observability overhead: the "near-free when inactive" promise, measured.

The forensics plane (:mod:`repro.obs`) and the fault plane
(:mod:`repro.reliability.faultplane`) leave their hooks compiled into the
pipeline, the view machinery, the DSVMT walker and the allocators at all
times; each hook reads its plane off one record
(:data:`repro.obs.INSTRUMENTS`) and returns when it is ``None``.  This
benchmark drives the full LEBench suite under five configurations of
``instrumented(...)`` and reports wall time per configuration:

* ``inactive`` -- hooks present, nothing armed (the tax every run pays)
* ``journal``  -- security-event journal armed (:mod:`repro.obs.events`)
* ``metrics``  -- metrics/span registry armed (:mod:`repro.obs.registry`)
* ``both``     -- full forensics plane (journal + registry)
* ``faults``   -- a fault plane with every point armed at
  ``max_fires=0``: every fault hook takes its armed path (one draw per
  visit) but nothing fires, so the driven results must equal the
  inactive run's

Besides the rendered table, each run appends one machine-readable point
to ``benchmarks/out/BENCH_obs_overhead.txt`` so the overhead trajectory
can be tracked across commits.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.eval.envs import RARE_EVERY, make_env
from repro.obs import EventJournal, MetricsRegistry, instrumented
from repro.reliability import FAULT_POINTS, FaultPlane, FaultSpec
from repro.workloads.driver import Driver, RunStats
from repro.workloads.lebench import exercise_all

REPS = 5
TRAJECTORY = "BENCH_obs_overhead.txt"
HEADER = ("# repro.obs overhead trajectory: LEBench wall time (best of "
          f"{REPS}) per hook configuration; one line per benchmark run.\n")


def _unfired_faults() -> FaultPlane:
    """Every fault point armed, none allowed to fire."""
    return FaultPlane(specs=tuple(FaultSpec(point, max_fires=0)
                                  for point in FAULT_POINTS))


#: Configuration -> the planes ``instrumented(...)`` installs for a run.
CONFIGS = {
    "inactive": dict,
    "journal": lambda: {"journal": EventJournal()},
    "metrics": lambda: {"registry": MetricsRegistry()},
    "both": lambda: {"registry": MetricsRegistry(),
                     "journal": EventJournal()},
    "faults": lambda: {"faults": _unfired_faults()},
}


def _timed_run(planes) -> tuple[float, int, RunStats]:
    """Best-of wall time for one armed LEBench run, the journal events it
    recorded (or, for the fault plane, its armed-path draws), and the
    driven results.

    Environment construction stays outside the timed region so every
    configuration measures the same driven work.
    """
    best = float("inf")
    count = 0
    stats = RunStats()
    for _ in range(REPS):
        env = make_env("lebench", "perspective")
        driver = Driver(env.kernel, env.proc, rare_every=RARE_EVERY)
        armed = planes()
        with instrumented(**armed):
            start = time.perf_counter()
            exercise_all(driver)
            best = min(best, time.perf_counter() - start)
        if "journal" in armed:
            count = max(count, armed["journal"].emitted)
        if "faults" in armed:
            count = max(count, sum(armed["faults"].draws.values()))
        stats = driver.stats
    return best, count, stats


def _measure() -> dict[str, tuple[float, int, RunStats]]:
    return {name: _timed_run(planes) for name, planes in CONFIGS.items()}


def _render(results: dict[str, tuple[float, int, RunStats]]) -> str:
    base = results["inactive"][0]
    lines = [f"observability overhead on LEBench (best of {REPS})",
             f"{'config':<10} {'wall_s':>9} {'vs inactive':>12} "
             f"{'events/draws':>13}"]
    for name, (wall, count, _) in results.items():
        delta = ("--" if name == "inactive"
                 else f"{(wall / base - 1.0) * 100.0:+.1f}%")
        lines.append(f"{name:<10} {wall:>9.4f} {delta:>12} {count:>13}")
    journal_events = results["journal"][1]
    if journal_events:
        per_event = (results["journal"][0] - base) / journal_events * 1e9
        lines.append(f"per-event journal cost: {per_event:.0f} ns "
                     f"({journal_events} events)")
    return "\n".join(lines)


def _append_point(artifact_dir, results) -> None:
    path = artifact_dir / TRAJECTORY
    point = " ".join(f"{name}={wall:.4f}s"
                     for name, (wall, _, _) in results.items())
    point += (f" journal_events={results['journal'][1]}"
              f" fault_draws={results['faults'][1]}\n")
    if path.exists():
        path.write_text(path.read_text() + point)
    else:
        path.write_text(HEADER + point)


def test_obs_overhead(benchmark, artifact_dir, emit):
    results = run_once(benchmark, _measure)
    emit(_render(results))
    _append_point(artifact_dir, results)

    walls = {name: wall for name, (wall, _, _) in results.items()}
    assert all(wall > 0.0 for wall in walls.values())
    # The journal actually recorded the run it was armed for.
    assert results["journal"][1] > 0
    assert results["inactive"][1] == 0  # nothing armed, nothing recorded
    # The armed fault hooks drew on their armed path, fired nothing, and
    # left every driven result as the inactive run had it.
    assert results["faults"][1] > 0
    for name in CONFIGS:
        assert results[name][2] == results["inactive"][2], name
    # Arming the full plane must not blow the run up by an order of
    # magnitude; generous bound to stay robust on noisy CI machines.
    assert walls["both"] < walls["inactive"] * 10.0
    assert (artifact_dir / TRAJECTORY).read_text().startswith("#")
