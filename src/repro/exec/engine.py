"""The experiment engine: scatter cells, gather payloads.

:class:`ExperimentEngine` runs any registered grid
(:mod:`repro.exec.grids`) by decomposing it into independent cells,
resolving each cell against the content-addressed result cache
(:mod:`repro.exec.cache`), executing the remaining cells -- inline, or
scattered over a process pool when ``workers > 1`` -- and assembling the
experiment object in declared cell order.  It is the only execution path
of every experiment: :func:`run_experiment` runs a grid in this process
with the cache off, and the campaign runner
(:mod:`repro.reliability.campaign`) journals what
:meth:`ExperimentEngine.run_cells` returns -- the resolved parameters
and cell payloads -- and assembles them on resume.

Determinism contract, enforced by the pinned-digest and worker-parity
tests:

* every cell runs in a fresh environment, so cell outputs do not depend
  on which process (or how many siblings) computed them;
* gathered payloads are keyed by cell key and assembled in declared grid
  order, never in pool completion order;
* every payload is round-tripped through JSON (preserving dict insertion
  order) before assembly, so a cache replay and a fresh execution are
  indistinguishable down to float-arithmetic iteration order.

Consequently ``engine.run("lebench")`` is byte-identical at any worker
count, cold or warm cache.

Every cell runs through :func:`repro.exec.grids.run_cell`, which arms
the fresh planes the cell's params ask for (``observe``, ``trace``,
``slo_window``) and attaches their snapshots to its payload.  At one
worker the cells run in the calling process, so the caller's other
``instrumented(...)`` planes (registry, journal, fault plane) reach
every cell; the engine itself adds only ``exec.cells.total`` and
``exec.cells.executed`` (plus ``exec.cache.*`` with the cache on).
Pool workers are separate processes, so at ``workers > 1`` an outer
registry captures only that bookkeeping, and grids that need metrics
capture them per cell.  With the cache off no fingerprint is computed;
with it on, one code fingerprint -- the import closure of
:mod:`repro.exec.grids`, which reaches every cell's code -- versions
every cell.  The subprocess transport that the campaign runner
(:mod:`repro.reliability.campaign`) uses for crash/timeout isolation
lives here too (:func:`run_in_subprocess`), so both layers share one
fork-with-spawn-fallback implementation.
"""

from __future__ import annotations

import json
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.fingerprint import (
    cell_fingerprint,
    code_fingerprint,
    import_closure,
)
from repro.exec.grids import get_grid, run_cell
from repro.obs import registry as obs

Key = tuple[str, ...]


def _mp_context():
    """Fork when the platform offers it (cheap, inherits the warmed
    image cache), spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def _roundtrip(payload: Any) -> Any:
    # No sort_keys: dict insertion order must survive so assemble-time
    # float reductions (geomeans etc.) iterate in declared order, whether
    # the payload is fresh or replayed from cache.
    return json.loads(json.dumps(payload))


def _run_cell_task(grid_name: str, cell_params: dict[str, Any]) -> Any:
    """Top-level pool task: run one cell by grid name (grids are
    registered at import time, so this works under fork and spawn
    alike)."""
    return _roundtrip(run_cell(grid_name, cell_params))


@dataclass
class RunReport:
    """What one engine run did: cells, cache traffic, parallelism."""

    experiment: str
    #: Processes that executed cells; the calling process counts as one.
    workers: int
    cache_enabled: bool
    cells_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    stored: int = 0

    def summary(self) -> str:
        cache = (f"cache {self.cache_hits} hit / "
                 f"{self.cache_misses} miss"
                 if self.cache_enabled else "cache off")
        return (f"{self.experiment}: {self.cells_total} cells, "
                f"{self.executed} executed on {self.workers} "
                f"worker{'s' if self.workers != 1 else ''}, {cache}")


@dataclass
class EngineConfig:
    """Knobs for :class:`ExperimentEngine`."""

    workers: int = 1
    use_cache: bool = True
    cache_dir: str | Path | None = None


class ExperimentEngine:
    """Scatter/gather executor for grid-shaped experiments."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        root = (Path(self.config.cache_dir)
                if self.config.cache_dir is not None
                else default_cache_dir())
        self.cache = ResultCache(root=root)

    def run(self, experiment: str, params: dict[str, Any] | None = None,
            ) -> tuple[Any, RunReport]:
        """Run one experiment; returns ``(result, report)``.

        ``result`` is what the grid's ``assemble`` builds; ``params``
        override the grid defaults.
        """
        merged, payloads, report = self.run_cells(experiment, params)
        return get_grid(experiment).assemble(merged, payloads), report

    def run_cells(self, experiment: str,
                  params: dict[str, Any] | None = None,
                  ) -> tuple[dict[str, Any], dict[Key, Any], RunReport]:
        """Compute every cell of one experiment, without assembling.

        Returns ``(merged_params, payloads, report)``: the grid's
        resolved parameters and each cell's JSON payload keyed by cell
        key, in declared cell order -- exactly what the grid's
        ``assemble`` takes, and what a campaign journal stores.  Raises
        ``TypeError`` for a parameter the grid does not read, and
        ``ValueError``, before any cell runs, when the params lay out one
        cell key twice (a repeated scheme, seed, ...): the payloads keep
        one entry per key, so the repeat would be computed and folded
        twice.
        """
        grid = get_grid(experiment)
        merged = grid.resolve(params or {})
        cells = grid.cells(merged)
        repeated = [key for key, count in
                    Counter(key for key, _ in cells).items() if count > 1]
        if repeated:
            raise ValueError(
                f"grid {experiment!r} repeats cell key(s): "
                f"{', '.join('/'.join(key) for key in repeated)}")
        report = RunReport(experiment=experiment,
                           workers=self.config.workers,
                           cache_enabled=self.config.use_cache,
                           cells_total=len(cells))
        found: dict[Key, Any] = {}
        fingerprints: dict[Key, str] = {}
        pending = cells
        if self.config.use_cache:
            code_fp = code_fingerprint(import_closure(("repro.exec.grids",)))
            pending = []
            for key, cell_params in cells:
                fp = cell_fingerprint(experiment, key, cell_params, code_fp)
                fingerprints[key] = fp
                record = self.cache.get(fp)
                if record is not None:
                    found[key] = record["payload"]
                    report.cache_hits += 1
                    continue
                report.cache_misses += 1
                pending.append((key, cell_params))

        obs.add("exec.cells.total", len(cells))
        obs.add("exec.cells.executed", len(pending))
        # No more processes start than there are cells to execute.
        report.workers = min(report.workers, len(pending))
        for (key, cell_params), payload in zip(
                pending, self._execute(experiment, pending, report.workers)):
            found[key] = payload
            if self.config.use_cache:
                self.cache.put(fingerprints[key], {
                    "experiment": experiment, "key": list(key),
                    "params": cell_params, "payload": payload})
                report.stored += 1
            report.executed += 1
        payloads = {key: found[key] for key, _ in cells}
        return merged, payloads, report

    def _execute(self, experiment: str,
                 pending: list[tuple[Key, dict[str, Any]]],
                 workers: int) -> list[Any]:
        if workers <= 1:
            return [_run_cell_task(experiment, cell_params)
                    for _, cell_params in pending]
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=_mp_context()) as pool:
            futures = [pool.submit(_run_cell_task, experiment, cell_params)
                       for _, cell_params in pending]
            # Gather in submission order; completion order is irrelevant.
            return [future.result() for future in futures]


def run_experiment(experiment: str,
                   params: dict[str, Any] | None = None) -> Any:
    """Run one grid in this process with the cache off; returns the
    assembled result.

    ``params`` override the grid's defaults.  Workers, the result cache
    and the :class:`RunReport` are :class:`ExperimentEngine`'s.
    """
    engine = ExperimentEngine(EngineConfig(use_cache=False))
    return engine.run(experiment, params)[0]


# ---------------------------------------------------------------------------
# Shared subprocess transport (crash/timeout isolation)
# ---------------------------------------------------------------------------


@dataclass
class IsolatedResult:
    """Outcome of :func:`run_in_subprocess`."""

    #: The single message the worker sent, or ``None`` if it never did.
    message: Any
    exitcode: int | None
    #: The worker exceeded the timeout and was terminated.
    timed_out: bool = False


def run_in_subprocess(worker: Callable[..., None],
                      args: tuple[Any, ...] = (),
                      timeout_s: float | None = None) -> IsolatedResult:
    """Run ``worker(*args, conn)`` in its own process; receive one message.

    The worker gets a one-way pipe connection as its last argument and is
    expected to ``conn.send(...)`` exactly once.  A worker that blows the
    timeout is terminated (``timed_out=True``); one that dies without
    sending yields ``message=None`` with its exit code.  This is the
    isolation transport behind
    :class:`repro.reliability.campaign.CampaignRunner`.
    """
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=worker, args=(*args, child_conn))
    proc.start()
    child_conn.close()
    message: Any = None
    # poll() returning True means the worker sent something OR its end of
    # the pipe closed (crash); False means the timeout genuinely expired.
    signalled = parent_conn.poll(timeout_s)
    if signalled:
        try:
            message = parent_conn.recv()
        except EOFError:
            message = None
    timed_out = False
    proc.join(timeout=5.0 if signalled else 0.0)
    if proc.is_alive():
        proc.terminate()
        proc.join()
        timed_out = not signalled
    parent_conn.close()
    return IsolatedResult(message=message, exitcode=proc.exitcode,
                          timed_out=timed_out)
