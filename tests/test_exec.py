"""The experiment engine (:mod:`repro.exec`): the grids' pinned
result digests, worker-count parity, content-addressed caching,
fingerprint invalidation, merge determinism, decode-cache invalidation,
and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from repro.cpu.isa import Function, OP_SIZE, load, nop
from repro.cpu.pipeline import ExecResult
from repro.exec import (
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    cell_fingerprint,
    code_fingerprint,
    get_grid,
    grid_names,
    import_closure,
    run_experiment,
    run_in_subprocess,
)
from repro.exec import fingerprint as fp_mod
from repro.exec.__main__ import main as exec_main
from repro.obs import MetricsRegistry, instrumented


def canon(payload) -> str:
    """Byte-level comparison key (insertion order preserved; bytes as
    hex)."""
    return json.dumps(payload, sort_keys=False, default=bytes.hex)


def fields(exp) -> dict:
    """An experiment's fields as JSON values, without the breakdown's
    observability snapshot (its digest is pinned on its own)."""
    out = dataclasses.asdict(exp)
    out.pop("metrics", None)
    return out


def engine(tmp_path, workers: int = 1, use_cache: bool = True,
           ) -> ExperimentEngine:
    return ExperimentEngine(EngineConfig(
        workers=workers, use_cache=use_cache,
        cache_dir=tmp_path / "cache"))


# ---------------------------------------------------------------------------
# Decode cache (hot-path memoization)
# ---------------------------------------------------------------------------


class TestDecodeCache:
    def test_tables_match_body(self):
        fn = Function("f", [nop(), load("r1", "r2"), nop()], base_va=0x400)
        dec = fn.decoded()
        assert dec.vas == tuple(0x400 + i * OP_SIZE for i in range(4))
        assert dec.lines == tuple(va // 64 for va in dec.vas)
        assert dec.reads == ((), ("r2",), (), ())  # implicit-RET slot
        assert fn.decoded() is dec  # cached

    def test_recomputes_on_body_growth(self):
        fn = Function("f", [nop()])
        dec = fn.decoded()
        fn.body.append(nop())
        dec2 = fn.decoded()
        assert dec2 is not dec
        assert dec2.length == 2

    def test_recomputes_on_relocation(self):
        fn = Function("f", [nop()])
        dec = fn.decoded()
        fn.base_va = 0x1000  # CodeLayout.add assigns addresses like this
        dec2 = fn.decoded()
        assert dec2 is not dec
        assert dec2.vas[0] == 0x1000

    def test_explicit_invalidation(self):
        fn = Function("f", [nop(), nop()])
        dec = fn.decoded()
        fn.body[0] = load("r1", "r2")  # same length: undetectable
        fn.invalidate_decode()
        dec2 = fn.decoded()
        assert dec2 is not dec
        assert dec2.reads[0] == ("r2",)


# ---------------------------------------------------------------------------
# Order-independent merging
# ---------------------------------------------------------------------------


class TestMergeDeterminism:
    def _exec_results(self):
        parts = []
        for i in range(5):
            r = ExecResult(cycles=10.25 * (i + 1), committed_ops=100 + i,
                           loads=7 * i)
            for reason in ("dsv", "isv", "unknown")[: (i % 3) + 1]:
                r.fenced_loads[f"{reason}{i}"] = i + 1
            parts.append(r)
        return parts

    def test_exec_result_merge_is_order_independent(self):
        reference = None
        for seed in range(6):
            parts = self._exec_results()
            random.Random(seed).shuffle(parts)
            total = ExecResult()
            for part in parts:
                total.merge(part)
            blob = canon(dataclasses.asdict(total))
            if reference is None:
                reference = blob
            assert blob == reference
        assert list(json.loads(reference)["fenced_loads"]) == sorted(
            json.loads(reference)["fenced_loads"])

    def _registries(self):
        regs = []
        for i in range(4):
            reg = MetricsRegistry()
            # Deliberately insert keys in per-shard-dependent order.
            for name in [f"c.{j}" for j in range(i, -1, -1)]:
                reg.add(name, i + 1)
            reg.gauge(f"g.{i}", float(i))
            reg.observe(f"h.{i % 2}", 10.0 * (i + 1))
            with reg.span(f"s.{i % 2}"):
                reg.tick(5.0 + i)
            regs.append(reg.snapshot())
        return regs

    def test_registry_merge_is_order_independent(self):
        reference = None
        for seed in range(6):
            snaps = self._registries()
            random.Random(seed).shuffle(snaps)
            total = MetricsRegistry.from_snapshot(snaps[0])
            for snap in snaps[1:]:
                total.merge(MetricsRegistry.from_snapshot(snap))
            blob = canon(total.snapshot())
            if reference is None:
                reference = blob
            assert blob == reference
        merged = json.loads(reference)
        assert list(merged["counters"]) == sorted(merged["counters"])
        assert list(merged["gauges"]) == sorted(merged["gauges"])


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_closure_is_transitive_and_scoped(self):
        closure = import_closure(("repro.eval.runner",))
        assert "repro.eval.runner" in closure
        assert "repro.cpu.pipeline" in closure  # via envs -> kernel -> cpu
        assert "repro" in closure  # ancestor package
        assert "repro.reliability.campaign" not in closure
        assert closure == tuple(sorted(closure))

    def test_closure_ignores_non_repro_modules(self):
        closure = import_closure(("repro.exec.fingerprint",))
        assert all(m == "repro" or m.startswith("repro.")
                   for m in closure)

    def test_cell_fingerprint_canonical(self):
        code = code_fingerprint(("repro.exec.cache",))
        a = cell_fingerprint("lebench", ("fence",),
                            {"scheme": "fence", "rare_every": 12}, code)
        b = cell_fingerprint("lebench", ("fence",),
                            {"rare_every": 12, "scheme": "fence"}, code)
        assert a == b  # dict key order is irrelevant
        assert a != cell_fingerprint("lebench", ("fence",),
                                     {"scheme": "fence", "rare_every": 13},
                                     code)
        assert a != cell_fingerprint("apps", ("fence",),
                                     {"scheme": "fence", "rare_every": 12},
                                     code)

    def test_edit_inside_closure_changes_fingerprint(self, monkeypatch):
        roots = ("repro.eval.runner",)
        original = fp_mod._module_source
        # Each module is read from disk once, so a source file that
        # changes while the test runs moves all three variants or none.
        sources: dict[str, bytes | None] = {}

        def read_once(module):
            if module not in sources:
                sources[module] = original(module)
            return sources[module]

        def edited(target):
            def src(module):
                data = read_once(module)
                if module == target and data is not None:
                    return data + b"\n# edited\n"
                return data
            return src

        def fingerprint_with(source_fn):
            monkeypatch.setattr(fp_mod, "_module_source", source_fn)
            fp_mod.clear_caches()
            try:
                return code_fingerprint(import_closure(roots))
            finally:
                fp_mod.clear_caches()

        baseline = fingerprint_with(read_once)
        inside = fingerprint_with(edited("repro.cpu.pipeline"))
        outside = fingerprint_with(edited("repro.reliability.campaign"))
        monkeypatch.setattr(fp_mod, "_module_source", original)
        fp_mod.clear_caches()
        assert inside != baseline  # touched module is in the closure
        assert outside == baseline  # unrelated edit replays from cache


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        fp = "ab" + "0" * 62
        assert cache.get(fp) is None
        record = {"experiment": "x", "key": ["k"], "params": {"a": 1},
                  "payload": {"v": 1.5}}
        cache.put(fp, record)
        assert cache.get(fp) == record
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.stores) == (1, 1, 1)
        assert cache.entries() == [tmp_path / "ab" / f"{fp}.json"]

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        fp = "cd" + "1" * 62
        cache.put(fp, {"payload": 1})
        cache._path(fp).write_text("{truncated", encoding="utf-8")
        assert cache.get(fp) is None
        cache._path(fp).write_text('{"no_payload": 1}', encoding="utf-8")
        assert cache.get(fp) is None

    def test_wipe(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "2" * 62, {"payload": i})
        assert cache.wipe() == 3
        assert cache.entries() == []

    def test_counters_exported_through_obs(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        reg = MetricsRegistry()
        with instrumented(registry=reg):
            cache.get("ef" + "3" * 62)
            cache.put("ef" + "3" * 62, {"payload": 1})
            cache.get("ef" + "3" * 62)
        snap = reg.snapshot()["counters"]
        assert snap["exec.cache.misses"] == 1
        assert snap["exec.cache.stores"] == 1
        assert snap["exec.cache.hits"] == 1


# ---------------------------------------------------------------------------
# Engine: parity, caching, invalidation
# ---------------------------------------------------------------------------


SMALL = {
    "lebench": {"schemes": ["unsafe", "fence"]},
    "surface": {"apps": ["lebench", "httpd"]},
}


def digest(payload) -> str:
    return hashlib.sha256(canon(payload).encode()).hexdigest()


class TestPinnedRunnerDigests:
    """The evaluation's grids, run by :func:`run_experiment` (one
    worker, cache off).

    Each digest hashes the result's ``dataclasses.asdict`` JSON and was
    measured with the serial loop the experiment ran before it became a
    grid (identical under PYTHONHASHSEED 0 and 7): the engine must
    reproduce it byte for byte, insertion order included.
    """

    def test_lebench(self):
        exp = run_experiment("lebench", {"schemes": ["fence", "perspective"]})
        assert digest(fields(exp)) == \
            "24521d59d8aa5deeb2a308c9a180fe0e914534c128ca8b38652118cc0961e873"

    def test_apps(self):
        exp = run_experiment("apps", {"schemes": ["unsafe", "fence"],
                                      "apps": ["httpd", "redis"],
                                      "requests": 12})
        assert digest(fields(exp)) == \
            "445635acc6a43e9ddf6e6be4ced8ea0efae29cfd0ba28e03a31d9662a380bf0f"

    def test_surface(self):
        exp = run_experiment("surface", {"apps": ["lebench", "httpd"]})
        assert digest(fields(exp)) == \
            "04a51a5d6ae848d6ff7fb0dc0f17cd2d9db5df2e7cb683d0be6f14765dd60842"

    def test_breakdown_with_metrics(self):
        exp = run_experiment("breakdown", {
            "workloads": ["lebench", "httpd"], "schemes": ["perspective"],
            "requests": 12, "observe": True})
        assert digest(fields(exp)) == \
            "3539f34bf5381b56658216e4d8f07dca19781d07fd754c2ff820b27ecd614e1a"
        assert digest(exp.metrics) == \
            "24bc301ce80d62e8e524e21fb85ae9f26ead97a61f76dfd7203d357a0cdbc6b6"

    def test_sweeps(self):
        branch = [dataclasses.asdict(run_experiment(
            "sweep-branch", {"values": [4.0, 20.0], "scheme": scheme}))
            for scheme in ("fence", "perspective")]
        assert digest(branch) == \
            "9e48a2bb3697512becd88de052d8332c5f5871b105545f7feb02843e2cb6c3b0"
        rob = run_experiment("sweep-rob", {"values": [48, 192]})
        assert digest(dataclasses.asdict(rob)) == \
            "d63f582a55451456cd26aa609831d9627b92dcbfe30f75770dbff887c29b3c0d"

    def test_unknown_allocations(self):
        result = run_experiment("unknown-allocations")
        assert digest(dataclasses.asdict(result)) == \
            "07e08c0f589738dbd4c32abd3dccc4756a53702289adf3e2ac2055a3b35ff683"

    def test_slab_sensitivity(self):
        result = run_experiment("slab-sensitivity",
                                {"apps": ["httpd", "redis"], "requests": 24})
        assert digest(dataclasses.asdict(result)) == \
            "ab6884b6634215b2701220dfb782d5dd7b0767f2b245daaff432fe615450b625"

    def test_gadgets(self):
        exp = run_experiment("gadgets", {"apps": ["httpd", "redis"]})
        assert digest(fields(exp)) == \
            "caae10bba33e24c579826a69e6578bb3bdaa46d3761ee4a1d0a62c20570a9383"

    def test_kasper(self):
        exp = run_experiment("kasper", {"apps": ["lebench", "httpd"],
                                        "n_seeds": 2})
        assert digest(fields(exp)) == \
            "6b23fab45dde4045879bcebab7829cdd3e2df22db72ab346d0116e9d643c0b8d"

    def test_security(self):
        cells = run_experiment("security", {
            "attacks": ["spectre-v1-active", "spectre-v2-passive"],
            "schemes": ["unsafe", "perspective"]})
        assert digest([dataclasses.asdict(cell) for cell in cells]) == \
            "067a8b814694e3daa86727a1e764fef547d4382dafce2dbe4d6e39c4f3b72131"


class TestEngineParity:
    """Two workers against the one-worker path :func:`run_experiment`
    takes, plus caching and bookkeeping."""

    def test_lebench_two_workers_match_one(self, tmp_path):
        par, report = engine(tmp_path, workers=2).run(
            "lebench", SMALL["lebench"])
        one = run_experiment("lebench", SMALL["lebench"])
        assert canon(fields(par)) == canon(fields(one))
        assert (report.cells_total, report.executed) == (2, 2)
        assert report.cache_misses == 2 and report.cache_hits == 0

    def test_surface_two_workers_match_one(self, tmp_path):
        par, _ = engine(tmp_path, workers=2).run(
            "surface", SMALL["surface"])
        one = run_experiment("surface", SMALL["surface"])
        assert canon(fields(par)) == canon(fields(one))

    def test_breakdown_metrics_two_workers_match_one(self, tmp_path):
        params = {"workloads": ["lebench"], "schemes": ["perspective"],
                  "requests": 12, "observe": True}
        par, _ = engine(tmp_path, workers=2).run("breakdown", params)
        one = run_experiment("breakdown", params)
        assert canon(fields(par)) == canon(fields(one))
        assert canon(par.metrics) == canon(one.metrics)

    def test_normalize_prepends_unsafe(self, tmp_path):
        result, report = engine(tmp_path).run(
            "lebench", {"schemes": ["fence"]})
        assert result.schemes == ("unsafe", "fence")
        assert report.cells_total == 2

    def test_warm_cache_replay_is_identical(self, tmp_path):
        eng = engine(tmp_path, workers=2)
        cold, report_cold = eng.run("lebench", SMALL["lebench"])
        warm, report_warm = eng.run("lebench", SMALL["lebench"])
        assert canon(fields(cold)) == canon(fields(warm))
        assert report_cold.cache_hits == 0 and report_cold.executed == 2
        assert report_warm.cache_hits == 2 and report_warm.executed == 0

    def test_no_cache_mode_stores_nothing(self, tmp_path):
        eng = engine(tmp_path, use_cache=False)
        _, report = eng.run("surface", {"apps": ["lebench"]})
        assert report.executed == 1 and report.stored == 0
        assert eng.cache.entries() == []

    def test_no_cache_mode_computes_no_fingerprint(self, tmp_path,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fingerprinted with the cache off")

        for name in ("code_fingerprint", "import_closure",
                     "cell_fingerprint"):
            monkeypatch.setattr(f"repro.exec.engine.{name}", refuse)
        reg = MetricsRegistry()
        with instrumented(registry=reg):
            _, report = engine(tmp_path, use_cache=False).run(
                "surface", {"apps": ["lebench"]})
        assert report.executed == 1
        counters = reg.snapshot()["counters"]
        assert counters["exec.cells.total"] == 1
        assert not [k for k in counters if k.startswith("exec.cache.")]

    def test_code_edit_invalidates_cache(self, tmp_path, monkeypatch):
        eng = engine(tmp_path)
        eng.run("surface", {"apps": ["lebench"]})
        original = fp_mod._module_source

        def apply_edit(target):
            def src(module):
                data = original(module)
                if module == target and data is not None:
                    return data + b"\n# edited\n"
                return data
            monkeypatch.setattr(fp_mod, "_module_source", src)
            fp_mod.clear_caches()

        try:
            # An edit outside the closure replays from cache...
            apply_edit("repro.reliability.campaign")
            _, report = eng.run("surface", {"apps": ["lebench"]})
            assert report.cache_hits == 1 and report.executed == 0
            # ...an edit inside it re-executes the cell.
            apply_edit("repro.kernel.kernel")
            _, report = eng.run("surface", {"apps": ["lebench"]})
            assert report.cache_hits == 0 and report.executed == 1
        finally:
            monkeypatch.setattr(fp_mod, "_module_source", original)
            fp_mod.clear_caches()

    def test_engine_exports_cell_counters(self, tmp_path):
        reg = MetricsRegistry()
        with instrumented(registry=reg):
            engine(tmp_path).run("surface", {"apps": ["lebench"]})
        counters = reg.snapshot()["counters"]
        assert counters["exec.cells.total"] == 1
        assert counters["exec.cells.executed"] == 1
        assert counters["exec.cache.misses"] == 1

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown experiment"):
            engine(tmp_path).run("nonesuch")

    def test_unknown_parameter_rejected(self, tmp_path):
        """A misspelled parameter raises instead of running the
        defaults."""
        with pytest.raises(TypeError, match="'surface'.*appz"):
            engine(tmp_path).run("surface", {"appz": ["httpd"]})
        with pytest.raises(TypeError, match="'serve'.*tenant, trac"):
            engine(tmp_path).run_cells("serve", {"trace": True,
                                                "trac": True, "tenant": [2]})

    @pytest.mark.parametrize("grid, params", [
        ("obs-matrix", {"schemes": ["unsafe", "unsafe"]}),
        ("lebench", {"schemes": ["perspective", "perspective"]}),
        ("serve", {"seeds": [0, 0]}),
    ])
    def test_repeated_cell_key_rejected(self, tmp_path, monkeypatch,
                                        grid, params):
        """A repeated list entry lays out one cell key twice: the cell
        would run twice and its snapshot fold twice, so the engine
        refuses before any cell runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("ran a cell of a repeated layout")

        monkeypatch.setattr("repro.exec.engine.run_cell", refuse)
        with pytest.raises(ValueError, match=f"{grid!r} repeats cell key"):
            engine(tmp_path).run_cells(grid, params)

    @pytest.mark.parametrize("grid, keyed", [
        ("serve", ("seed", "tenants")),
        ("serve-scale", ("scheme", "tenants", "shards")),
    ])
    def test_serve_grids_accept_every_config_field(self, grid, keyed):
        """Every ``ServeConfig`` field the cell key does not name is a
        parameter of both serve grids."""
        from repro.serve.engine import ServeConfig
        config = ServeConfig()
        for field in dataclasses.fields(ServeConfig):
            if field.name not in keyed:
                value = getattr(config, field.name)
                assert get_grid(grid).resolve(
                    {field.name: value})[field.name] == value

    def test_run_cells_returns_declared_order(self, tmp_path):
        eng = engine(tmp_path, workers=2)
        eng.run("surface", {"apps": ["httpd"]})  # warm one cell
        merged, payloads, report = eng.run_cells(
            "surface", {"apps": ["lebench", "httpd"]})
        assert report.cache_hits == 1 and report.executed == 1
        assert merged == {"apps": ["lebench", "httpd"]}
        assert list(payloads) == [("lebench",), ("httpd",)]

    @pytest.mark.parametrize("module", ["repro.eval.envs", "repro.attacks",
                                        "repro.serve.shard"])
    def test_importing_leaves_engine_unloaded(self, module):
        """Only ``run_corpus`` imports the engine, on first call, so
        the modules the end-to-end benchmark imports at set-up stay
        cheap."""
        code = (f"import sys, {module}; "
                "assert 'repro.exec.engine' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120)


@pytest.mark.slow
class TestFullGridWorkerParity:
    """Full-scale byte parity of every eval grid at four workers against
    the one-worker path :func:`run_experiment` takes.

    Expensive; excluded from the default run (see pyproject addopts) and
    exercised by the parallel-eval CI job via ``-m slow``.
    """

    def test_lebench_full(self, tmp_path):
        par, _ = engine(tmp_path, workers=4).run("lebench")
        one = run_experiment("lebench")
        assert canon(fields(par)) == canon(fields(one))

    def test_apps_full(self, tmp_path):
        par, _ = engine(tmp_path, workers=4).run("apps", {"requests": 16})
        one = run_experiment("apps", {"requests": 16})
        assert canon(fields(par)) == canon(fields(one))

    def test_breakdown_full(self, tmp_path):
        par, _ = engine(tmp_path, workers=4).run(
            "breakdown", {"requests": 16, "observe": True})
        one = run_experiment("breakdown", {"requests": 16, "observe": True})
        assert canon(fields(par)) == canon(fields(one))
        assert canon(par.metrics) == canon(one.metrics)

    def test_surface_full(self, tmp_path):
        par, _ = engine(tmp_path, workers=4).run("surface")
        one = run_experiment("surface")
        assert canon(fields(par)) == canon(fields(one))

    def test_sweeps_full(self, tmp_path):
        eng = engine(tmp_path, workers=4)
        par_b, _ = eng.run("sweep-branch")
        one_b = run_experiment("sweep-branch")
        assert par_b.overhead_pct == one_b.overhead_pct
        par_r, _ = eng.run("sweep-rob")
        one_r = run_experiment("sweep-rob")
        assert par_r.overhead_pct == one_r.overhead_pct

    def test_sensitivity_full(self, tmp_path):
        eng = engine(tmp_path, workers=4)
        par_u, _ = eng.run("unknown-allocations")
        one_u = run_experiment("unknown-allocations")
        assert dataclasses.asdict(par_u) == dataclasses.asdict(one_u)
        par_s, _ = eng.run("slab-sensitivity")
        one_s = run_experiment("slab-sensitivity")
        assert canon(dataclasses.asdict(par_s)) == \
            canon(dataclasses.asdict(one_s))


# ---------------------------------------------------------------------------
# Subprocess transport
# ---------------------------------------------------------------------------


def _echo_worker(value, conn):
    conn.send({"ok": True, "value": value})
    conn.close()


def _crash_worker(conn):
    os._exit(3)


def _hang_worker(conn):
    time.sleep(30.0)


class TestRunInSubprocess:
    def test_message_round_trip(self):
        res = run_in_subprocess(_echo_worker, (41,), timeout_s=30.0)
        assert res.message == {"ok": True, "value": 41}
        assert res.exitcode == 0 and not res.timed_out

    def test_crash_reports_exit_code(self):
        res = run_in_subprocess(_crash_worker, (), timeout_s=30.0)
        assert res.message is None and res.exitcode == 3
        assert not res.timed_out

    def test_timeout_terminates_worker(self):
        res = run_in_subprocess(_hang_worker, (), timeout_s=0.2)
        assert res.message is None and res.timed_out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_list(self, capsys):
        assert exec_main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == grid_names()
        assert "lebench" in listed

    def test_run_and_warm_cache_summary(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert exec_main(["surface", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "surface:" in out and "0 hit" in out
        assert exec_main(["surface", "--cache-dir", cache,
                          "--json"]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out
        payload = json.loads(out[out.index("{"):out.rindex("}") + 1])
        assert payload["total_functions"] > 0

    def test_wipe_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        exec_main(["surface", "--cache-dir", cache])
        capsys.readouterr()
        assert exec_main(["--wipe-cache", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "wiped" in out

    def test_unknown_experiment_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            exec_main(["nonesuch", "--cache-dir",
                       str(tmp_path / "cache")])

    def test_grid_registry_consistency(self):
        for name in grid_names():
            grid = get_grid(name)
            assert grid.name == name
