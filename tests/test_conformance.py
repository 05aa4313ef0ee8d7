"""Cross-scheme differential conformance (:mod:`repro.serve.conformance`):
the ≥20-seed corpus oracle, trace generation invariants, the divergence
comparator, and the trace minimizer."""

from __future__ import annotations

import json
import shlex

import pytest

from repro.serve import conformance
from repro.serve.__main__ import _parser
from repro.serve.conformance import (
    CONFORMANCE_SCHEMES,
    ConformanceResult,
    TraceStep,
    check_seed,
    generate_trace,
    minimize_divergence,
    run_trace_under,
    steps_from_dicts,
)


class TestTraceGeneration:
    def test_deterministic(self):
        assert generate_trace(5, 14, 2) == generate_trace(5, 14, 2)
        assert generate_trace(5, 14, 2) != generate_trace(6, 14, 2)

    def test_requested_length(self):
        for steps in (1, 7, 30):
            assert len(generate_trace(0, steps=steps, tenants=2)) == steps

    def test_consumers_always_have_producers(self):
        # Replaying the symbolic resource accounting over the generated
        # trace must never find a consumer with an empty pool.
        for seed in range(40):
            n_fds = {}
            n_vas = {}
            for step in generate_trace(seed, steps=30, tenants=3):
                t = step.tenant
                uses_fd = any(isinstance(a, tuple) and a[0] == "fd"
                              for a in step.args)
                uses_va = any(isinstance(a, tuple) and a[0] == "va"
                              for a in step.args)
                if uses_fd:
                    assert n_fds.get(t, 0) > 0, (seed, step)
                if uses_va:
                    assert n_vas.get(t, 0) > 0, (seed, step)
                if step.syscall in ("open", "socket", "dup"):
                    n_fds[t] = n_fds.get(t, 0) + 1
                elif step.syscall == "pipe":
                    n_fds[t] = n_fds.get(t, 0) + 2
                elif step.syscall == "close":
                    n_fds[t] = n_fds.get(t, 0) - 1
                elif step.syscall == "mmap":
                    n_vas[t] = n_vas.get(t, 0) + 1
                elif step.syscall == "munmap":
                    n_vas[t] = n_vas.get(t, 0) - 1

    def test_steps_json_round_trip(self):
        trace = generate_trace(9, steps=20, tenants=2)
        raw = json.loads(json.dumps([s.as_dict() for s in trace]))
        assert steps_from_dicts(raw) == trace

    def test_tenants_stay_in_range(self):
        for step in generate_trace(3, steps=40, tenants=2):
            assert step.tenant in (0, 1)


class TestArchitecturalDigest:
    def test_unsafe_keeps_secret_architecturally_intact(self, image):
        trace = generate_trace(0, steps=10, tenants=2)
        digest = run_trace_under("unsafe", trace, tenants=2, image=image)
        assert digest["secret_intact"]
        assert digest["views"] is None
        assert len(digest["outcomes"]) == 10

    def test_perspective_reports_view_digest(self, image):
        trace = generate_trace(0, steps=8, tenants=2)
        digest = run_trace_under("perspective", trace, tenants=2,
                                 image=image)
        assert digest["views"] is not None
        assert digest["fenced_loads"] > 0

    def test_digest_equals_its_json_round_trip(self, image):
        # Corpus digests reach callers through the engine's JSON round
        # trip, and tests compare them with freshly computed ones.
        digest = run_trace_under("perspective", generate_trace(0, 14, 2),
                                 tenants=2, image=image)
        assert json.loads(json.dumps(digest)) == digest

    def test_static_flavor_installs_static_views(self, image, monkeypatch):
        from repro.analysis.binary import ApplicationBinary
        from repro.analysis.static_isv import static_isv_functions
        from repro.core.framework import Perspective

        installed = []
        install = Perspective.install_isv

        def record(framework, isv):
            installed.append(isv)
            install(framework, isv)

        monkeypatch.setattr(Perspective, "install_isv", record)
        trace = generate_trace(0, steps=14, tenants=2)
        run_trace_under("perspective-static", trace, tenants=2, image=image)
        assert len(installed) == 2
        for t, isv in enumerate(installed):
            binary = ApplicationBinary(f"conf{t}", frozenset(
                step.syscall for step in trace if step.tenant == t))
            assert isv.source == "static"
            assert isv.functions == static_isv_functions(image, binary)

    def test_memory_digest_reflects_stores(self, kernel):
        before = kernel.memory.digest()
        kernel.memory.store(0x1234, 0x99)
        after = kernel.memory.digest()
        assert before != after
        assert after == kernel.memory.digest()


class TestComparator:
    def test_detects_architectural_divergence(self):
        base = {"outcomes": [1], "memory": "aa", "secret_intact": True,
                "buddy": {"x": 1}, "tenants": [], "views": None}
        schemes = ("unsafe", "fence")
        same = conformance._compare(
            {"unsafe": base, "fence": dict(base)}, schemes)
        assert same == {}
        divergent = conformance._compare(
            {"unsafe": base, "fence": {**base, "memory": "bb",
                                       "secret_intact": False}},
            schemes)
        assert divergent == {"fence": ["memory", "secret_intact"]}

    def test_view_digests_compared_among_flavors_only(self):
        base = {"outcomes": [], "memory": "aa", "secret_intact": True,
                "buddy": {}, "tenants": [], "views": None}
        digests = {"unsafe": dict(base),
                   "perspective": {**base, "views": "v1"},
                   "perspective++": {**base, "views": "v2"}}
        out = conformance._compare(
            digests, ("unsafe", "perspective", "perspective++"))
        assert out == {"perspective++": ["views"]}

    def test_block_jit_digests_compared_key_by_key(self):
        base = {"outcomes": [], "memory": "aa", "secret_intact": True,
                "buddy": {}, "tenants": [], "views": None,
                "cycles": 100.0, "fenced_loads": 3}
        schemes = ("unsafe", "fence")
        digests = {"unsafe": dict(base), "fence": dict(base)}
        same = conformance._compare(
            digests, schemes,
            jit={"unsafe": dict(base), "fence": dict(base)})
        assert same == {}
        slower = conformance._compare(
            digests, schemes,
            jit={"unsafe": dict(base), "fence": {**base, "cycles": 101.0}})
        assert slower == {"fence": ["jit:cycles"]}

    def test_repro_recipe_mentions_seed_and_steps(self):
        result = ConformanceResult(
            seed=17, schemes=("unsafe", "fence"), ok=False,
            divergences={"fence": ["memory"]},
            minimized=[TraceStep(0, "getpid")])
        recipe = result.repro()
        assert "seed 17" in recipe
        assert "--seeds 17" in recipe
        assert "getpid" in recipe


class TestMinimizer:
    def test_shrinks_to_culprit_step(self, monkeypatch):
        # Divergence oracle stub: the trace diverges iff it still
        # contains an mmap step.  The minimizer must strip everything
        # else without ever producing an unexecutable subset.
        def fake_check(trace, seed, schemes, tenants, image, cache_parity):
            diverges = any(s.syscall == "mmap" for s in trace)
            return ConformanceResult(
                seed=seed, schemes=schemes, ok=not diverges,
                divergences={"fence": ["memory"]} if diverges else {})
        monkeypatch.setattr(conformance, "_check_trace", fake_check)
        trace = [TraceStep(0, "getpid"), TraceStep(1, "open", (0,)),
                 TraceStep(0, "mmap", (0, 4096)),
                 TraceStep(1, "close", (("fd", 0),))]
        minimized = minimize_divergence(trace, ("unsafe", "fence"), 2,
                                        image=object())
        assert minimized == [TraceStep(0, "mmap", (0, 4096))]

    def test_nondivergent_trace_survives_whole(self, monkeypatch):
        def fake_check(trace, seed, schemes, tenants, image, cache_parity):
            return ConformanceResult(seed=seed, schemes=schemes, ok=True)
        monkeypatch.setattr(conformance, "_check_trace", fake_check)
        trace = generate_trace(0, steps=5, tenants=2)
        assert minimize_divergence(trace, ("unsafe", "fence"), 2,
                                   image=object()) == trace


class TestCorpus:
    #: The acceptance bar: every scheme agrees architecturally on every
    #: seeded trace.  Divergence here means a defense changed semantics.
    def test_twenty_seed_corpus_conformant(self, conformance_corpus):
        results = conformance_corpus
        divergent = [r for r in results if not r.ok]
        assert not divergent, "\n\n".join(r.repro() for r in divergent)
        assert len(results) == 20
        for r in results:
            assert set(r.digests) == set(CONFORMANCE_SCHEMES)
            # Cycle counts are *expected* to differ: fence pays more
            # than unsafe on every trace that speculates at all.
            assert r.digests["fence"]["cycles"] > \
                r.digests["unsafe"]["cycles"]

    def test_check_seed_matches_corpus_entry(self, image,
                                             conformance_params):
        params = conformance_params
        single = check_seed(3, tuple(params["schemes"]), params["steps"],
                            params["tenants"], image=image)
        assert single.ok
        assert single.seed == 3


class TestCacheParity:
    """The block-JIT check: memoized replay must match interpretation
    in **every** digest key, cycles included (the CI job runs the full
    24-seed x 8-scheme corpus; tier-1 spot-checks one seed)."""

    def test_replay_matches_interpretation_exactly(self, image):
        result = check_seed(
            0, schemes=("unsafe", "perspective"), steps=14, tenants=2,
            image=image, cache_parity=True)
        assert result.ok, result.repro()
        assert set(result.digests) == {"unsafe", "perspective"}

    def test_repro_recipe_names_the_flag(self):
        bad = ConformanceResult(seed=4, schemes=("unsafe",), ok=False,
                                divergences={"unsafe": ["cycles"]},
                                cache_parity=True)
        assert "--cache-parity" in bad.repro()
        assert "--seeds 4," in bad.repro()

    def test_repro_command_reruns_the_diverging_run(self):
        bad = ConformanceResult(seed=7, schemes=("unsafe", "fence"),
                                ok=False, divergences={"fence": ["cycles"]},
                                cache_parity=True, steps=9)
        command = next(line for line in bad.repro().splitlines()
                       if not line.startswith("#"))
        argv = shlex.split(command)
        args = _parser().parse_args(argv[argv.index("repro.serve") + 1:])
        assert args.seeds == [7]
        assert args.steps == 9
        assert args.schemes == ["unsafe", "fence"]
        assert args.cache_parity
