"""Property tests for the defense-scheme registry.

Three invariant families, each driven by Hypothesis:

* **capability-flag consistency** -- a scheme's declared
  :class:`~repro.defenses.registry.SchemeCapabilities` must agree with
  its policy's observable decisions for *every* load query: a scheme
  whose capabilities block speculative fills can never produce a
  decision that installs a transient line in the shared hierarchy;
* **registration discipline** -- re-registering the same spec is
  idempotent, while any conflicting re-registration (different factory,
  capabilities, or a colliding metric label) raises
  :class:`~repro.defenses.registry.SchemeRegistrationError`;
* **scheme-order invariance** -- the defense-matrix assembler produces
  the same per-scheme row no matter the order schemes are listed in.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.binary import APPLICATIONS
from repro.analysis.flavors import (
    FLAVORS,
    SCHEME_OF_FLAVOR,
    flavor_isv,
    non_driver_isv_functions,
)
from repro.analysis.static_isv import static_isv_functions
from repro.core.audit import ESCALATION_LADDER
from repro.cpu.pipeline import LoadQuery
from repro.defenses.registry import (
    SchemeCapabilities,
    SchemeRegistrationError,
    build_policy,
    derive_metric_label,
    policy_metric_label,
    register_scheme,
    registered_schemes,
    scheme_capabilities,
    unregister_scheme,
)
from repro.kernel.kernel import MiniKernel
from repro.scanner.kasper import scan

#: Schemes whose policies are constructible without a Perspective
#: framework (the capability property needs a live policy instance).
DECISION_SCHEMES = tuple(
    s for s in registered_schemes()
    if not scheme_capabilities(s).needs_framework)

QUERIES = st.builds(
    LoadQuery,
    inst_va=st.integers(min_value=0, max_value=(1 << 40) - 1),
    load_va=st.integers(min_value=0, max_value=(1 << 40) - 1),
    load_pa=st.integers(min_value=0, max_value=(1 << 28) - 1),
    context_id=st.integers(min_value=0, max_value=4),
    domain=st.sampled_from(("user", "kernel")),
    transient=st.booleans(),
    tainted=st.booleans(),
    l1_hit=st.booleans(),
)


@pytest.fixture(scope="module")
def policies(image):
    """One live policy per framework-free scheme, sharing a kernel that
    has a planted secret (so ConTExT has tagged frames to refuse)."""
    kernel = MiniKernel(image=image)
    proc = kernel.create_process("prop")
    kernel.plant_secret(proc, b"PROPERTY")
    return {scheme: build_policy(scheme, kernel=kernel)
            for scheme in DECISION_SCHEMES}


class TestCapabilityConsistency:
    @settings(max_examples=120, deadline=None)
    @given(query=QUERIES)
    def test_decisions_agree_with_declared_capabilities(self, policies,
                                                        query):
        for scheme, policy in policies.items():
            caps = scheme_capabilities(scheme)
            decision = policy.check_load(query)
            if caps.speculative_loads == "never":
                assert not decision.allow, scheme
            elif caps.speculative_loads == "always":
                assert decision.allow, scheme
            if not caps.transient_fill and decision.allow \
                    and not decision.invisible:
                # The only visible allow a fill-blocking scheme may give
                # is an L1 hit (nothing new installs; DOM freezes LRU).
                assert query.l1_hit, (
                    f"{scheme} declares transient_fill=False but allowed "
                    f"a visible fill for {query}")

    def test_taint_tracking_flag_matches_policy_behaviour(self, policies):
        for scheme, policy in policies.items():
            caps = scheme_capabilities(scheme)
            assert caps.taint_tracking == \
                policy.delays_tainted_branch_resolution(), scheme

    @settings(max_examples=60, deadline=None)
    @given(query=QUERIES)
    def test_fill_blockers_never_record_transient_cache_hit(self, policies,
                                                            query):
        """The headline property: under a scheme whose capabilities say
        speculative fills must not reach shared structures, a transient
        (wrong-path, ground truth) load never installs a line."""
        for scheme, policy in policies.items():
            if scheme_capabilities(scheme).transient_fill:
                continue
            decision = policy.check_load(
                LoadQuery(query.inst_va, query.load_va, query.load_pa,
                          query.context_id, query.domain,
                          transient=True,
                          tainted=query.tainted, l1_hit=False))
            installs_line = decision.allow and not decision.invisible
            assert not installs_line, scheme


NAMES = st.from_regex(r"[a-z][a-z0-9+._-]{0,14}", fullmatch=True)


class TestRegistrationDiscipline:
    @settings(max_examples=40, deadline=None)
    @given(name=NAMES)
    def test_idempotent_then_conflict(self, name):
        name = f"prop-{name}"
        if name in registered_schemes():  # pragma: no cover - paranoia
            return
        caps = SchemeCapabilities("always", transient_fill=True)

        def factory(framework=None, kernel=None):
            return object()

        try:
            register_scheme(name, factory, caps)
            # Same spec, same factory: a no-op.
            register_scheme(name, factory, caps)
            assert name in registered_schemes()
            # Different factory: a conflict.
            with pytest.raises(SchemeRegistrationError):
                register_scheme(name, lambda framework=None, kernel=None:
                                object(), caps)
            # Different capabilities: also a conflict.
            with pytest.raises(SchemeRegistrationError):
                register_scheme(
                    name, factory,
                    SchemeCapabilities("never", transient_fill=False))
        finally:
            unregister_scheme(name)
        assert name not in registered_schemes()

    def test_metric_label_collision_rejected(self):
        caps = SchemeCapabilities("always", transient_fill=True)

        def factory(framework=None, kernel=None):
            return object()

        try:
            register_scheme("prop-a+b", factory, caps)
            # "prop-a.b" sanitizes to the same label as "prop-a+b" would
            # if both collapsed; force the collision explicitly instead.
            with pytest.raises(SchemeRegistrationError):
                register_scheme("prop-collide", factory, caps,
                                metric_label=derive_metric_label(
                                    "prop-a+b"))
        finally:
            unregister_scheme("prop-a+b")

    @settings(max_examples=60, deadline=None)
    @given(name=st.from_regex(r"[A-Za-z0-9+._ -]{1,24}", fullmatch=True))
    def test_derived_labels_are_metric_safe(self, name):
        label = derive_metric_label(name)
        assert label
        assert "+" not in label and "." not in label and " " not in label
        assert label == derive_metric_label(name)  # deterministic

    def test_builtin_labels_are_collision_free(self):
        # The registry enforced this at registration; re-check directly.
        from repro.defenses.registry import get_scheme
        seen: dict[str, str] = {}
        for scheme in registered_schemes():
            label = get_scheme(scheme).metric_label
            assert label not in seen, (scheme, seen[label])
            seen[label] = scheme

    def test_policy_metric_label_falls_back_to_name(self):
        class Anon:
            name = "my scheme+x"

        assert policy_metric_label(Anon()) == \
            derive_metric_label("my scheme+x")


class TestFlavorTable:
    """Every framework scheme has exactly one ISV flavor."""

    def test_flavors_cover_the_framework_schemes(self):
        assert set(FLAVORS) == {
            s for s in registered_schemes()
            if scheme_capabilities(s).needs_framework}
        assert tuple(FLAVORS.values()) == ESCALATION_LADDER
        assert {FLAVORS[s] for s in SCHEME_OF_FLAVOR.values()} == \
            set(SCHEME_OF_FLAVOR)

    def test_flavor_views(self, image):
        binary = APPLICATIONS["httpd"]
        traced = non_driver_isv_functions(image)
        views = {flavor: flavor_isv(image, 7, flavor, binary=binary,
                                    traced=traced)
                 for flavor in ESCALATION_LADDER}
        assert [views[f].source for f in ESCALATION_LADDER] == \
            ["static", "dynamic", "dynamic++"]
        assert all(v.context_id == 7 for v in views.values())
        assert views["static"].functions == \
            static_isv_functions(image, binary)
        assert views["dynamic"].functions == traced
        flagged = scan(image, scope=traced).functions()
        assert flagged
        assert views["++"].functions == traced - flagged
        with pytest.raises(ValueError, match="unknown ISV flavor"):
            flavor_isv(image, 7, "dynamic+", traced=traced)


class TestSchemeOrderInvariance:
    """Eval table rows must not depend on scheme listing order."""

    @staticmethod
    def _synthetic_payloads(schemes, seeds):
        """Deterministic fake cell payloads, a pure function of the
        scheme name (so rows are comparable across orderings)."""
        payloads = {}
        for seed in seeds:
            digests = {}
            for scheme in schemes:
                h = sum(scheme.encode())
                digests[scheme] = {"cycles": 1000.0 + h,
                                   "fenced_loads": h % 7}
            payloads[("conformance", str(seed))] = {
                "seed": seed, "schemes": list(schemes), "ok": True,
                "divergences": {},  # all conformant
                "digests": digests}
        for scheme in schemes:
            h = sum(scheme.encode())
            verdicts = {
                "spectre-v1-active": "blocked" if h % 2 else "leaked",
                "spectre-v2-active": "blocked",
                "ebpf-injection": "blocked" if h % 3 else "leaked",
                "spectre-v2-passive": "leaked",
                "retbleed-passive": "blocked",
                "spectre-rsb-passive": "blocked",
                "bhi-passive": "leaked",
                "spectre-v2-vs-eibrs": "blocked",
            }
            for attack, verdict in verdicts.items():
                leaked = verdict == "leaked"
                payloads[("security", attack, scheme)] = {
                    "name": attack, "scheme": scheme, "secret": "4b335921",
                    "leaked": "4b335921" if leaked else "",
                    "unrecovered": 0 if leaked else 4, "notes": ""}
            payloads[("lebench", scheme)] = {
                "cycles": {"getpid": 100.0 + h, "mmap": 200.0 + h},
                "fenced_loads": h, "committed_ops": 10_000 + h}
        return payloads

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(
        ["fence", "stt", "safespec", "context", "spot"]))
    def test_rows_invariant_under_reordering(self, order):
        from repro.eval.defense_matrix import assemble_matrix
        seeds = [0, 1, 2]
        schemes = ["unsafe"] + list(order)
        payloads = self._synthetic_payloads(schemes, seeds)
        table = assemble_matrix({"schemes": schemes, "seeds": seeds},
                                payloads)
        baseline_schemes = ["unsafe", "fence", "stt", "safespec",
                            "context", "spot"]
        baseline = assemble_matrix(
            {"schemes": baseline_schemes, "seeds": seeds},
            self._synthetic_payloads(baseline_schemes, seeds))
        for scheme in schemes:
            for section in ("conformance", "attacks", "security",
                            "performance"):
                assert table[section][scheme] == \
                    baseline[section][scheme], (scheme, section)
