"""Unit tests for the defense scheme policies."""

from __future__ import annotations

import pytest

from repro.analysis.flavors import non_driver_isv_functions
from repro.attacks import harness
from repro.attacks.harness import build_perspective
from repro.core.views import InstructionSpeculationView
from repro.cpu.pipeline import LoadQuery
from repro.defenses import (
    DelayOnMissPolicy,
    FencePolicy,
    PerspectivePolicy,
    STTPolicy,
    SpotMitigationPolicy,
    UnsafePolicy,
    arm,
    build_policy,
)
from repro.kernel.layout import PAGE_SHIFT


def query(**overrides) -> LoadQuery:
    defaults = dict(inst_va=0xFFFF_F000_0000_0000, load_va=0x1000,
                    load_pa=0x1000, context_id=1, domain="kernel",
                    transient=False, tainted=False, l1_hit=False)
    defaults.update(overrides)
    return LoadQuery(**defaults)


class TestSimplePolicies:
    def test_unsafe_allows_everything(self):
        assert UnsafePolicy().check_load(query(tainted=True)).allow

    def test_fence_blocks_everything(self):
        policy = FencePolicy()
        assert not policy.check_load(query()).allow
        assert policy.fence_stats.total == 1

    def test_dom_allows_l1_hits_only(self):
        policy = DelayOnMissPolicy()
        assert policy.check_load(query(l1_hit=True)).allow
        assert not policy.check_load(query(l1_hit=False)).allow
        assert policy.dom_lru_freeze()

    def test_stt_blocks_tainted_only(self):
        policy = STTPolicy()
        assert policy.check_load(query(tainted=False)).allow
        assert not policy.check_load(query(tainted=True)).allow
        assert policy.delays_tainted_branch_resolution()

    def test_fence_stats_reset(self):
        policy = FencePolicy()
        policy.check_load(query())
        policy.reset_stats()
        assert policy.fence_stats.total == 0


class TestSpotMitigations:
    def test_never_blocks_loads(self):
        policy = SpotMitigationPolicy()
        assert policy.check_load(query(tainted=True)).allow

    def test_kpti_costs(self):
        policy = SpotMitigationPolicy(kpti=True, retpoline=False)
        assert policy.kernel_entry_cost(1) > 0
        assert policy.kernel_exit_cost(1) > 0
        assert not policy.retpoline_enabled()

    def test_no_kpti_no_costs(self):
        policy = SpotMitigationPolicy(kpti=False, retpoline=True)
        assert policy.kernel_entry_cost(1) == 0
        assert policy.kernel_exit_cost(1) == 0
        assert policy.retpoline_enabled()

    def test_name_reflects_configuration(self):
        assert "kpti" in SpotMitigationPolicy(True, False).name
        assert "retpoline" in SpotMitigationPolicy(False, True).name


class TestPerspectivePolicy:
    @pytest.fixture()
    def armed(self, kernel):
        """Kernel with framework, one process, a permissive ISV."""
        proc = kernel.create_process("victim")
        framework, policy = build_perspective(kernel)
        return kernel, proc, framework, policy

    def _isv_inst(self, kernel, name="sys_read"):
        return kernel.image.layout[name].base_va

    def test_load_inside_views_allowed_after_warmup(self, armed):
        kernel, proc, framework, policy = armed
        heap_pa = proc.aspace.translate(proc.heap_va)
        q = query(inst_va=self._isv_inst(kernel), load_pa=heap_pa,
                  context_id=proc.cgroup.cg_id)
        first = policy.check_load(q)   # cold ISV cache: conservative block
        assert not first.allow
        second = policy.check_load(q)  # cold DSV cache: conservative block
        assert not second.allow
        third = policy.check_load(q)   # warm: both views hit, in-view
        assert third.allow

    def test_instruction_outside_isv_blocked(self, armed):
        kernel, proc, framework, policy = armed
        driver = next(n for n, i in kernel.image.info.items()
                      if i.role == "driver")
        heap_pa = proc.aspace.translate(proc.heap_va)
        q = query(inst_va=kernel.image.layout[driver].base_va,
                  load_pa=heap_pa, context_id=proc.cgroup.cg_id)
        policy.check_load(q)  # warm the caches
        decision = policy.check_load(q)
        assert not decision.allow
        assert decision.reason == "isv"

    def test_data_outside_dsv_blocked(self, armed):
        kernel, proc, framework, policy = armed
        other = kernel.create_process("other")
        framework.install_isv(framework.isv_for(proc.cgroup.cg_id))
        other_pa = other.aspace.translate(other.heap_va)
        q = query(inst_va=self._isv_inst(kernel), load_pa=other_pa,
                  context_id=proc.cgroup.cg_id)
        policy.check_load(q)
        decision = policy.check_load(q)
        assert not decision.allow
        assert decision.reason == "dsv"

    def test_unknown_memory_blocked_by_default(self, armed):
        kernel, proc, framework, policy = armed
        global_pa = 48 << PAGE_SHIFT
        q = query(inst_va=self._isv_inst(kernel), load_pa=global_pa,
                  context_id=proc.cgroup.cg_id)
        policy.check_load(q)
        assert not policy.check_load(q).allow

    def test_unknown_knob_allows_unknown_only(self, armed):
        kernel, proc, framework, policy = armed
        policy.treat_unknown_as_owned = True
        global_pa = 48 << PAGE_SHIFT
        q = query(inst_va=self._isv_inst(kernel), load_pa=global_pa,
                  context_id=proc.cgroup.cg_id)
        policy.check_load(q)  # warm the ISV cache
        assert policy.check_load(q).allow
        # Victim-owned memory is still protected.
        other = kernel.create_process("other2")
        q2 = query(inst_va=self._isv_inst(kernel),
                   load_pa=other.aspace.translate(other.heap_va),
                   context_id=proc.cgroup.cg_id)
        policy.check_load(q2)
        assert not policy.check_load(q2).allow

    def test_context_without_isv_trusts_nothing(self, armed):
        kernel, proc, framework, policy = armed
        q = query(inst_va=self._isv_inst(kernel), load_pa=0x1000,
                  context_id=424242)
        assert not policy.check_load(q).allow

    def test_fence_reasons_attributed(self, armed):
        kernel, proc, framework, policy = armed
        driver = next(n for n, i in kernel.image.info.items()
                      if i.role == "driver")
        q = query(inst_va=kernel.image.layout[driver].base_va,
                  load_pa=proc.aspace.translate(proc.heap_va),
                  context_id=proc.cgroup.cg_id)
        policy.check_load(q)
        policy.check_load(q)
        assert policy.fence_stats.by_reason.get("isv", 0) >= 1


class TestArm:
    """``arm`` is the one deployment step: framework, views, policy."""

    @staticmethod
    def _view(kernel, proc):
        return InstructionSpeculationView(
            proc.cgroup.cg_id, non_driver_isv_functions(kernel.image),
            kernel.layout, source="test")

    def test_framework_free_scheme_ignores_views(self, kernel):
        proc = kernel.create_process("victim")
        policy = arm(kernel, "fence", [self._view(kernel, proc)])
        assert kernel.pipeline.policy is policy
        assert isinstance(policy, FencePolicy)
        assert not hasattr(policy, "framework")
        assert policy.metric_label == "fence"

    def test_perspective_installs_views_in_order(self, kernel):
        procs = [kernel.create_process(f"t{i}") for i in range(2)]
        views = [self._view(kernel, proc) for proc in procs]
        policy = arm(kernel, "perspective++", views)
        assert kernel.pipeline.policy is policy
        assert policy.framework.kernel is kernel
        for proc, view in zip(procs, views):
            assert policy.framework.isv_for(proc.cgroup.cg_id) is view
        assert policy.framework.view_epoch == len(views)
        assert policy.metric_label == "perspectivepp"

    def test_harness_keeps_the_scheme_label(self, kernel):
        kernel.create_process("victim")
        policy = harness.build_policy("perspective-static", kernel)
        assert kernel.pipeline.policy is policy
        assert policy.metric_label == "perspective-static"

    def test_perspective_factory_needs_a_framework(self, kernel):
        with pytest.raises(ValueError, match="arm"):
            build_policy("perspective", kernel=kernel)
