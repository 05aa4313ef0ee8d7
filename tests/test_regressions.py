"""Regression tests for hot-path caches that previously lacked direct
end-to-end coverage: the per-context view memo in
:class:`PerspectivePolicy` (keyed on ``Perspective.view_epoch``) and the
decode-table cache consumed by the pipeline (explicit
``invalidate_decode`` on in-place same-length mutation)."""

from __future__ import annotations

from repro.core.framework import Perspective
from repro.core.views import InstructionSpeculationView
from repro.cpu.isa import AluOp, CodeLayout, Function, alu, kret, li
from repro.cpu.memsys import MainMemory
from repro.cpu.pipeline import ExecutionContext, LoadQuery, Pipeline
from repro.defenses import PerspectivePolicy


def query(**overrides) -> LoadQuery:
    defaults = dict(inst_va=0xFFFF_F000_0000_0000, load_va=0x1000,
                    load_pa=0x1000, context_id=1, domain="kernel",
                    transient=False, tainted=False, l1_hit=False)
    defaults.update(overrides)
    return LoadQuery(**defaults)


def isv_for(kernel, ctx: int, functions) -> InstructionSpeculationView:
    return InstructionSpeculationView(ctx, frozenset(functions),
                                      kernel.image.layout,
                                      source="dynamic")


class TestViewMemoEpoch:
    """The per-context (ISV, bitmap-pages) memo must refresh whenever the
    framework installs or replaces *any* view -- a stale memo would keep
    enforcing a withdrawn view, silently undoing runtime shrinking."""

    def test_install_after_memoization_is_visible(self, kernel, proc):
        framework = Perspective(kernel)
        policy = PerspectivePolicy(framework)
        ctx = proc.cgroup.cg_id
        # Memoize the no-view state: everything speculative blocks.
        assert policy._views_for(ctx) == (None, None)
        assert not policy.check_load(query(context_id=ctx)).allow

        isv = isv_for(kernel, ctx, ["sys_read"])
        framework.install_isv(isv)
        memo_isv, memo_pages = policy._views_for(ctx)
        assert memo_isv is isv, "epoch bump must invalidate the memo"
        assert memo_pages is framework.isv_pages_for(ctx)

    def test_replacement_does_not_serve_stale_view(self, kernel, proc):
        framework = Perspective(kernel)
        policy = PerspectivePolicy(framework)
        ctx = proc.cgroup.cg_id
        old = isv_for(kernel, ctx, ["sys_read", "sys_write"])
        framework.install_isv(old)
        assert policy._views_for(ctx)[0] is old

        new = isv_for(kernel, ctx, ["sys_read"])
        framework.install_isv(new)
        assert policy._views_for(ctx)[0] is new
        assert policy._view_epoch == framework.view_epoch

    def test_shrink_takes_effect_on_next_load(self, kernel, proc):
        framework = Perspective(kernel)
        policy = PerspectivePolicy(framework, enforce_dsv=False)
        ctx = proc.cgroup.cg_id
        framework.install_isv(
            isv_for(kernel, ctx, ["sys_read", "sys_write"]))
        trusted_va = kernel.image.layout["sys_write"].base_va
        # Warm both the memo and the hardware ISV cache: first touch
        # conservatively blocks while the cache line refills, the retry
        # hits and is allowed.
        policy.check_load(query(context_id=ctx, inst_va=trusted_va))
        assert policy.check_load(
            query(context_id=ctx, inst_va=trusted_va)).allow

        framework.shrink_isv(ctx, {"sys_write"})
        assert "sys_write" not in framework.isv_for(ctx).functions
        # The very next speculative load from the withdrawn function
        # must block -- through the fresh memo and invalidated cache.
        decision = policy.check_load(
            query(context_id=ctx, inst_va=trusted_va))
        assert not decision.allow
        retry = policy.check_load(
            query(context_id=ctx, inst_va=trusted_va))
        assert not retry.allow, "refilled cache must reflect the shrink"

    def test_memo_is_per_context(self, kernel):
        procs = [kernel.create_process(f"p{i}") for i in range(2)]
        framework = Perspective(kernel)
        policy = PerspectivePolicy(framework)
        ctx0, ctx1 = (p.cgroup.cg_id for p in procs)
        framework.install_isv(isv_for(kernel, ctx0, ["sys_read"]))
        assert policy._views_for(ctx0)[0] is not None
        assert policy._views_for(ctx1) == (None, None)
        # Installing for ctx1 must not disturb ctx0's resolution.
        framework.install_isv(isv_for(kernel, ctx1, ["sys_write"]))
        assert policy._views_for(ctx0)[0].functions == \
            frozenset({"sys_read"})
        assert policy._views_for(ctx1)[0].functions == \
            frozenset({"sys_write"})


class TestDecodeInvalidationThroughPipeline:
    """The pipeline consumes ``Function.decoded()`` tables; bodies are
    version-tracked (``BodyList``), so both explicit
    ``invalidate_decode()`` calls and direct in-place mutation bump the
    staleness key and force a re-decode (the decode-table contract)."""

    def _build(self, imm: int) -> tuple[Pipeline, Function]:
        layout = CodeLayout(0x40000, stride_ops=64)
        fn = layout.add(Function("f", [
            li("r1", imm),
            alu("r2", AluOp.ADD, "r1", imm=1),
            kret(),
        ]))
        return Pipeline(layout, MainMemory()), fn

    def _run(self, pipeline: Pipeline, fn: Function) -> int:
        result = pipeline.run(fn, ExecutionContext(1, initial_regs={}))
        return result.regs["r2"]

    def test_mutation_with_invalidate_changes_execution(self):
        pipeline, fn = self._build(10)
        assert self._run(pipeline, fn) == 11
        fn.body[0] = li("r1", 40)  # same length: staleness key blind
        fn.invalidate_decode()
        assert self._run(pipeline, fn) == 41

    def test_mutation_without_invalidate_refreshes_tables(self):
        # This used to document the contract's sharp edge: a same-length
        # in-place mutation was invisible to the (len(body), base_va)
        # staleness key, so the pipeline kept consuming stale decode
        # tables until someone invalidated.  Bodies are now wrapped in a
        # version-tracked ``BodyList``, so the mutation itself bumps the
        # staleness key and the next ``decoded()`` re-decodes -- the old
        # silent-staleness hazard is gone.
        pipeline, fn = self._build(10)
        self._run(pipeline, fn)
        stale = fn.decoded()
        assert stale.reads[1] == ("r1",)
        fn.body[1] = alu("r2", AluOp.ADD, "r1", "r3")  # now reads r3 too
        fresh = fn.decoded()
        assert fresh is not stale
        assert fresh.reads[1] == ("r1", "r3"), \
            "in-place mutation must be visible without invalidate_decode()"
        # An explicit invalidate_decode() still works and stays cheap.
        fn.invalidate_decode()
        assert fn.decoded().reads[1] == ("r1", "r3")
