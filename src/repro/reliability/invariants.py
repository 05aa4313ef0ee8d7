"""Fail-closed invariant checks under injected faults.

The security argument of the paper is conservative by construction: a
speculation check that cannot complete (cache miss, aborted DSVMT walk,
lost ownership event, failed allocation) must *fence*, never permit.  This
module turns that argument into an executable matrix: every scenario in
:data:`FAULT_SWEEP` arms the fault plane a different way, and the
:class:`InvariantChecker` re-runs the attack PoCs and a workload bout
under it, asserting that

* every active/passive PoC stays **blocked** under ``perspective`` and
  ``perspective++`` (an injected out-of-memory abort counts as blocked --
  the run died before any transient leak, which is the fail-closed
  outcome);
* the DSV plane never exposes a **stale owner**: after a faulted workload
  bout, every frame the registry claims is cross-checked against the
  buddy allocator's ground truth, and the per-context views/DSVMTs must
  agree with the registry exactly (:func:`audit_dsv_fail_closed`);
* dropped trace records may only **shrink** a dynamic ISV, never grow it
  (a smaller view fences more -- a perf regression, not a hole);
* fuzzer stalls may only **lower** campaign findings, never raise them;
* every armed fault point actually **fired** during the scenario, so a
  renamed or dead hook cannot silently turn the sweep into a no-op.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from repro.obs.instruments import instrumented
from repro.reliability.faultplane import FaultPlane, FaultSpec

#: Column order of the invariant matrix.
CHECKS = ("attacks-blocked", "no-stale-owner", "isv-monotone",
          "fuzzer-monotone", "secret-intact", "admission-closed",
          "fault-activity")

#: Default PoC set: every registered attack.
DEFAULT_ATTACKS = ("spectre-v1-active", "spectre-v2-active",
                   "spectre-v2-passive", "retbleed-passive",
                   "spectre-rsb-passive", "bhi-passive",
                   "spectre-v2-vs-eibrs", "ebpf-injection")

#: Schemes that must stay leak-free under every fault spec.
DEFAULT_SCHEMES = ("perspective", "perspective++")


@dataclass(frozen=True)
class FaultScenario:
    """A named fault-plane configuration for one sweep row."""

    name: str
    specs: tuple[FaultSpec, ...]

    def plane(self, seed: int = 0) -> FaultPlane:
        """A fresh plane for one run; per-run planes keep runs
        independent and their fire counts attributable."""
        return FaultPlane(seed=seed, specs=self.specs)

    def arms(self, point: str) -> bool:
        return any(spec.point == point for spec in self.specs)


#: The standard sweep: each fault point alone (at a rate high enough to
#: matter), then everything at once at degraded-but-survivable rates.
FAULT_SWEEP: tuple[FaultScenario, ...] = (
    FaultScenario("isv-forced-miss",
                  (FaultSpec("isv-cache-forced-miss", 1.0),)),
    FaultScenario("dsv-forced-miss",
                  (FaultSpec("dsv-cache-forced-miss", 1.0),)),
    FaultScenario("view-cache-stale",
                  (FaultSpec("isv-cache-stale", 0.5),
                   FaultSpec("dsv-cache-stale", 0.5))),
    FaultScenario("dsvmt-walk-fail",
                  (FaultSpec("dsvmt-walk-fail", 0.5),)),
    FaultScenario("buddy-alloc-fail",
                  (FaultSpec("buddy-alloc-fail", 0.01),)),
    FaultScenario("dsv-assign-drop",
                  (FaultSpec("dsv-assign-drop", 0.25),)),
    FaultScenario("trace-drop",
                  (FaultSpec("trace-drop", 0.3),)),
    FaultScenario("fuzzer-stall",
                  (FaultSpec("fuzzer-stall", 0.3),)),
    FaultScenario("combined-degraded",
                  (FaultSpec("isv-cache-forced-miss", 0.1),
                   FaultSpec("dsv-cache-forced-miss", 0.1),
                   FaultSpec("isv-cache-stale", 0.1),
                   FaultSpec("dsv-cache-stale", 0.1),
                   FaultSpec("dsvmt-walk-fail", 0.2),
                   FaultSpec("buddy-alloc-fail", 0.002),
                   FaultSpec("dsv-assign-drop", 0.1),
                   FaultSpec("trace-drop", 0.1),
                   FaultSpec("fuzzer-stall", 0.1))),
    # Serve-plane fault points (appended -- earlier rows keep their
    # positions for existing index-based consumers).
    FaultScenario("serve-ibpb-drop",
                  (FaultSpec("serve-ibpb-drop", 1.0),)),
    FaultScenario("view-refill-fault",
                  (FaultSpec("view-refill-fault", 0.5),)),
    FaultScenario("admission-corrupt",
                  (FaultSpec("admission-queue-corrupt", 0.5),)),
)


@dataclass(frozen=True)
class InvariantVerdict:
    """One cell of the matrix: a check's outcome under a scenario."""

    scenario: str
    check: str
    passed: bool
    detail: str = ""


@dataclass
class InvariantMatrix:
    """All verdicts of a sweep, renderable as the bench's pass matrix."""

    verdicts: list[InvariantVerdict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def scenarios(self) -> list[str]:
        seen: list[str] = []
        for v in self.verdicts:
            if v.scenario not in seen:
                seen.append(v.scenario)
        return seen

    def cell(self, scenario: str, check: str) -> InvariantVerdict | None:
        for v in self.verdicts:
            if v.scenario == scenario and v.check == check:
                return v
        return None

    def failures(self) -> list[InvariantVerdict]:
        return [v for v in self.verdicts if not v.passed]

    def render(self) -> str:
        out = io.StringIO()
        out.write("Fail-closed invariant matrix under fault injection\n")
        out.write("-" * 78 + "\n")
        out.write(f"{'scenario':<20}"
                  + "".join(f"{c:>17}" for c in CHECKS) + "\n")
        for scenario in self.scenarios():
            cells = []
            for check in CHECKS:
                v = self.cell(scenario, check)
                cells.append("-" if v is None
                             else ("pass" if v.passed else "FAIL"))
            out.write(f"{scenario:<20}"
                      + "".join(f"{c:>17}" for c in cells) + "\n")
        failures = self.failures()
        if failures:
            out.write("\nviolations:\n")
            for v in failures:
                out.write(f"  [{v.scenario} / {v.check}] {v.detail}\n")
        else:
            out.write("\nall invariants hold: faults fence, they never "
                      "permit.\n")
        return out.getvalue()


def audit_dsv_fail_closed(kernel, framework) -> list[str]:
    """Cross-check the DSV plane against allocator ground truth.

    Returns human-readable problem strings (empty means the invariant
    holds).  Three things must be true no matter what faults were
    injected:

    * every (frame -> owner) record in the registry matches the buddy
      allocator's live ownership -- a mismatch is a *stale owner*, the
      one state fault injection must never produce (it would let a
      context speculate on a reallocated frame);
    * every frame in a context's :class:`DataSpeculationView` has a
      matching registry record (views may lag behind reality -- dropped
      assigns -- but never lead it);
    * each context's DSVMT leaf set equals its view's frame set (the
      hardware path and the OS path answer identically).
    """
    problems: list[str] = []
    buddy_owner: dict[int, int | None] = {}
    for head, order, owner in kernel.buddy.allocations():
        for frame in range(head, head + (1 << order)):
            buddy_owner[frame] = owner
    registry = framework.dsv_registry
    owners = registry.frame_owners()
    for frame, owner in sorted(owners.items()):
        actual = buddy_owner.get(frame)
        if actual != owner:
            problems.append(f"stale owner: frame {frame} registry says "
                            f"context {owner}, allocator says {actual}")
    for ctx in registry.contexts():
        view_frames = set(registry.view_for(ctx).frames)
        dsvmt_frames = set(registry.dsvmt_for(ctx).frames())
        for frame in sorted(view_frames):
            if owners.get(frame) != ctx:
                problems.append(f"view of context {ctx} holds frame "
                                f"{frame} without a matching owner record")
        if view_frames != dsvmt_frames:
            extra = sorted(dsvmt_frames - view_frames)
            missing = sorted(view_frames - dsvmt_frames)
            problems.append(f"DSVMT/view divergence for context {ctx}: "
                            f"dsvmt-only={extra[:4]} view-only="
                            f"{missing[:4]}")
    return problems


class InvariantChecker:
    """Run the fail-closed checks for fault scenarios."""

    def __init__(self,
                 attacks: tuple[str, ...] = DEFAULT_ATTACKS,
                 schemes: tuple[str, ...] = DEFAULT_SCHEMES,
                 seed: int = 0) -> None:
        self.attacks = attacks
        self.schemes = schemes
        self.seed = seed

    # -- individual checks -------------------------------------------------

    def _check_attacks_blocked(
            self, scenario: FaultScenario) -> tuple[InvariantVerdict, int]:
        from repro.attacks.harness import run_attack
        from repro.kernel.buddy import OutOfMemory
        fires = 0
        leaks: list[str] = []
        aborted = 0
        for attack in self.attacks:
            for scheme in self.schemes:
                plane = scenario.plane(self.seed)
                with instrumented(faults=plane):
                    try:
                        result = run_attack(attack, scheme)
                        if result.success:
                            leaks.append(
                                f"{attack} under {scheme} leaked "
                                f"{result.leaked!r}")
                    except OutOfMemory:
                        # The run died on an injected allocation failure
                        # before anything could leak: fail-closed.
                        aborted += 1
                fires += plane.total_fires()
        detail = (f"{len(self.attacks) * len(self.schemes)} PoC runs, "
                  f"{aborted} aborted fail-closed")
        if leaks:
            detail = "; ".join(leaks)
        return (InvariantVerdict(scenario.name, "attacks-blocked",
                                 not leaks, detail), fires)

    def _check_no_stale_owner(
            self, scenario: FaultScenario) -> tuple[InvariantVerdict, int]:
        from repro.attacks.harness import non_driver_isv_functions
        from repro.core.framework import Perspective
        from repro.core.views import InstructionSpeculationView
        from repro.defenses.perspective import PerspectivePolicy
        from repro.eval.envs import drive_workload
        from repro.kernel.buddy import OutOfMemory
        from repro.kernel.image import shared_image
        from repro.kernel.kernel import MiniKernel
        plane = scenario.plane(self.seed)
        note = "workload completed"
        with instrumented(faults=plane):
            # Framework attaches *before* the process exists so ownership
            # hooks (and the dsv-assign-drop fault point) see every
            # allocation the workload makes.
            kernel = MiniKernel(image=shared_image())
            framework = Perspective(kernel)
            try:
                proc = kernel.create_process("lebench")
                framework.install_isv(InstructionSpeculationView(
                    proc.cgroup.cg_id,
                    non_driver_isv_functions(kernel.image),
                    kernel.layout, source="invariant"))
                kernel.pipeline.set_policy(PerspectivePolicy(framework))
                drive_workload(kernel, proc, "lebench")
            except OutOfMemory as exc:
                note = f"workload aborted fail-closed ({exc})"
        problems = audit_dsv_fail_closed(kernel, framework)
        dropped = framework.dsv_registry.dropped_assign_events
        detail = (f"{note}; {dropped} assign events dropped; "
                  f"{len(problems)} audit problems")
        if problems:
            detail += ": " + "; ".join(problems[:3])
        return (InvariantVerdict(scenario.name, "no-stale-owner",
                                 not problems, detail),
                plane.total_fires())

    def _check_isv_monotone(
            self, scenario: FaultScenario) -> tuple[InvariantVerdict, int]:
        from repro.eval.envs import build_isv_for
        from repro.kernel.buddy import OutOfMemory
        from repro.kernel.image import shared_image
        from repro.kernel.kernel import MiniKernel

        def dynamic_isv_functions(plane: FaultPlane | None):
            def build():
                kernel = MiniKernel(image=shared_image())
                proc = kernel.create_process("lebench")
                return frozenset(
                    build_isv_for(kernel, proc, "lebench",
                                  "dynamic").functions)
            if plane is None:
                return build()
            with instrumented(faults=plane):
                return build()

        baseline = dynamic_isv_functions(None)
        plane = scenario.plane(self.seed)
        try:
            faulted = dynamic_isv_functions(plane)
        except OutOfMemory as exc:
            return (InvariantVerdict(
                scenario.name, "isv-monotone", True,
                f"profiling aborted fail-closed ({exc})"),
                plane.total_fires())
        grew = faulted - baseline
        detail = (f"baseline {len(baseline)} fns, faulted {len(faulted)} "
                  f"fns ({len(baseline) - len(faulted)} lost to drops)")
        if grew:
            detail = (f"faulted ISV GREW by {len(grew)} functions: "
                      f"{sorted(grew)[:4]}")
        return (InvariantVerdict(scenario.name, "isv-monotone",
                                 not grew, detail), plane.total_fires())

    def _check_fuzzer_monotone(
            self, scenario: FaultScenario) -> tuple[InvariantVerdict, int]:
        from repro.kernel.image import shared_image
        from repro.scanner.fuzzer import run_campaign
        image = shared_image()
        clean = run_campaign(image, hours=5.0, seed=self.seed + 7)
        plane = scenario.plane(self.seed)
        with instrumented(faults=plane):
            faulted = run_campaign(image, hours=5.0, seed=self.seed + 7)
        ok = faulted.gadgets_found <= clean.gadgets_found
        detail = (f"clean {clean.gadgets_found} gadgets, stalled "
                  f"{faulted.gadgets_found} "
                  f"({faulted.stalled_rounds} stalled rounds)")
        return (InvariantVerdict(scenario.name, "fuzzer-monotone", ok,
                                 detail), plane.total_fires())

    def _check_secret_intact(
            self, scenario: FaultScenario) -> tuple[InvariantVerdict, int]:
        """The conformance oracle under faults: a dropped tenant-switch
        IBPB or a faulted view-cache refill may cost cycles, but the
        *architectural* digest -- syscall outcomes, memory, allocator
        state, and above all the planted secret -- must match the
        fault-free run byte for byte, and the secret must never move."""
        from repro.serve.conformance import (
            arch_divergence,
            generate_trace,
            run_trace_under,
        )
        fires = 0
        problems: list[str] = []
        trace = generate_trace(self.seed, steps=8, tenants=2)
        for scheme in self.schemes:
            baseline = run_trace_under(scheme, trace, tenants=2)
            plane = scenario.plane(self.seed)
            with instrumented(faults=plane):
                faulted = run_trace_under(scheme, trace, tenants=2)
            fires += plane.total_fires()
            if not faulted["secret_intact"]:
                problems.append(f"{scheme}: planted secret corrupted "
                                "under faults")
            diverged = arch_divergence(baseline, faulted)
            if diverged:
                problems.append(f"{scheme}: architectural divergence "
                                f"under faults: {diverged}")
        detail = (f"{len(self.schemes)} schemes, trace of {len(trace)} "
                  "steps, architectural digests identical")
        if problems:
            detail = "; ".join(problems)
        return (InvariantVerdict(scenario.name, "secret-intact",
                                 not problems, detail), fires)

    def _check_admission_closed(
            self, scenario: FaultScenario) -> tuple[InvariantVerdict, int]:
        """A corrupted admission-queue slot is shed, never dispatched:
        the books must balance exactly (every arrival either completed
        or was shed, every corrupt slot accounted as shed, every fault
        firing accounted as a corrupt shed)."""
        from repro.serve.engine import ServeConfig, run_serve
        plane = scenario.plane(self.seed)
        config = ServeConfig(scheme="perspective", tenants=2, seed=self.seed,
                             requests_per_tenant=6)
        with instrumented(faults=plane):
            report = run_serve(config)
        fires = plane.total_fires()
        arrivals = sum(t.arrivals for t in report.tenants)
        admitted = sum(t.admitted for t in report.tenants)
        shed = sum(t.shed for t in report.tenants)
        corrupt = sum(t.corrupt_shed for t in report.tenants)
        problems: list[str] = []
        if admitted + shed != arrivals:
            problems.append(f"books don't balance: {arrivals} arrivals "
                            f"!= {admitted} admitted + {shed} shed")
        if report.completed != admitted:
            problems.append(f"admitted requests went missing: "
                            f"{admitted} admitted, "
                            f"{report.completed} completed")
        if corrupt != plane.fires.get("admission-queue-corrupt", 0):
            problems.append(
                f"corrupt sheds ({corrupt}) != fault firings "
                f"({plane.fires.get('admission-queue-corrupt', 0)}): a "
                "corrupted slot was dispatched")
        detail = (f"{arrivals} arrivals, {corrupt} corrupt slots shed, "
                  f"{report.completed} completed")
        if problems:
            detail = "; ".join(problems)
        return (InvariantVerdict(scenario.name, "admission-closed",
                                 not problems, detail), fires)

    # -- drivers -----------------------------------------------------------

    def check_scenario(self, scenario: FaultScenario
                       ) -> list[InvariantVerdict]:
        """All applicable checks for one scenario."""
        verdicts: list[InvariantVerdict] = []
        fires = 0
        v, f = self._check_attacks_blocked(scenario)
        verdicts.append(v)
        fires += f
        v, f = self._check_no_stale_owner(scenario)
        verdicts.append(v)
        fires += f
        if scenario.arms("trace-drop"):
            v, f = self._check_isv_monotone(scenario)
            verdicts.append(v)
            fires += f
        if scenario.arms("fuzzer-stall"):
            v, f = self._check_fuzzer_monotone(scenario)
            verdicts.append(v)
            fires += f
        if scenario.arms("serve-ibpb-drop") \
                or scenario.arms("view-refill-fault"):
            v, f = self._check_secret_intact(scenario)
            verdicts.append(v)
            fires += f
        if scenario.arms("admission-queue-corrupt"):
            v, f = self._check_admission_closed(scenario)
            verdicts.append(v)
            fires += f
        # A scenario whose armed points never fire proves nothing -- it
        # usually means a hook was renamed or removed.
        verdicts.append(InvariantVerdict(
            scenario.name, "fault-activity", fires > 0,
            f"{fires} injected faults across the scenario's runs"))
        return verdicts

    def run(self, scenarios: tuple[FaultScenario, ...] = FAULT_SWEEP
            ) -> InvariantMatrix:
        matrix = InvariantMatrix()
        for scenario in scenarios:
            matrix.verdicts.extend(self.check_scenario(scenario))
        return matrix
