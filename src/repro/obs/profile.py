"""Differential fence-overhead profiler + trace/flamegraph exporters.

The registry's span tracing (:mod:`repro.obs.registry`) records *self*
cycles per slash-joined span path; this module turns those flat paths
back into a tree (:class:`SpanTree`), exports it in two standard
visualization formats, and -- the main event -- *diffs* two profiles of
the same workload under different defense schemes into a per-kernel-
function / per-pipeline-phase overhead attribution table
(:class:`DiffProfile`): exactly which functions the scheme's fences cost
cycles in, and how many fences each contributed.

Exporters (both byte-reproducible under a fixed seed, because every
input number is simulated):

* **folded stacks** -- one ``seg1;seg2;... cycles`` line per tree node
  with self cycles, the format ``flamegraph.pl`` consumes;
* **Chrome trace events** -- ``B``/``E`` duration pairs over a
  deterministic DFS cursor, loadable in ``chrome://tracing`` / Perfetto
  (1 simulated cycle = 1 microsecond of trace time).

Accounting invariant the attribution table relies on: the span plane
attributes *every* driven kernel cycle somewhere (syscall trap cost on
the ``syscall/*`` node, execution on the ``fn/*`` subtree), so the
table's total added cycles equals the end-to-end cycle delta between
the two runs -- checked by :meth:`DiffProfile.attribution_error`.  Its
three inputs (span tree, fence counters, end-to-end totals) cover one
window: everything a run drives after building its environment, an
application server's setup included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Label for cycles outside every ``fn/*`` span subtree (syscall trap
#: cost, root ticks): attribution keeps them visible rather than letting
#: the table silently not add up.
OTHER_ROW = "(trap/other)"

_FENCE_BY_FN_PREFIX = "pipeline.fence.by_fn."
_FENCE_REASON_PREFIX = "pipeline.fence.reason."


# ---------------------------------------------------------------------------
# Span tree
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One node of the reconstructed span tree."""

    name: str
    self_cycles: float = 0.0
    count: int = 0
    children: dict[str, "SpanNode"] = field(default_factory=dict)

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    @property
    def inclusive_cycles(self) -> float:
        return self.self_cycles + sum(c.inclusive_cycles
                                      for c in self.children.values())


class SpanTree:
    """A registry's span paths as a rooted tree, with exporters.

    Span *names* may themselves contain slashes (``syscall/read``), so
    the tree is built per slash **segment**: the path
    ``syscall/read/fn/sys_read/phase/fence_stall`` becomes six nested
    segments.  Self cycles land on the node for the full path; interior
    segments exist purely for structure.
    """

    def __init__(self, root_name: str = "all") -> None:
        self.root = SpanNode(root_name)

    @classmethod
    def from_spans(cls, spans: dict[str, Any],
                   root_name: str = "all") -> "SpanTree":
        """Build from a snapshot's ``spans`` mapping
        (``path -> {"count": n, "cycles": c}``)."""
        tree = cls(root_name)
        for path in sorted(spans):
            stats = spans[path]
            node = tree.root
            if path:
                for segment in path.split("/"):
                    node = node.child(segment)
            node.self_cycles += float(stats["cycles"])
            node.count += int(stats["count"])
        return tree

    @classmethod
    def from_folded(cls, folded: str, root_name: str = "all") -> "SpanTree":
        """Rebuild a tree from folded-stack lines (the round-trip
        direction; counts are not represented in the folded format)."""
        tree = cls(root_name)
        for line in folded.splitlines():
            if not line.strip():
                continue
            stack, _, value = line.rpartition(" ")
            segments = stack.split(";")
            if segments and segments[0] == tree.root.name:
                segments = segments[1:]
            node = tree.root
            for segment in segments:
                node = node.child(segment)
            node.self_cycles += float(value)
        return tree

    # -- traversal -------------------------------------------------------

    def walk(self) -> Iterator[tuple[tuple[str, ...], SpanNode]]:
        """(segments-from-root, node) pairs in deterministic DFS order."""
        def visit(prefix: tuple[str, ...], node: SpanNode):
            yield prefix, node
            for name in sorted(node.children):
                yield from visit(prefix + (name,), node.children[name])
        yield from visit((self.root.name,), self.root)

    # -- exporters -------------------------------------------------------

    def to_folded(self) -> str:
        """flamegraph.pl-compatible folded stacks, one line per node with
        self cycles, in deterministic DFS order."""
        lines = []
        for segments, node in self.walk():
            if node.self_cycles > 0.0:
                lines.append(f"{';'.join(segments)} "
                             f"{_fold_num(node.self_cycles)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (``B``/``E`` duration pairs).

        A deterministic DFS cursor lays spans on one track: a node opens
        at the cursor, children run sequentially, and the node closes at
        open + inclusive cycles -- so events are properly nested and
        timestamps never go backwards.  1 cycle = 1 us of trace time.
        """
        events: list[dict[str, Any]] = []

        def visit(node: SpanNode, start: float) -> float:
            end = start + node.inclusive_cycles
            events.append({"name": node.name, "ph": "B", "ts": start,
                           "pid": 1, "tid": 1, "cat": "span",
                           "args": {"count": node.count,
                                    "self_cycles": node.self_cycles}})
            cursor = start
            for name in sorted(node.children):
                cursor = visit(node.children[name], cursor)
            events.append({"name": node.name, "ph": "E", "ts": end,
                           "pid": 1, "tid": 1, "cat": "span"})
            return end

        visit(self.root, 0.0)
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"clock": "simulated-cycles",
                              "root": self.root.name}}

    def to_chrome_trace_json(self) -> str:
        """Canonical (sorted-key) JSON rendering of the Chrome trace."""
        return json.dumps(self.to_chrome_trace(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    # -- attribution -----------------------------------------------------

    def cycles_by_fn(self) -> dict[str, float]:
        """Inclusive cycles per kernel function.

        Each node's *self* cycles are attributed to the innermost
        ``fn/<name>`` ancestor on its path (so a function's phases and
        nested runs roll up to it); cycles under no ``fn`` segment --
        syscall trap cost, root ticks -- land on :data:`OTHER_ROW`.
        """
        out: dict[str, float] = {}
        for segments, node in self.walk():
            if node.self_cycles == 0.0:
                continue
            fn = OTHER_ROW
            for i in range(len(segments) - 1, 0, -1):
                if segments[i - 1] == "fn":
                    fn = segments[i]
                    break
            out[fn] = out.get(fn, 0.0) + node.self_cycles
        return out

    def cycles_by_phase(self) -> dict[str, float]:
        """Self cycles per pipeline phase (``phase/<name>`` leaves); all
        other execution cycles land on ``compute``."""
        out: dict[str, float] = {}
        for segments, node in self.walk():
            if node.self_cycles == 0.0:
                continue
            if len(segments) >= 2 and segments[-2] == "phase":
                key = segments[-1]
            elif segments and segments[-1] == "phase":
                key = "phase"
            else:
                key = "compute"
            out[key] = out.get(key, 0.0) + node.self_cycles
        return out


def _fold_num(value: float) -> str:
    """Folded-stack sample value: integral cycles render as integers
    (what flamegraph.pl expects); fractional cycles keep their repr."""
    if value.is_integer():
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Profile runs
# ---------------------------------------------------------------------------


@dataclass
class ProfileRun:
    """One workload x scheme measurement with observation armed: one
    ``obs-matrix`` cell (:func:`repro.eval.runner.env_cell`)."""

    workload: str
    scheme: str
    #: The cell's metrics snapshot.
    snapshot: dict[str, Any]
    #: End-to-end totals of the driven window.
    kernel_cycles: float
    syscalls: int
    committed_ops: int

    @property
    def label(self) -> str:
        return f"{self.workload}.{self.scheme}"

    def tree(self) -> SpanTree:
        """The driven window's spans: the cell's ``env/<label>`` subtree
        rooted at the label, without its ``setup`` node.  Setup differs
        between schemes by design (Perspective profiles and installs
        views) and would pollute the differential attribution; it runs
        before the scheme is armed, so it adds no fences to the
        counters either."""
        prefix = f"env/{self.label}/"
        return SpanTree.from_spans(
            {path[len(prefix):]: stats
             for path, stats in self.snapshot["spans"].items()
             if path.startswith(prefix)
             and path[len(prefix):].split("/", 1)[0] != "setup"},
            root_name=self.label)

    def fences_by_fn(self) -> dict[str, float]:
        counters = self.snapshot["counters"]
        return {name[len(_FENCE_BY_FN_PREFIX):]: counters[name]
                for name in counters
                if name.startswith(_FENCE_BY_FN_PREFIX)}

    def fences_by_reason(self) -> dict[str, float]:
        counters = self.snapshot["counters"]
        return {name[len(_FENCE_REASON_PREFIX):]: counters[name]
                for name in counters
                if name.startswith(_FENCE_REASON_PREFIX)}

    @property
    def total_fences(self) -> float:
        return sum(self.fences_by_reason().values())

    @property
    def fences_per_kiloinstruction(self) -> float:
        if self.committed_ops == 0:
            return 0.0
        return 1000.0 * self.total_fences / self.committed_ops


# ---------------------------------------------------------------------------
# Differential attribution
# ---------------------------------------------------------------------------


@dataclass
class FnRow:
    """One attribution-table row: what the scheme cost in one function."""

    name: str
    base_cycles: float
    scheme_cycles: float
    base_fences: float
    scheme_fences: float

    @property
    def added_cycles(self) -> float:
        return self.scheme_cycles - self.base_cycles

    @property
    def added_fences(self) -> float:
        return self.scheme_fences - self.base_fences


class DiffProfile:
    """The diff of two :class:`ProfileRun` s of the same workload."""

    def __init__(self, base: ProfileRun, scheme: ProfileRun) -> None:
        if base.workload != scheme.workload:
            raise ValueError(
                f"differential profile needs one workload, got "
                f"{base.workload!r} vs {scheme.workload!r}")
        self.base = base
        self.scheme = scheme

    # -- tables ----------------------------------------------------------

    def fn_table(self) -> list[FnRow]:
        """Per-kernel-function rows, sorted by added cycles (descending,
        then name); every function either run touched appears."""
        base_cycles = self.base.tree().cycles_by_fn()
        scheme_cycles = self.scheme.tree().cycles_by_fn()
        base_fences = self.base.fences_by_fn()
        scheme_fences = self.scheme.fences_by_fn()
        names = set(base_cycles) | set(scheme_cycles) \
            | set(base_fences) | set(scheme_fences)
        rows = [FnRow(name=name,
                      base_cycles=base_cycles.get(name, 0.0),
                      scheme_cycles=scheme_cycles.get(name, 0.0),
                      base_fences=base_fences.get(name, 0.0),
                      scheme_fences=scheme_fences.get(name, 0.0))
                for name in names]
        rows.sort(key=lambda r: (-r.added_cycles, r.name))
        return rows

    def phase_table(self) -> list[FnRow]:
        """Per-pipeline-phase rows (fence_stall / fetch_stall / compute),
        same shape as :meth:`fn_table` minus the fence join."""
        base = self.base.tree().cycles_by_phase()
        scheme = self.scheme.tree().cycles_by_phase()
        rows = [FnRow(name=name, base_cycles=base.get(name, 0.0),
                      scheme_cycles=scheme.get(name, 0.0),
                      base_fences=0.0, scheme_fences=0.0)
                for name in set(base) | set(scheme)]
        rows.sort(key=lambda r: (-r.added_cycles, r.name))
        return rows

    def reason_diff(self) -> dict[str, float]:
        """Added fences per fence reason (scheme minus base)."""
        base = self.base.fences_by_reason()
        scheme = self.scheme.fences_by_reason()
        return {reason: scheme.get(reason, 0.0) - base.get(reason, 0.0)
                for reason in sorted(set(base) | set(scheme))}

    # -- totals ----------------------------------------------------------

    @property
    def end_to_end_delta(self) -> float:
        """The ground truth: driver-measured kernel-cycle difference."""
        return self.scheme.kernel_cycles - self.base.kernel_cycles

    @property
    def attributed_delta(self) -> float:
        """What the table accounts for: sum of per-row added cycles."""
        return sum(row.added_cycles for row in self.fn_table())

    @property
    def attribution_error(self) -> float:
        """|attributed - end-to-end| as a fraction of end-to-end.

        The acceptance bar is 1%: the span plane must attribute (nearly)
        every added cycle to a function row.
        """
        delta = self.end_to_end_delta
        if delta == 0.0:
            return abs(self.attributed_delta)
        return abs(self.attributed_delta - delta) / abs(delta)

    @property
    def fences_per_kiloinstruction_delta(self) -> float:
        return (self.scheme.fences_per_kiloinstruction
                - self.base.fences_per_kiloinstruction)

    # -- rendering -------------------------------------------------------

    def render(self, top: int = 0) -> str:
        """The overhead-attribution report as aligned text."""
        base, scheme = self.base, self.scheme
        head = (f"differential profile: {base.workload}  "
                f"[{base.scheme} -> {scheme.scheme}]")
        lines = [head, "=" * len(head)]
        lines.append(
            f"end-to-end: {base.kernel_cycles:.1f} -> "
            f"{scheme.kernel_cycles:.1f} cycles "
            f"(+{self.end_to_end_delta:.1f}, "
            f"{_pct(scheme.kernel_cycles, base.kernel_cycles):+.2f}%) "
            f"over {base.syscalls} syscalls")
        lines.append(
            f"fences: {base.total_fences:.0f} -> "
            f"{scheme.total_fences:.0f}  "
            f"({base.fences_per_kiloinstruction:.3f} -> "
            f"{scheme.fences_per_kiloinstruction:.3f} per kinst, "
            f"delta {self.fences_per_kiloinstruction_delta:+.3f})")
        lines.append("")
        lines.append(f"{'kernel function':<26} {'base cyc':>12} "
                     f"{'scheme cyc':>12} {'added cyc':>12} "
                     f"{'added fences':>13}")
        lines.append("-" * 78)
        rows = self.fn_table()
        shown = rows[:top] if top else rows
        for row in shown:
            lines.append(f"{row.name:<26} {row.base_cycles:>12.1f} "
                         f"{row.scheme_cycles:>12.1f} "
                         f"{row.added_cycles:>+12.1f} "
                         f"{row.added_fences:>+13.0f}")
        if len(shown) < len(rows):
            rest = rows[len(shown):]
            lines.append(f"{'... ' + str(len(rest)) + ' more':<26} "
                         f"{sum(r.base_cycles for r in rest):>12.1f} "
                         f"{sum(r.scheme_cycles for r in rest):>12.1f} "
                         f"{sum(r.added_cycles for r in rest):>+12.1f} "
                         f"{sum(r.added_fences for r in rest):>+13.0f}")
        lines.append("-" * 78)
        lines.append(f"{'total (attributed)':<26} "
                     f"{sum(r.base_cycles for r in rows):>12.1f} "
                     f"{sum(r.scheme_cycles for r in rows):>12.1f} "
                     f"{self.attributed_delta:>+12.1f} "
                     f"{sum(r.added_fences for r in rows):>+13.0f}")
        lines.append(f"attribution error vs end-to-end: "
                     f"{100.0 * self.attribution_error:.3f}%")
        lines.append("")
        lines.append("pipeline phases:")
        for row in self.phase_table():
            lines.append(f"  {row.name:<24} {row.base_cycles:>12.1f} "
                         f"{row.scheme_cycles:>12.1f} "
                         f"{row.added_cycles:>+12.1f}")
        reasons = {k: v for k, v in self.reason_diff().items() if v}
        if reasons:
            lines.append("added fences by reason:")
            for reason in sorted(reasons):
                lines.append(f"  {reason:<24} {reasons[reason]:>+12.0f}")
        return "\n".join(lines) + "\n"


def diff_workload(workload: str, base_scheme: str, scheme: str,
                  requests: int | None = None) -> DiffProfile:
    """Profile one workload under two schemes and diff the runs.

    Each run is one cell of the ``obs-matrix`` grid, executed in this
    process with the result cache off; ``requests`` (served per
    application run) defaults to the grid's.
    """
    from repro.exec.engine import EngineConfig, ExperimentEngine
    params: dict[str, Any] = {"workloads": [workload],
                              "schemes": [base_scheme, scheme]}
    if requests is not None:
        params["requests"] = requests
    _, payloads, _ = ExperimentEngine(
        EngineConfig(use_cache=False)).run_cells("obs-matrix", params)
    return DiffProfile(*(
        ProfileRun(workload=workload, scheme=name,
                   snapshot=payloads[(workload, name)]["metrics"],
                   **payloads[(workload, name)]["driven"])
        for name in (base_scheme, scheme)))


def _pct(new: float, old: float) -> float:
    return 100.0 * (new / old - 1.0) if old else 0.0
