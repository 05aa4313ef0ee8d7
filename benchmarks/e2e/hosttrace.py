"""Host-time layer tracer for the end-to-end benchmark.

:func:`install` wraps, from outside, the public functions and methods of
every ``repro`` module, so each host second is charged to the layer whose
code is running.  Nothing inside ``src/`` knows about it.

Accounting is by time slices.  The tracer keeps one *current node* in a
tree of layer paths (``bench;workloads;kernel;cpu.pipeline``).  A call
that crosses into another layer charges the slice since the last clock
read to the current node, moves to the child node for the callee's layer,
and on return charges the callee's slice and moves back.  A call that
stays inside its caller's layer passes straight through.  Every host
second between two clock reads lands on exactly one node, so the self
times of a tree add up to its root's wall time; memory is one node per
distinct layer path, however long the run.

Two roots split the run: ``setup`` (image build, boot, warm-up, anything
between reps) and ``rep`` (the timed reps).  The harness switches between
them with :meth:`Tracer.enter`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import types
from time import perf_counter
from typing import Any, Callable

#: The layers, in the order reports list them.  ``bench`` is the harness
#: itself plus every ``repro`` module that is not a layer of its own
#: (``repro.eval``'s environment glue, for one).
LAYERS = ("bench", "serve", "workloads", "kernel", "cpu.pipeline",
          "cpu.blockcache", "defenses", "core", "cpu.cache", "cpu.memsys",
          "cpu.branch", "analysis", "scanner", "obs", "reliability")

#: The one string object per layer: wrappers compare layers with ``is``.
_BY_NAME = {layer: layer for layer in LAYERS}

#: Module prefix -> layer (longest prefix wins).  ``repro.cpu.isa`` (code
#: layout and decode tables) is deliberately absent: its lookups run on
#: behalf of whichever layer calls them and are charged there -- the ISV
#: check's VA-to-function resolution is ``core`` work, not the pipeline's.
_MODULE_LAYERS = {
    "repro.serve": "serve",
    "repro.workloads": "workloads",
    "repro.kernel": "kernel",
    "repro.cpu.pipeline": "cpu.pipeline",
    "repro.cpu.blockcache": "cpu.blockcache",
    "repro.cpu.cache": "cpu.cache",
    "repro.cpu.memsys": "cpu.memsys",
    "repro.cpu.branch": "cpu.branch",
    "repro.defenses": "defenses",
    "repro.core": "core",
    "repro.analysis": "analysis",
    "repro.scanner": "scanner",
    "repro.obs": "obs",
    "repro.reliability": "reliability",
}

#: Classes whose layer is not their module's.  ``SpeculationPolicy`` is
#: the defense-scheme interface; it only lives in the pipeline module.
_CLASS_LAYERS = {("repro.cpu.pipeline", "SpeculationPolicy"): "defenses"}

#: Per-op spans kept for the Chrome trace (the aggregate tree is unbounded
#: in run length; this list is not allowed to be).
MAX_OP_SPANS = 2000


def layer_of(module: str) -> str | None:
    """The layer a ``repro`` module belongs to, or ``None``."""
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        layer = _MODULE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return _BY_NAME[layer]
    return None


class Node:
    """One layer path: self seconds and boundary crossings into it."""

    __slots__ = ("layer", "kids", "self_s", "calls")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.kids: dict[str, Node] = {}
        self.self_s = 0.0
        self.calls = 0

    def child(self, layer: str) -> "Node":
        node = self.kids.get(layer)
        if node is None:
            node = self.kids[layer] = Node(layer)
        return node

    def walk(self, prefix: tuple[str, ...] = ()):
        """(path, node) pairs in deterministic depth-first order."""
        path = prefix + (self.layer,)
        yield path, self
        for layer in sorted(self.kids):
            yield from self.kids[layer].walk(path)

    def total_s(self) -> float:
        return sum(node.self_s for _, node in self.walk())


class Tracer:
    """The time-slice accumulator the installed wrappers charge."""

    def __init__(self) -> None:
        self.roots = {"setup": Node(LAYERS[0]), "rep": Node(LAYERS[0])}
        self.phase = "setup"
        self.cur = self.roots["setup"]
        self.origin = self.last = perf_counter()
        #: (phase, key) -> inclusive seconds of specially timed calls.
        self.inclusive: dict[tuple[str, str], float] = {}
        #: (label, start offset s, duration s) of the first rep-phase ops.
        self.op_spans: list[tuple[str, float, float]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def enter(self, phase: str) -> None:
        """Switch to the ``phase`` root; harness code only, never from
        inside a traced call."""
        now = perf_counter()
        self.cur.self_s += now - self.last
        self.last = now
        self.phase = phase
        self.cur = self.roots[phase]
        self.cur.calls += 1

    # -- reports --------------------------------------------------------

    def layer_totals(self, phase: str = "rep") -> dict[str, dict[str, float]]:
        """Per layer: summed self seconds and boundary crossings."""
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for _, node in self.roots[phase].walk():
            row = out[node.layer]
            row["self_s"] += node.self_s
            row["calls"] += node.calls
        return out

    def folded(self) -> str:
        """flamegraph.pl folded stacks, ``phase;layer;...`` with integer
        microseconds of self time."""
        lines = []
        for phase in ("setup", "rep"):
            for path, node in self.roots[phase].walk():
                micros = round(node.self_s * 1e6)
                if micros:
                    lines.append(f"{phase};{';'.join(path)} {micros}")
        return "\n".join(lines) + "\n"

    def chrome_trace(self, root_name: str) -> dict[str, Any]:
        """The folded tree as a flame chart (track 1, via the repo's own
        span exporter) plus the recorded op spans (track 2)."""
        from repro.obs.profile import SpanTree

        trace = SpanTree.from_folded(self.folded(), root_name=root_name) \
            .to_chrome_trace()
        trace["otherData"]["clock"] = "host-microseconds"
        for label, start, dur in self.op_spans:
            trace["traceEvents"].append({
                "name": "op", "ph": "X", "ts": start * 1e6, "dur": dur * 1e6,
                "pid": 1, "tid": 2, "cat": "op", "args": {"op": label}})
        return trace

    def write(self, out_dir, stem: str) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.folded").write_text(self.folded())
        (out_dir / f"{stem}.trace.json").write_text(
            json.dumps(self.chrome_trace(stem), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _boundary(tr: Tracer, fn: Callable, layer: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        cur = tr.cur
        if cur.layer is layer:
            return fn(*args, **kwargs)
        node = cur.kids.get(layer)
        if node is None:
            node = cur.child(layer)
        now = perf_counter()
        cur.self_s += now - tr.last
        tr.last = now
        tr.cur = node
        node.calls += 1
        try:
            return fn(*args, **kwargs)
        finally:
            now = perf_counter()
            node.self_s += now - tr.last
            tr.last = now
            tr.cur = cur
    return traced


def _inclusive(tr: Tracer, fn: Callable, layer: str, key: str) -> Callable:
    """A boundary that also sums its calls' inclusive time under ``key``."""
    inner = _boundary(tr, fn, layer)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            slot = (tr.phase, key)
            tr.inclusive[slot] = tr.inclusive.get(slot, 0.0) \
                + perf_counter() - start
    return timed


def _op(tr: Tracer, fn: Callable, layer: str, label_of: Callable) -> Callable:
    """A boundary at a workload's op entry: records one span per op."""
    inner = _boundary(tr, fn, layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = label_of(*args, **kwargs)
        if tr.phase != "rep" or len(tr.op_spans) >= MAX_OP_SPANS:
            return inner(*args, **kwargs)
        start = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            tr.op_spans.append(
                (label, start - tr.origin, perf_counter() - start))
    return traced


# ---------------------------------------------------------------------------
# Install / uninstall
# ---------------------------------------------------------------------------


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def _traceable(fn: Any, name: str) -> bool:
    return (isinstance(fn, types.FunctionType)
            and not name.startswith("_")
            and not inspect.isgeneratorfunction(fn))


def install(tr: Tracer, op_hooks: dict[Callable, Callable] | None = None
            ) -> None:
    """Wrap every public ``repro`` function and method for ``tr``.

    Must run before any kernel or ``BlockCache`` exists: a block cache
    binds subsystem methods once, at construction.  Each function object
    gets exactly one wrapper, shared by every module and class that
    refers to it, so identity tests such as ``Pipeline.set_policy``'s
    passive-policy detection keep their answers.  ``op_hooks`` maps a
    workload's op-entry functions to a label function called with the
    op's arguments.
    """
    from repro.cpu import blockcache

    _import_all()
    op_hooks = op_hooks or {}
    wrappers: dict[int, Callable] = {}

    def wrapper_for(fn: Callable, layer: str) -> Callable:
        wrapped = wrappers.get(id(fn))
        if wrapped is None:
            hook = op_hooks.get(fn)
            wrapped = _op(tr, fn, layer, hook) if hook is not None \
                else _boundary(tr, fn, layer)
            wrappers[id(fn)] = wrapped
        return wrapped

    def set_attr(owner: Any, name: str, value: Any) -> None:
        tr._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    modules = sorted((name, mod) for name, mod in sys.modules.items()
                     if name.startswith("repro.") and mod is not None)
    for mod_name, mod in modules:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType):
                layer = layer_of(obj.__module__)
                if layer is not None and _traceable(obj, obj.__name__):
                    set_attr(mod, name, wrapper_for(obj, layer))
            elif isinstance(obj, type) and obj.__module__ == mod_name \
                    and not issubclass(obj, BaseException):
                layer = _CLASS_LAYERS.get((mod_name, obj.__name__)) \
                    or layer_of(mod_name)
                if layer is not None:
                    _wrap_class(obj, _BY_NAME[layer], wrapper_for, set_attr)

    # Compiled block regions are plain closures handed to CompiledRegion;
    # time them where they are stored, and time codegen separately.
    region_init = blockcache.CompiledRegion.__init__
    layer = _BY_NAME["cpu.blockcache"]

    def init(self, fn, leaders, digest):
        region_init(self, _inclusive(tr, fn, layer, "replay"), leaders,
                    digest)

    set_attr(blockcache.CompiledRegion, "__init__", init)
    set_attr(blockcache.BlockCache, "_compile_function", _inclusive(
        tr, blockcache.BlockCache._compile_function, layer, "compile"))


def _wrap_class(cls: type, layer: str, wrapper_for, set_attr) -> None:
    explicit_init = not dataclasses.is_dataclass(cls)
    for name, member in list(vars(cls).items()):
        if name == "__init__" and explicit_init \
                and isinstance(member, types.FunctionType):
            set_attr(cls, name, wrapper_for(member, layer))
        elif isinstance(member, (staticmethod, classmethod)):
            if _traceable(member.__func__, name):
                set_attr(cls, name,
                         type(member)(wrapper_for(member.__func__, layer)))
        elif _traceable(member, name):
            set_attr(cls, name, wrapper_for(member, layer))


def uninstall(tr: Tracer) -> None:
    """Restore every attribute :func:`install` replaced."""
    while tr._restore:
        owner, name, original = tr._restore.pop()
        setattr(owner, name, original)
