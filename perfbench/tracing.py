"""Per-layer tracing from outside the program.

The benchmark wraps the public entry points of each layer of ``repro``
with timing wrappers before any system is built. A wrapper opens a span
when called and closes it on return; the span's self time is its
duration minus the part its child spans cover. Spans nest strictly in a
single thread, so the covered part is the sum of the child durations,
and every span is attributed the moment it closes: only the open-span
stack and the per-boundary totals stay in memory.

Wrappers are installed on classes (so bound methods taken after
installation, such as ``inject = system.inject_token`` or a ledger's
hoisted ``post``, go through them) and, for plain functions, on every
``repro`` module that bound the function by name with ``from ... import``.
A boundary that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Span accounting for the traced run.

    Wrappers call :meth:`enter` before the wrapped call and :meth:`exit`
    after it. Nothing is recorded while :attr:`active` is false, so
    set-up and checks outside the timed phase stay out of the figures.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        #: One entry per open span: [boundary stats, start, child time].
        self._open: List[list] = []
        #: boundary name -> BoundaryStats, in installation order.
        self.boundaries: Dict[str, "BoundaryStats"] = {}

    def stats_for(self, name: str, layer: str) -> "BoundaryStats":
        stats = self.boundaries.get(name)
        if stats is None:
            stats = self.boundaries[name] = BoundaryStats(name, layer)
        return stats

    def enter(self, stats: "BoundaryStats") -> list:
        span = [stats, self.clock(), 0.0]
        self._open.append(span)
        return span

    def exit(self, span: list) -> None:
        duration = self.clock() - span[1]
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span[0].name)
        stats = span[0]
        stats.calls += 1
        stats.self_time += duration - span[2]
        if self._open:
            self._open[-1][2] += duration

    def layer_self_time(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for stats in self.boundaries.values():
            totals[stats.layer] = totals.get(stats.layer, 0.0) + stats.self_time
        return totals

    def layer_calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for stats in self.boundaries.values():
            totals[stats.layer] = totals.get(stats.layer, 0) + stats.calls
        return totals


@dataclass
class BoundaryStats:
    """Totals for one wrapped entry point."""

    name: str
    layer: str
    calls: int = 0
    self_time: float = 0.0
    #: Counts an observer reads from results (lookup tries, buffered
    #: tokens, rule evaluations that acted).
    counts: Dict[str, int] = field(default_factory=dict)


def _wrap(original: Callable, recorder: SpanRecorder, stats: BoundaryStats,
          observe: Optional[Callable[[BoundaryStats, object], None]]) -> Callable:
    enter = recorder.enter
    exit_ = recorder.exit

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        span = enter(stats)
        try:
            result = original(*args, **kwargs)
        finally:
            exit_(span)
        if observe is not None:
            observe(stats, result)
        return result

    return traced


# ----------------------------------------------------------------------
# observers: counts read from a boundary's return value
# ----------------------------------------------------------------------
def _observe_lookup(stats: BoundaryStats, result) -> None:
    counts = stats.counts
    counts["tries"] = counts.get("tries", 0) + result.tries
    counts["dht_hops"] = counts.get("dht_hops", 0) + result.dht_hops


def _observe_evaluate(stats: BoundaryStats, result) -> None:
    if result:
        stats.counts["acted"] = stats.counts.get("acted", 0) + 1


def _observe_drain(stats: BoundaryStats, result) -> None:
    stats.counts["tokens"] = stats.counts.get("tokens", 0) + len(result)


#: The atomics facade's dunder protocol (arithmetic, comparison,
#: conversion, iteration) is part of its cost on every read site.
_ATOMICS_SKIPPED = frozenset({"__init__", "__repr__", "__hash__", "__init_subclass__"})

#: (layer, module, boundaries). A boundary is ``Class.method``, a
#: module-level function name, ``Class.*`` for every public method the
#: class defines, or ``*`` for every method of every class the module
#: defines (the atomics facades). A layer may span several modules: the
#: token plane includes the hosts' message handler, and reconfiguration
#: includes draining the token buffers of frozen components.
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim.events", "repro.sim.events", (
        "Simulator.run_until", "Simulator.run_until_idle", "Simulator.step",
        "Simulator.schedule", "Simulator.schedule_at", "Simulator.schedule_pooled",
        "Simulator.schedule_at_pooled", "Simulator.cancel",
        "Simulator.claim_inline_slot",
    )),
    ("sim.node", "repro.sim.node", ("MessageBus.send", "Envelope.arrive")),
    ("runtime.tokens", "repro.runtime.system", (
        "AdaptiveCountingSystem.inject_token", "AdaptiveCountingSystem.send_token",
        "AdaptiveCountingSystem.dispatch_batch", "AdaptiveCountingSystem.retire_token",
        "AdaptiveCountingSystem.reroute_token", "AdaptiveCountingSystem.resolve_edge",
    )),
    ("runtime.tokens", "repro.runtime.host", ("NodeHost.handle_message",)),
    ("runtime.lookup", "repro.runtime.lookup", ("InputLookup.find",)),
    ("runtime.membership", "repro.runtime.membership", (
        "MembershipManager.join", "MembershipManager.leave", "MembershipManager.crash",
    )),
    ("runtime.stabilization", "repro.runtime.stabilization", ("Stabilizer.stabilize",)),
    ("runtime.reconfig", "repro.runtime.reconfig", (
        "Reconfigurator.split", "Reconfigurator.merge",
    )),
    ("runtime.reconfig", "repro.runtime.host", ("NodeHost.drain_buffer",)),
    ("runtime.rules", "repro.runtime.rules", ("RulesEngine.evaluate",)),
    ("core.components", "repro.core.components", (
        "ComponentState.route_token", "ComponentState.route_batch",
    )),
    ("core.splitmerge", "repro.core.splitmerge", (
        "split_child_states", "merge_child_states",
    )),
    ("core.wiring", "repro.core.wiring", ("WiringBase.*", "Wiring.*")),
    ("core.atomics", "repro.core.atomics", ("*",)),
    ("chord.ring", "repro.chord.ring", (
        "ChordRing.successor", "ChordRing.finger_table", "ChordRing.scan_fingers",
        "ChordRing.succ_k",
    )),
    ("chord.lookup", "repro.chord.fingers", ("lookup",)),
    ("chord.estimation", "repro.chord.estimation", ("LevelEstimator.level_estimate",)),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _m, _b in BOUNDARIES))

OBSERVERS: Dict[str, Callable[[BoundaryStats, object], None]] = {
    "InputLookup.find": _observe_lookup,
    "RulesEngine.evaluate": _observe_evaluate,
    "NodeHost.drain_buffer": _observe_drain,
}


@dataclass
class Installation:
    """What :func:`install` patched, so it can be undone."""

    #: (owner object, attribute name, original value)
    patches: List[Tuple[object, str, object]] = field(default_factory=list)
    #: boundary names that do not exist in the program
    absent: List[str] = field(default_factory=list)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def _expand(module, boundary: str) -> List[Tuple[object, str]]:
    """(owner, attribute) pairs a boundary names; empty when absent."""
    if boundary == "*":
        pairs = []
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for name, value in vars(cls).items():
                    if inspect.isfunction(value) and name not in _ATOMICS_SKIPPED:
                        pairs.append((cls, name))
        return pairs
    if "." not in boundary:
        return [(module, boundary)] if inspect.isfunction(getattr(module, boundary, None)) else []
    class_name, method = boundary.split(".", 1)
    cls = getattr(module, class_name, None)
    if not inspect.isclass(cls):
        return []
    if method == "*":
        return [
            (cls, name)
            for name, value in vars(cls).items()
            if inspect.isfunction(value) and not name.startswith("_")
        ]
    return [(cls, method)] if inspect.isfunction(vars(cls).get(method)) else []


def _boundary_name(owner, attribute: str) -> str:
    if inspect.ismodule(owner):
        return attribute
    return "%s.%s" % (owner.__name__, attribute)


def install(recorder: SpanRecorder, boundaries=BOUNDARIES) -> Installation:
    """Wrap every boundary; returns the installation.

    Must run before any system is built: objects constructed earlier
    may hold bound methods of the unwrapped functions.
    """
    installation = Installation()
    # Import every module first, so each by-name import of a function
    # already exists when that function is patched.
    modules = {}
    for _layer, module_name, _names in boundaries:
        try:
            modules[module_name] = importlib.import_module(module_name)
        except ImportError:
            modules[module_name] = None
    for layer, module_name, names in boundaries:
        module = modules[module_name]
        for boundary in names:
            pairs = _expand(module, boundary) if module is not None else []
            if not pairs:
                installation.absent.append("%s:%s" % (module_name, boundary))
                continue
            for owner, attribute in pairs:
                name = _boundary_name(owner, attribute)
                original = getattr(owner, attribute)
                stats = recorder.stats_for(name, layer)
                traced = _wrap(original, recorder, stats, OBSERVERS.get(name))
                if not inspect.ismodule(owner):
                    installation.patches.append((owner, attribute, original))
                    setattr(owner, attribute, traced)
                    continue
                # Patch the function wherever it was imported by name.
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(vars(other).items()):
                        if value is original:
                            installation.patches.append((other, alias, value))
                            setattr(other, alias, traced)
    return installation
