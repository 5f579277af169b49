"""Per-layer host-time tracing, kept in memory, from outside the program.

:class:`LayerTracer` wraps the entry points of each ``repro`` package
(the layers) in spans.  A plain call is one span.  A generator entry
point -- a simulation process body or anything driven by ``yield from``
-- gets one span per resume, so a process that sleeps for simulated
hours is charged only for the host time it actually runs.  Spans nest
through one stack: a span's self time is its duration minus the time
its child spans cover, and time spent in unwrapped code is charged to
the nearest wrapped caller.

Spans are folded into per-entry-point aggregates (count, self time) as
they close, so a run of millions of resumes keeps a few hundred numbers
in memory; :meth:`LayerTracer.report` prints them when the run ends.

The tracer patches class and module attributes while its ``with`` block
runs, so the clusters it should see must be built inside that block.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable

_clock = time.perf_counter

#: Layers in reporting order: the ``repro`` packages the benchmark
#: drives.  ``policies`` and ``obs`` stay unmeasured on purpose.
LAYERS = ("sim", "storage", "memory", "core", "vm", "functions",
          "snapstore", "orchestrator", "chaos", "bench")

#: ``(layer, module, owner, attribute)``: ``owner`` is a class name in
#: ``module`` or ``None`` for a module-level function.  Private process
#: bodies are listed where a layer's work runs as its own simulation
#: process (monitors, reapers, promotes, the chaos driver); without them
#: that work would be charged to the engine that resumes it.
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("sim", "repro.sim.engine", "Environment", "run"),
    ("sim", "repro.sim.engine", "Environment", "timeout"),
    ("sim", "repro.sim.engine", "Environment", "event"),
    ("sim", "repro.sim.engine", "Environment", "process"),
    ("sim", "repro.sim.engine", "Environment", "all_of"),
    ("sim", "repro.sim.engine", "Environment", "any_of"),
    ("sim", "repro.sim.resources", "Resource", "request"),
    ("sim", "repro.sim.resources", "Resource", "release"),
    ("sim", "repro.sim.resources", "Store", "put"),
    ("sim", "repro.sim.resources", "Store", "get"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "fault_in"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "hit_cost"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "read"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "write"),
    ("storage", "repro.storage.pagecache", "HostPageCache", "drop_caches"),
    ("storage", "repro.storage.ssd", "SsdDevice", "read"),
    ("storage", "repro.storage.ssd", "SsdDevice", "write"),
    ("storage", "repro.storage.thinpool", "ThinPoolDevice", "read"),
    ("storage", "repro.storage.thinpool", "ThinPoolDevice", "write"),
    ("storage", "repro.storage.remote", "RemoteDevice", "read"),
    ("storage", "repro.storage.remote", "RemoteDevice", "write"),
    ("storage", "repro.storage.filesystem", "Filesystem", "create"),
    ("memory", "repro.memory.guest", "GuestMemory", "install"),
    ("memory", "repro.memory.guest", "GuestMemory", "populate"),
    ("memory", "repro.memory.uffd", "UserFaultFd", "raise_fault"),
    ("memory", "repro.memory.uffd", "UserFaultFd", "read_event"),
    ("memory", "repro.memory.uffd", "UserFaultFd", "copy"),
    ("memory", "repro.memory.uffd", "UserFaultFd", "copy_batch"),
    ("memory", "repro.memory.uffd", "UserFaultFd", "zeropage"),
    ("core", "repro.core.manager", "ReapManager", "policy_for"),
    ("core", "repro.core.manager", "ReapManager", "complete"),
    ("core", "repro.core.policies", "VanillaPolicy", "fault_handler"),
    ("core", "repro.core.policies", "_UffdPolicy", "fault_handler"),
    ("core", "repro.core.policies", "_UffdPolicy", "finish"),
    ("core", "repro.core.policies", "RecordPolicy", "finish"),
    ("core", "repro.core.policies", "WsFilePolicy", "prepare"),
    ("core", "repro.core.monitor", "UffdMonitor", "_run"),
    ("core", "repro.core.monitor", "RecordMonitor", "finalize"),
    ("vm", "repro.vm.boot", None, "boot_microvm"),
    ("vm", "repro.vm.snapshot", "SnapshotStore", "capture"),
    ("vm", "repro.vm.snapshot", "SnapshotStore", "instantiate"),
    ("vm", "repro.vm.vcpu", "VCpu", "execute_phase"),
    ("functions", "repro.functions.behavior", "FunctionBehavior",
     "__init__"),
    ("functions", "repro.functions.behavior", "FunctionBehavior",
     "trace_for"),
    ("snapstore", "repro.snapstore.store", "TieredSnapshotStore",
     "ensure_for_restore"),
    ("snapstore", "repro.snapstore.store", "TieredSnapshotStore",
     "register_snapshot"),
    ("snapstore", "repro.snapstore.store", "TieredSnapshotStore",
     "register_reap_artifacts"),
    ("snapstore", "repro.snapstore.tier", "TierCache", "ensure_local"),
    ("snapstore", "repro.snapstore.tier", "TierCache", "_promote"),
    ("snapstore", "repro.snapstore.tier", "TierCache", "unpin"),
    ("snapstore", "repro.snapstore.tier", "TierCache", "lose_local"),
    ("orchestrator", "repro.orchestrator.loadgen", "TraceReplayer", "run"),
    ("orchestrator", "repro.orchestrator.cluster", "Cluster", "invoke"),
    ("orchestrator", "repro.orchestrator.cluster", "Cluster", "deploy"),
    ("orchestrator", "repro.orchestrator.cluster", "Cluster",
     "join_worker"),
    ("orchestrator", "repro.orchestrator.cluster", "LoadBalancer", "pick"),
    ("orchestrator", "repro.orchestrator.autoscaler", "Autoscaler",
     "invoke"),
    ("orchestrator", "repro.orchestrator.autoscaler", "Autoscaler",
     "_reap_idle"),
    ("orchestrator", "repro.orchestrator.orchestrator", "Orchestrator",
     "invoke"),
    ("orchestrator", "repro.orchestrator.orchestrator", "Orchestrator",
     "deploy"),
    ("orchestrator", "repro.orchestrator.orchestrator", "Orchestrator",
     "evict_warm"),
    ("chaos", "repro.chaos.injector", "ChaosController", "_drive"),
    ("chaos", "repro.chaos.injector", "ChaosController", "_pull"),
    ("chaos", "repro.chaos.injector", "ChaosController", "drain"),
    ("bench", "repro.bench.runner", "Runner", "run"),
    ("bench", "repro.bench.runner", None, "execute_cell"),
    ("bench", "repro.bench.runner", None, "canonicalize"),
    ("bench", "repro.bench.cache", "ResultCache", "put"),
    ("bench", "repro.bench.cache", "ResultCache", "get"),
    ("bench", "repro.bench.harness", "Testbed", "deploy"),
    ("bench", "repro.bench.harness", "Testbed", "invoke"),
)

#: Entry points whose return value is itself a per-fault generator
#: function (the restore policy's fault handler): each handler call is
#: traced as its own span of the same layer.
_FACTORIES = frozenset({"fault_handler"})

#: Module-level names re-imported by other modules under the same name;
#: the alias must be patched too, or calls through it escape the span.
_ALIASES = {
    ("repro.vm.boot", "boot_microvm"): ("repro.orchestrator.orchestrator",),
}


class _Stat:
    """Aggregate of the spans of one entry point."""

    __slots__ = ("layer", "name", "spans", "self_s")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.spans = 0
        self.self_s = 0.0


class _TracedGenerator:
    """Generator proxy timing each resume of the wrapped generator."""

    __slots__ = ("_gen", "_stat", "_stack")

    def __init__(self, gen, stat: _Stat, stack: list[float]) -> None:
        self._gen = gen
        self._stat = stat
        self._stack = stack

    @property
    def __name__(self) -> str:  # the engine names processes after this
        return getattr(self._gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def _resume(self, method, *args):
        # The clock is read first and last, so the proxy's own
        # bookkeeping is charged to no layer rather than to the caller.
        start = _clock()
        stack = self._stack
        stack.append(0.0)
        try:
            return method(*args)
        finally:
            end = _clock()
            stat = self._stat
            stat.spans += 1
            stat.self_s += end - start - stack.pop()
            stack[-1] += _clock() - start

    def close(self):
        return self._gen.close()


class LayerTracer:
    """Install, aggregate and remove the per-layer spans."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], _Stat] = {}
        #: Child-time accumulators of the open spans; the bottom entry
        #: collects time of top-level spans and is never popped.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def _stat(self, layer: str, name: str) -> _Stat:
        key = (layer, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat(layer, name)
        return stat

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A traced stand-in for ``fn`` (generator functions per resume)."""
        stat = self._stat(layer, name)
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedGenerator(fn(*args, **kwargs), stat, stack)
            return traced_generator

        factory = name.rsplit(".", 1)[-1] in _FACTORIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = _clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stat.spans += 1
                stat.self_s += end - start - stack.pop()
                stack[-1] += _clock() - start
            if factory and result is not None:
                result = self.wrap(layer, f"{name}.handler", result)
            return result
        return traced

    def __enter__(self) -> "LayerTracer":
        """Patch every entry point."""
        for layer, module_name, owner_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name)
            raw = vars(owner)[attribute]
            name = f"{owner_name or module_name.rsplit('.', 1)[-1]}." \
                   f"{attribute}"
            wrapped = self.wrap(layer, name, raw)
            self._patch(owner, attribute, wrapped)
            for alias_module in _ALIASES.get((module_name, attribute), ()):
                self._patch(importlib.import_module(alias_module),
                            attribute, wrapped)
        return self

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def __exit__(self, *exc_info) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``layer -> (spans, self seconds)`` over all entry points."""
        totals = {layer: (0, 0.0) for layer in LAYERS}
        for stat in self.stats.values():
            spans, self_s = totals[stat.layer]
            totals[stat.layer] = (spans + stat.spans, self_s + stat.self_s)
        return totals

    def entry_self_s(self, layer: str, name: str) -> float:
        stat = self.stats.get((layer, name))
        return stat.self_s if stat is not None else 0.0

    def report(self, limit: int = 25) -> str:
        """The busiest entry points by self time, one per line."""
        ranked = sorted(self.stats.values(), key=lambda stat: -stat.self_s)
        total = sum(stat.self_s for stat in ranked) or 1.0
        lines = ["self_s    share  spans      entry point"]
        for stat in ranked[:limit]:
            if not stat.spans:
                continue
            lines.append(f"{stat.self_s:8.3f}  {stat.self_s / total:5.1%}  "
                         f"{stat.spans:<9d}  {stat.layer}:{stat.name}")
        return "\n".join(lines)
