"""Knative-style per-function autoscaling (§3.1-3.2).

vHive relies on Knative's autoscaler: a per-function controller watches
invocation traffic and scales instances between zero and a cap, and
providers deallocate idle instances after a keep-alive window (§2.1:
"most serverless providers tend to limit the lifetime of function
instances to 8-20 minutes after the last invocation").

The :class:`Autoscaler` here implements that contract for a single
worker's orchestrator: it decides, per request, whether a warm instance
can serve or a cold start is required, and a background reaper process
evicts instances idle past the keep-alive window -- the machinery that
makes cold starts (and hence snapshots/REAP) matter at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.obs import tracer as obs_tracer
from repro.sim.engine import Event
from repro.sim.units import SEC


@dataclass(frozen=True)
class AutoscalerParameters:
    """Scaling behaviour knobs."""

    #: Idle time after which a warm instance is deallocated.
    keepalive_s: float = 600.0
    #: Reaper scan period.
    scan_period_s: float = 30.0
    #: Maximum concurrent instances per function.
    max_instances: int = 64


@dataclass
class _FunctionScaleState:
    last_invocation_at: float = 0.0
    in_flight: int = 0
    cold_starts: int = 0
    warm_hits: int = 0
    evictions: int = 0
    #: Requests seen so far (stable per-function arrival ids for spans).
    arrivals: int = 0
    queue_depth_samples: list[int] = field(default_factory=list)


class Autoscaler:
    """Per-function scale controller over one orchestrator."""

    def __init__(self, orchestrator,
                 params: AutoscalerParameters | None = None) -> None:
        self.orchestrator = orchestrator
        self.env = orchestrator.env
        self.params = params or AutoscalerParameters()
        self._states: dict[str, _FunctionScaleState] = {}
        self._reaper = self.env.process(self._reap_idle(), name="autoscaler")

    def state_for(self, name: str) -> _FunctionScaleState:
        """Scaling state of one function."""
        return self._states.setdefault(name, _FunctionScaleState())

    def stop(self) -> None:
        """Stop the background reaper."""
        self._reaper.interrupt("stop")

    # -- request path -----------------------------------------------------------

    def invoke(self, name: str, **invoke_kwargs,
               ) -> Generator[Event, Any, Any]:
        """Route one request through scaling logic.

        Uses a warm instance when one is free; otherwise cold-starts one
        (kept warm afterwards), up to ``max_instances``.
        """
        state = self.state_for(name)
        entry = self.orchestrator.function(name)
        state.last_invocation_at = self.env.now
        state.queue_depth_samples.append(state.in_flight)
        arrival = state.arrivals
        state.arrivals += 1
        use_warm = bool(entry.warm) and state.in_flight < len(entry.warm)
        if not use_warm and state.in_flight >= self.params.max_instances:
            use_warm = True  # saturate existing instances rather than grow
        # Admission is instantaneous in this model (no request queueing
        # ahead of the scale decision), so the span closes at its start
        # time; it still records the decision and the concurrency the
        # request saw.
        lane = f"{name}@{arrival}" if obs_tracer.ACTIVE is not None else None
        with obs_tracer.span("admission", self.env, lane,
                             self.orchestrator.obs_proc, cat="admission",
                             args={"function": name,
                                   "in_flight": state.in_flight}) as end_args:
            end_args["decision"] = "warm" if use_warm else "cold"
        state.in_flight += 1
        try:
            if use_warm and entry.warm:
                state.warm_hits += 1
                result = yield from self.orchestrator.invoke(
                    name, use_warm=True, **invoke_kwargs)
            else:
                state.cold_starts += 1
                result = yield from self.orchestrator.invoke(
                    name, use_warm=False, keep_warm=True, **invoke_kwargs)
        finally:
            state.in_flight -= 1
        state.last_invocation_at = self.env.now
        return result

    # -- background eviction -----------------------------------------------------

    def _reap_idle(self) -> Generator[Event, Any, None]:
        from repro.sim.engine import Interrupt
        try:
            while True:
                yield self.env.timeout(self.params.scan_period_s * SEC)
                deadline = self.params.keepalive_s * SEC
                for name, state in self._states.items():
                    idle = self.env.now - state.last_invocation_at
                    if idle < deadline or state.in_flight > 0:
                        continue
                    evicted = self.orchestrator.evict_warm(name)
                    state.evictions += evicted
        except Interrupt:
            return
