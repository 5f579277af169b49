"""Sim-time span tracer with Chrome ``trace_event`` export.

A :class:`SpanTracer` records *spans* (named intervals of simulated
time) and *instants* (point events) on ``(process, lane)`` coordinates:
the process names the worker (``worker0``, ``worker1`` ...) and the
lane names the concurrent strand within it -- one lane per invocation
(``{function}#{invocation}``), one per tier-cache artifact stream, and
so on.  Open spans nest per lane, so the exported trace shows the
cold-start phase tree exactly as ``docs/architecture.md`` walks it.

Determinism contract: every recorded field derives from simulated time
and stable ids (no wall clock, no ``id()``, no unsorted-set iteration),
and the pid/tid interning in :meth:`SpanTracer.to_chrome` sorts names
before assignment -- the same simulation produces byte-identical trace
files under ``REPRO_SANITIZE_TIEBREAK`` reorderings of equal-time
events on *different* lanes only insofar as the simulation itself is
invariant, which the sanitizer suite pins.

The module-level :data:`ACTIVE` handle is the single enable flag:
instrumentation sites read it once per operation and do nothing (no
allocation) when it is ``None``.  Phase-shaped sites use :func:`span`,
which owns the begin, the end and the abort-on-error; with tracing off
it costs one context-manager entry and exit and records nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: The installed tracer, or ``None`` (the default: tracing disabled).
#: Hot paths read this exactly once per guarded operation.
ACTIVE: Optional["SpanTracer"] = None


class SpanError(RuntimeError):
    """Structural misuse of the tracer (double close, foreign span)."""


class Span:
    """One named interval of simulated time on a ``(proc, lane)`` pair."""

    __slots__ = ("name", "cat", "proc", "lane", "start_us", "end_us",
                 "status", "args", "parent")

    def __init__(self, name: str, cat: str, proc: str, lane: str,
                 start_us: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.cat = cat
        self.proc = proc
        self.lane = lane
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.status = "open"
        self.args: dict[str, Any] = {}
        self.parent = parent

    @property
    def duration_us(self) -> float:
        """Span length in simulated microseconds (0 while open)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def closed(self) -> bool:
        """Whether :meth:`SpanTracer.end` has sealed this span."""
        return self.end_us is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (f"{self.start_us:.0f}..{self.end_us:.0f}"
                 if self.end_us is not None else f"{self.start_us:.0f}..")
        return f"<Span {self.proc}/{self.lane} {self.name} {state}>"


class SpanTracer:
    """Records spans and instants; exports Chrome ``trace_event`` JSON."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[dict[str, Any]] = []
        #: Open-span stack per ``(proc, lane)`` -- nesting is tracked per
        #: lane because cooperative generators interleave at yields, so
        #: a single global "current span" would misattribute parents.
        self._open: dict[tuple[str, str], list[Span]] = {}
        #: Current experiment-cell label; prefixes process names so one
        #: trace file can hold several cells without pid collisions.
        self._cell = ""

    # -- recording --------------------------------------------------------

    def begin_cell(self, label: str) -> None:
        """Start a new cell: subsequent spans group under its processes."""
        self._cell = label

    def begin(self, name: str, now: float, lane: str,
              proc: str = "worker0", cat: str = "invoke",
              args: dict[str, Any] | None = None) -> Span:
        """Open a span at simulated time ``now``; returns the handle."""
        if self._cell:
            proc = f"{self._cell}:{proc}"
        stack = self._open.setdefault((proc, lane), [])
        span = Span(name, cat, proc, lane, now,
                    parent=stack[-1] if stack else None)
        if args:
            span.args.update(args)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span, now: float, status: str = "ok",
            args: dict[str, Any] | None = None) -> None:
        """Close a span exactly once (double closes raise)."""
        if span.end_us is not None:
            raise SpanError(f"span {span.name!r} closed twice")
        if now < span.start_us:
            raise SpanError(f"span {span.name!r} ends before it starts")
        span.end_us = now
        span.status = status
        if args:
            span.args.update(args)
        stack = self._open.get((span.proc, span.lane))
        if not stack or span not in stack:
            raise SpanError(f"span {span.name!r} not open on its lane")
        stack.remove(span)

    def instant(self, name: str, now: float, lane: str,
                proc: str = "worker0", cat: str = "invoke",
                args: dict[str, Any] | None = None) -> None:
        """Record a point event at simulated time ``now``."""
        if self._cell:
            proc = f"{self._cell}:{proc}"
        self.instants.append({"name": name, "cat": cat, "proc": proc,
                              "lane": lane, "ts": now,
                              "args": dict(args) if args else {}})

    def abort_lane(self, lane: str, now: float,
                   proc: str = "worker0") -> int:
        """Close every open span on a lane with ``status="error"``.

        Called from exception paths (Interrupt mid-restore, model
        errors): the trace then shows exactly how far the aborted
        invocation got.  Returns the number of spans closed.
        """
        if self._cell:
            proc = f"{self._cell}:{proc}"
        stack = self._open.get((proc, lane))
        if not stack:
            return 0
        closed = 0
        while stack:
            span = stack[-1]
            self.end(span, now, status="error")
            closed += 1
        return closed

    # -- introspection ----------------------------------------------------

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended, in begin order."""
        return [span for span in self.spans if span.end_us is None]

    def spans_named(self, name: str) -> list[Span]:
        """All spans with a given name, in begin order."""
        return [span for span in self.spans if span.name == name]

    # -- export -----------------------------------------------------------

    def to_chrome(self) -> dict[str, Any]:
        """Chrome ``trace_event`` JSON object (Perfetto-loadable).

        Simulated microseconds map 1:1 to trace microseconds; processes
        map to pids and lanes to tids.  Ids are interned over *sorted*
        names and events are sorted by time, so the export is a pure
        function of the recorded spans.
        """
        proc_names = sorted({span.proc for span in self.spans}
                            | {inst["proc"] for inst in self.instants})
        pids = {name: index + 1 for index, name in enumerate(proc_names)}
        lane_names = sorted({(span.proc, span.lane) for span in self.spans}
                            | {(inst["proc"], inst["lane"])
                               for inst in self.instants})
        tids: dict[tuple[str, str], int] = {}
        per_proc: dict[str, int] = {}
        for proc, lane in lane_names:
            per_proc[proc] = per_proc.get(proc, 0) + 1
            tids[(proc, lane)] = per_proc[proc]

        events: list[dict[str, Any]] = []
        for name in proc_names:
            events.append({"ph": "M", "name": "process_name",
                           "pid": pids[name], "tid": 0,
                           "args": {"name": name}})
        for proc, lane in lane_names:
            events.append({"ph": "M", "name": "thread_name",
                           "pid": pids[proc], "tid": tids[(proc, lane)],
                           "args": {"name": lane}})

        timed: list[dict[str, Any]] = []
        for span in self.spans:
            end_us = span.end_us if span.end_us is not None \
                else span.start_us
            args = dict(span.args)
            args["status"] = span.status
            timed.append({"ph": "X", "name": span.name, "cat": span.cat,
                          "pid": pids[span.proc],
                          "tid": tids[(span.proc, span.lane)],
                          "ts": span.start_us,
                          "dur": end_us - span.start_us,
                          "args": args})
        for inst in self.instants:
            timed.append({"ph": "i", "name": inst["name"],
                          "cat": inst["cat"], "s": "t",
                          "pid": pids[inst["proc"]],
                          "tid": tids[(inst["proc"], inst["lane"])],
                          "ts": inst["ts"], "args": inst["args"]})
        # Longest-first at equal timestamps so parents precede children.
        timed.sort(key=lambda ev: (ev["ts"], ev["pid"], ev["tid"],
                                   -ev.get("dur", 0.0), ev["name"]))
        events.extend(timed)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> int:
        """Write the Chrome trace to ``path``; returns the event count."""
        blob = self.to_chrome()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, indent=1)
            handle.write("\n")
        return len(blob["traceEvents"])


#: Keys every exported event must carry, per Chrome event phase.
_REQUIRED_KEYS = {
    "M": ("name", "pid", "args"),
    "X": ("name", "cat", "pid", "tid", "ts", "dur", "args"),
    "i": ("name", "pid", "tid", "ts", "s"),
}


def validate_chrome_trace(blob: Any) -> list[str]:
    """Schema-check a Chrome trace object; returns problem strings.

    Intentionally small -- the shape Perfetto's JSON importer needs:
    a ``traceEvents`` list of dicts, each with a known ``ph`` and that
    phase's required keys, numeric non-negative ``ts``/``dur``.
    """
    problems: list[str] = []
    if not isinstance(blob, dict):
        return [f"top level must be an object, got {type(blob).__name__}"]
    events = blob.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        required = _REQUIRED_KEYS.get(phase)
        if required is None:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        missing = [key for key in required if key not in event]
        if missing:
            problems.append(f"{where}: missing {', '.join(missing)}")
            continue
        for key in ("ts", "dur"):
            if key in event:
                value = event[key]
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}: bad {key}: {value!r}")
    return problems


@contextmanager
def span(name: str, env: Any, lane: str | None, proc: str = "worker0",
         cat: str = "invoke", args: dict[str, Any] | None = None,
         ) -> Iterator[dict[str, Any]]:
    """Trace the enclosed block as one span on ``(proc, lane)``.

    ``env`` supplies the simulated clock (``env.now``) at entry and
    exit.  Yields a dict whose entries become the span's end arguments.
    Any exception leaving the block aborts the whole lane (every open
    span on it closes with ``status="error"``) before it propagates.
    Records nothing when tracing is off or ``lane`` is ``None``.
    """
    tracer = ACTIVE
    end_args: dict[str, Any] = {}
    if tracer is None or lane is None:
        yield end_args
        return
    handle = tracer.begin(name, env.now, lane=lane, proc=proc, cat=cat,
                          args=args)
    try:
        yield end_args
    except BaseException:
        tracer.abort_lane(lane, env.now, proc=proc)
        raise
    tracer.end(handle, env.now, args=end_args)


def install(tracer: SpanTracer | None = None) -> SpanTracer:
    """Enable tracing; returns the (new or given) active tracer."""
    global ACTIVE
    ACTIVE = tracer if tracer is not None else SpanTracer()
    return ACTIVE


def uninstall() -> None:
    """Disable tracing (instrumentation reverts to zero-cost checks)."""
    global ACTIVE
    ACTIVE = None
