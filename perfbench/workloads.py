"""The benchmark's workloads, driven through the stack's public APIs.

A workload runs as **rounds**.  A round builds the system from scratch
(set-up), runs the measured phase, and returns a :class:`Round` with its
host timings, its simulated outcome and a digest of that outcome.  The
simulated work of round ``i`` is a pure function of the run seed and
``i``, so a round that is repeated to fill the measuring time must
reproduce its digest exactly.

Trace workloads (``azure-vanilla``, ``azure-reap``, ``fleet-faults``)
replay one fixed Azure-mix trace open-loop against a fresh cluster each
round; the run seed reaches the cluster (every worker's host and
orchestrator streams, hence page layouts and access patterns) and the
fault plan.  ``catalog-coldstarts`` runs the Fig. 8 sweep through the
experiment runner with an empty result cache each round.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.analysis.aggregate import geometric_mean
from repro.bench import reference
from repro.bench.cache import ResultCache
from repro.bench.harness import Testbed
from repro.bench.runner import Runner
from repro.chaos import (
    ChaosController,
    FaultPlan,
    RemoteOutage,
    WorkerCrash,
    WorkerJoin,
)
from repro.functions import FUNCTIONBENCH, get_profile
from repro.functions.catalog import recommended_keepalive_s
from repro.orchestrator.autoscaler import AutoscalerParameters
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.loadgen import SchemeInvoker, TraceReplayer
from repro.orchestrator.trace import TraceSpec, synthesize
from repro.sim.engine import Environment, events_processed_total
from repro.sim.rng import RandomStream, derive_seed
from repro.sim.units import MIB, SEC
from repro.snapstore.tier import TierParameters

import checks
from hostclock import HostClock

#: The ``trace_scale`` population: sporadic interactive endpoints
#: (helloworld, cnn_serving) and bursty pipeline stages (image_rotate,
#: json_serdes) under the ``azure`` class mix.
FUNCTIONS = ("helloworld", "image_rotate", "json_serdes", "cnn_serving")

#: The replayed trace is fixed; the run seed varies the cluster and the
#: faults.
TRACE_SEED = 42
TRACE_DURATION_S = 4800.0

KEEPALIVE_S = recommended_keepalive_s("azure")
SCAN_PERIOD_S = 15.0

#: fleet-faults: a local tier too small for the four functions' artifacts.
#: Promotes run without a deadline: with one, two restores of one
#: artifact starting at the same simulated instant (retries after a
#: crash) both promote it, and the second completion fails in
#: ``TierCache._promote`` (``promote_done`` is already ``None``).
TIER_CAPACITY_MB = 384
#: Per round: this many crash moments, each taking down VICTIMS workers.
CRASHES = 3
VICTIMS = 2
JOIN_DELAY_S = 10.0
#: Fault moments sit at least this far apart in the trace.
FAULT_SPACING_S = 120.0

#: Trace replays pause for a host-speed probe every this many arrivals.
PROBE_EVERY = 4

#: catalog-coldstarts: cold starts per scheme per function per round.
CATALOG_REPETITIONS = 2


@dataclass
class Round:
    """Outcome of one round."""

    #: Host seconds spent building the system (cluster or testbeds,
    #: deploys, REAP record invocations).
    setup_s: float
    #: Host seconds of the measured phase.
    timed_s: float
    #: ``setup_s`` and ``timed_s`` in reference seconds (hostclock.py).
    setup_ref_s: float
    timed_ref_s: float
    #: Host seconds spent in REAP record invocations (part of set-up).
    record_s: float
    #: Invocations completed in the measured phase.
    timed_invocations: int
    issued: int
    completed: int
    failed: int
    cold: int
    #: Simulated latency of each cold invocation, +inf per failure (ms).
    cold_ms: list[float]
    #: Simulated per-layer counters (they enter the digest).
    counters: dict[str, float]
    digest: str
    #: Per function: (mean vanilla, mean REAP) cold latency in ms
    #: (catalog rounds only).
    means: dict[str, tuple[float, float]] = field(default_factory=dict)


def _add(counters: dict[str, float], name: str, value: float) -> None:
    counters[name] = counters.get(name, 0) + value


def _count_invocations(counters: dict[str, float], results) -> None:
    for result in results:
        breakdown = result.breakdown
        _add(counters, "memory.demand_faults", breakdown.demand_faults)
        _add(counters, "memory.major_faults", breakdown.major_faults)
        _add(counters, "memory.prefetched_pages", breakdown.prefetched_pages)
        _add(counters, "memory.unused_prefetched",
             breakdown.unused_prefetched)
        _add(counters, "memory.install_ws_us", breakdown.install_ws_us)
        _add(counters, "core.fetch_ws_us", breakdown.fetch_ws_us)
        _add(counters, "vm.load_vmm_us", breakdown.load_vmm_us)
        _add(counters, "vm.connection_us", breakdown.connection_us)
        _add(counters, "functions.processing_us", breakdown.processing_us)


def _count_host(counters: dict[str, float], host, orchestrator) -> None:
    _add(counters, "storage.pagecache_hits", host.page_cache.hits)
    _add(counters, "storage.pagecache_misses", host.page_cache.misses)
    devices = [host.device]
    if orchestrator.snapstore is not None:
        devices.append(orchestrator.snapstore.remote)
    for device in devices:
        _add(counters, "storage.device_read_requests",
             device.stats.read_requests)
        _add(counters, "storage.device_read_bytes", device.stats.read_bytes)
        _add(counters, "storage.device_write_bytes",
             device.stats.write_bytes)
    _add(counters, "vm.snapshot_captures",
         orchestrator.snapshot_store.stats.captures)
    if orchestrator.snapstore is not None:
        for key, value in orchestrator.snapstore.stats.to_dict().items():
            _add(counters, f"snapstore.{key}", value)


def cold_start_moments(trace, horizon_s: float) -> list[float]:
    """Arrival times that must cold-start.

    An arrival whose function saw no arrival for ``horizon_s`` (the
    keep-alive window plus one reaper scan) finds no instance kept
    alive, so its restore is in flight right after it arrives.
    """
    last: dict[str, float] = {}
    moments = []
    for event in trace.events:
        previous = last.get(event.function)
        if previous is None or event.at_s - previous > horizon_s:
            moments.append(event.at_s)
        last[event.function] = event.at_s
    return moments


class _Recorder:
    """Invoker pass-through that keeps every invocation result."""

    def __init__(self, invoker) -> None:
        self.invoker = invoker
        self.results: list[Any] = []

    def invoke(self, name: str, **kwargs):
        result = yield from self.invoker.invoke(name, **kwargs)
        self.results.append(result)
        return result


class TraceWorkload:
    """Open-loop replay of the fixed trace against a fresh cluster."""

    def __init__(self, name: str, scheme: str, n_workers: int,
                 rounds: int, workdir: str, tiered: bool = False,
                 faults: bool = False) -> None:
        self.name = name
        self.workdir = workdir
        self.scheme = scheme
        self.n_workers = n_workers
        self.rounds = rounds
        self.tier = TierParameters(
            local_capacity_bytes=TIER_CAPACITY_MB * MIB,
            eviction="ws_aware") if tiered else None
        self.faults = faults
        #: Counters each run of this workload must drive above zero.
        self.required = (("orchestrator.retries", "snapstore.evictions")
                         if faults else ())
        self.trace = None
        self.profiles: list = []

    def prepare(self) -> None:
        """Synthesize the trace and load the profiles (part of set-up)."""
        self.trace = synthesize(TraceSpec(
            functions=FUNCTIONS, rate_class="azure",
            duration_s=TRACE_DURATION_S), seed=TRACE_SEED)
        self.profiles = [get_profile(name) for name in FUNCTIONS]

    def fault_plan(self, seed: int, base_s: float) -> FaultPlan:
        """Worker crashes and an outage inside cold-start windows.

        ``base_s`` is the simulated time the replay starts at (the
        controller schedules in absolute time, the replayer relative to
        its start).  At each of ``CRASHES`` arrivals that must
        cold-start, ``VICTIMS`` healthy workers crash a fraction of a
        second later and as many fresh workers join ``JOIN_DELAY_S``
        after that.  At one more such arrival a fail-mode outage starts;
        it is shorter than the retry budget (0.25 s + 0.5 s of backoff),
        so nothing is shed.
        """
        stream = RandomStream(seed, "perfbench-faults")
        low, high = 0.1 * TRACE_DURATION_S, 0.9 * TRACE_DURATION_S
        candidates = [moment for moment in cold_start_moments(
            self.trace, KEEPALIVE_S + SCAN_PERIOD_S)
            if low <= moment <= high]
        stream.shuffle(candidates)
        picks: list[float] = []
        for moment in candidates:
            if all(abs(moment - pick) >= FAULT_SPACING_S for pick in picks):
                picks.append(moment)
            if len(picks) == CRASHES + 1:
                break
        if len(picks) < CRASHES + 1:
            raise checks.CheckFailed(
                f"{self.name}: only {len(picks)} spaced cold-start windows "
                f"in the trace, need {CRASHES + 1}")
        events = []
        healthy = list(range(self.n_workers))
        next_index = self.n_workers
        for moment in sorted(picks[:CRASHES]):
            at_s = base_s + moment + stream.uniform(0.1, 0.5)
            for victim in sorted(stream.sample(healthy, VICTIMS)):
                events.append(WorkerCrash(at_s=at_s, worker=victim))
                healthy.remove(victim)
            for _ in range(VICTIMS):
                events.append(WorkerJoin(at_s=at_s + JOIN_DELAY_S))
                healthy.append(next_index)
                next_index += 1
        events.append(RemoteOutage(
            at_s=base_s + picks[CRASHES] + stream.uniform(0.0, 0.2),
            duration_s=stream.uniform(0.2, 0.45), mode="fail"))
        return FaultPlan(events=tuple(events))

    def replay_checkpoints(self, base_us: float) -> list[float]:
        """Simulated times at which the replay pauses for a probe.

        Every ``PROBE_EVERY``-th arrival, and none at or after the last
        one, so no pause runs the clock past the end of the replay.
        """
        last = self.trace.events[-1].at_s
        return [base_us + event.at_s * SEC
                for event in self.trace.events[PROBE_EVERY::PROBE_EVERY]
                if event.at_s < last]

    def run_round(self, seed: int) -> Round:
        started = time.perf_counter()
        events_before = events_processed_total()
        setup = HostClock()
        env = Environment()
        cluster = setup.measure(
            Cluster, env, n_workers=self.n_workers, seed=seed,
            autoscaler_params=AutoscalerParameters(
                keepalive_s=KEEPALIVE_S, scan_period_s=SCAN_PERIOD_S),
            snapstore_params=self.tier)
        with cluster:
            for profile in self.profiles:
                setup.measure(env.run,
                              until=env.process(cluster.deploy(profile)))
            deployed_s = setup.host_s
            setup_results = []
            if self.scheme == "reap":
                # One record per function per worker before the replay
                # (the Fig. 8 methodology the trace experiments follow).
                for worker in cluster.workers:
                    for name in FUNCTIONS:
                        setup_results.append(setup.measure(
                            env.run, until=env.process(
                                worker.orchestrator.invoke(name))))
            record_s = setup.host_s - deployed_s
            chaos = None
            if self.faults:
                chaos = ChaosController(cluster, self.fault_plan(
                    seed, env.now / SEC))
            recorder = _Recorder(SchemeInvoker(cluster, self.scheme))
            replayer = TraceReplayer(env, recorder, self.trace)
            timed = HostClock()
            replay_started = time.perf_counter()
            replay = env.process(replayer.run())
            # Pausing at a time and resuming processes the same events
            # in the same order as one run to the end.
            for at_us in self.replay_checkpoints(env.now):
                timed.measure(env.run, until=at_us)
            stats = timed.measure(env.run, until=replay)
            if chaos is not None:
                # Re-replication pulls still in flight finish here.
                timed.measure(env.run, until=env.process(chaos.drain()))
            finished = time.perf_counter()
            counters: dict[str, float] = {}
            for worker in cluster.workers:
                _count_host(counters, worker.host, worker.orchestrator)
            route = cluster.balancer.stats
            for key in ("routed", "warm_routed", "locality_routed",
                        "retries", "shed"):
                counters[f"orchestrator.{key}"] = getattr(route, key)
            if chaos is not None:
                for key, value in chaos.stats.to_dict().items():
                    counters[f"chaos.{key}"] = value
        counters["sim.events"] = events_processed_total() - events_before
        _count_invocations(counters, setup_results + recorder.results)

        samples = [(function, sample)
                   for function, function_stats in sorted(stats.items())
                   for sample in function_stats.samples]
        failed = sum(function_stats.shed for function_stats in stats.values())
        completed = len(samples)
        label = f"{self.name} round seed {seed}"
        checks.check_accounting(label, len(self.trace), completed, failed)
        checks.check_accounting(f"{label} results", completed,
                                len(recorder.results), 0)
        checks.check_breakdowns(label, setup_results + recorder.results)
        cold_ms = [sample.latency_ms for _, sample in samples
                   if sample.mode != "warm"]
        cold = len(cold_ms)
        cold_ms += [math.inf] * failed
        digest = checks.digest({
            "results": [checks.invocation_record(result) for result in
                        setup_results + recorder.results],
            "samples": [[function, sample.issued_at, sample.latency_ms,
                         sample.mode] for function, sample in samples],
            "failed": failed,
            "counters": counters,
        })
        setup_s = replay_started - started - setup.slice_s
        timed_s = finished - replay_started - timed.slice_s
        return Round(
            setup_s=setup_s,
            timed_s=timed_s,
            setup_ref_s=setup_s * setup.speed,
            timed_ref_s=timed_s * timed.speed,
            record_s=record_s,
            timed_invocations=completed,
            issued=len(self.trace), completed=completed, failed=failed,
            cold=cold, cold_ms=cold_ms, counters=counters, digest=digest)

    def accuracy_means(self, seed: int,
                       rounds) -> dict[str, tuple[float, float]]:
        """Isolated Fig. 8 cold starts of this workload's functions."""
        return catalog_round(FUNCTIONS, CATALOG_REPETITIONS,
                             derive_seed(seed, "probe"), self.workdir,
                             label=f"{self.name} probe").means


@dataclass
class _TestbedLog:
    testbeds: list = field(default_factory=list)
    results: list = field(default_factory=list)
    setup_s: float = 0.0
    record_s: float = 0.0
    #: Host-speed probes after set-up calls and after cold starts.
    setup: HostClock = field(default_factory=HostClock)
    timed: HostClock = field(default_factory=HostClock)


@contextlib.contextmanager
def _observe_testbeds() -> Iterator[_TestbedLog]:
    """Log every Testbed, invocation result, and deploy/record host time.

    The Fig. 8 cells build their testbeds inside the runner; wrapping the
    two synchronous Testbed entry points is how the benchmark sees each
    invocation's result and splits set-up (deploy, record) from the
    measured cold starts.  Each call is followed by a host-speed probe
    for its phase.
    """
    log = _TestbedLog()
    deploy, invoke = Testbed.deploy, Testbed.invoke

    def note(testbed) -> None:
        if not log.testbeds or log.testbeds[-1] is not testbed:
            log.testbeds.append(testbed)

    def logged_deploy(testbed, profile):
        note(testbed)
        started = time.perf_counter()
        try:
            return deploy(testbed, profile)
        finally:
            elapsed = time.perf_counter() - started
            log.setup_s += elapsed
            log.setup.add(elapsed)

    def logged_invoke(testbed, name, **kwargs):
        note(testbed)
        started = time.perf_counter()
        result = invoke(testbed, name, **kwargs)
        elapsed = time.perf_counter() - started
        if result.mode == "record":
            log.setup_s += elapsed
            log.record_s += elapsed
            log.setup.add(elapsed)
        else:
            log.timed.add(elapsed)
        log.results.append(result)
        return result

    Testbed.deploy, Testbed.invoke = logged_deploy, logged_invoke
    try:
        yield log
    finally:
        Testbed.deploy, Testbed.invoke = deploy, invoke


def catalog_round(functions, repetitions: int, seed: int, workdir: str,
                  label: str) -> Round:
    """The Fig. 8 sweep through the runner with an empty result cache."""
    functions = list(functions)
    started = time.perf_counter()
    events_before = events_processed_total()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        with _observe_testbeds() as log:
            runner = Runner(jobs=1, cache=ResultCache(cache_dir))
            ready = time.perf_counter()
            outcome = runner.run(["fig8"], functions=functions,
                                 repetitions=repetitions, seed=seed)
            finished = time.perf_counter()
        events = events_processed_total() - events_before
        # The cache must hand back exactly what the fresh run assembled.
        again = Runner(jobs=1, cache=ResultCache(cache_dir)).run(
            ["fig8"], functions=functions, repetitions=repetitions,
            seed=seed)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    fresh = outcome.results[0].to_dict()
    if (again.stats.cache_hits != len(functions)
            or again.results[0].to_dict() != fresh):
        raise checks.CheckFailed(f"{label}: cached fig8 result differs "
                                 f"from the fresh one")

    per_cell = 2 * repetitions + 1
    checks.check_accounting(label, len(functions) * per_cell,
                            len(log.results), 0)
    checks.check_breakdowns(label, log.results)
    rows = {row["function"]: row for row in fresh["rows"]}
    means: dict[str, tuple[float, float]] = {}
    cold_ms: list[float] = []
    for index, function in enumerate(functions):
        cell = log.results[index * per_cell:(index + 1) * per_cell]
        modes = [result.mode for result in cell]
        expected = (["vanilla"] * repetitions + ["record"]
                    + ["reap"] * repetitions)
        if [result.function for result in cell] != [function] * per_cell \
                or modes != expected:
            raise checks.CheckFailed(
                f"{label}: {function} ran modes {modes}, expected "
                f"{expected}")
        vanilla, reap = cell[:repetitions], cell[repetitions + 1:]
        for results, key in ((vanilla, "baseline_ms"), (reap, "reap_ms")):
            # Same arithmetic as the experiment's average_breakdowns.
            mean_ms = sum(result.breakdown.total_us
                          for result in results) / len(results) / 1000.0
            if round(mean_ms, 1) != rows[function][key]:
                raise checks.CheckFailed(
                    f"{label}: fig8 row {function}.{key} = "
                    f"{rows[function][key]} but the invocations average "
                    f"{mean_ms:.3f} ms")
        means[function] = (
            sum(result.latency_ms for result in vanilla) / len(vanilla),
            sum(result.latency_ms for result in reap) / len(reap))
        cold_ms += [result.latency_ms for result in vanilla + reap]
    checks.check_reap_not_slower(label, means)

    counters: dict[str, float] = {"sim.events": events,
                                  "bench.cells": outcome.stats.cells_executed}
    for testbed in log.testbeds:
        _count_host(counters, testbed.host, testbed.orchestrator)
    _count_invocations(counters, log.results)
    digest = checks.digest({
        "results": [checks.invocation_record(result)
                    for result in log.results],
        "fig8": fresh,
        "counters": counters,
    })
    setup_s = (ready - started) + log.setup_s
    timed_s = ((finished - ready) - log.setup_s - log.setup.slice_s
               - log.timed.slice_s)
    return Round(
        setup_s=setup_s,
        timed_s=timed_s,
        setup_ref_s=setup_s * log.setup.speed,
        timed_ref_s=timed_s * log.timed.speed,
        record_s=log.record_s,
        timed_invocations=len(cold_ms),
        issued=len(functions) * per_cell, completed=len(log.results),
        failed=0, cold=len(cold_ms), cold_ms=cold_ms, counters=counters,
        digest=digest, means=means)


class CatalogWorkload:
    """The Fig. 8 sweep over all ten FunctionBench functions."""

    name = "catalog-coldstarts"
    required = ()

    def __init__(self, rounds: int, workdir: str) -> None:
        self.rounds = rounds
        self.workdir = workdir

    def prepare(self) -> None:
        """Nothing to synthesize: the catalog is the input."""

    def run_round(self, seed: int) -> Round:
        return catalog_round(FUNCTIONBENCH, CATALOG_REPETITIONS, seed,
                             self.workdir,
                             label=f"{self.name} round seed {seed}")

    def accuracy_means(self, seed: int,
                       rounds) -> dict[str, tuple[float, float]]:
        """Per function, the mean over rounds of each scheme's mean."""
        return {function: tuple(
            sum(outcome.means[function][scheme] for outcome in rounds)
            / len(rounds) for scheme in (0, 1))
            for function in rounds[0].means}


def accuracy(means: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """REAP speedup (geometric mean) and error against the paper (%).

    The error is the mean absolute relative error of the vanilla and
    REAP cold-start means against Fig. 2/Fig. 8.  It is in-sample: the
    function profiles were calibrated to those bars.
    """
    speedup = geometric_mean(
        vanilla / reap for vanilla, reap in means.values())
    errors = []
    for function, (vanilla, reap) in sorted(means.items()):
        for measured, paper in ((vanilla, reference.FIG2_COLD_MS[function]),
                                (reap, reference.FIG8_REAP_MS[function])):
            errors.append(abs(measured - paper) / paper)
    return speedup, 100.0 * sum(errors) / len(errors)


WORKLOAD_NAMES = ("azure-vanilla", "azure-reap", "fleet-faults",
                  "catalog-coldstarts")


def make(name: str, workdir: str):
    """Build a workload by name.

    Round counts give each workload at least 100 cold starts, so its
    p90 has ten samples beyond it.
    """
    if name == "azure-vanilla":
        return TraceWorkload(name, "vanilla", n_workers=2, rounds=2,
                             workdir=workdir)
    if name == "azure-reap":
        return TraceWorkload(name, "reap", n_workers=2, rounds=3,
                             workdir=workdir)
    if name == "fleet-faults":
        return TraceWorkload(name, "vanilla", n_workers=3, rounds=3,
                             workdir=workdir, tiered=True, faults=True)
    if name == "catalog-coldstarts":
        return CatalogWorkload(rounds=3, workdir=workdir)
    raise KeyError(f"unknown workload {name!r}; known: "
                   f"{', '.join(WORKLOAD_NAMES)}")
