"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload azure-vanilla --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same rounds untraced, then again under the per-layer tracer, and prints
every per-layer metric.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits with status 1 and prints no result; a missing
``src/repro`` tree exits with status 2.

See ``perfbench/README.md`` for the workloads, the metrics and which
per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import checks  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A round is repeated to fill ``--seconds`` at most this many times.
MAX_ROUNDS = 40

#: Host-speed probes that convert the import and input time.
START_PROBES = 5

#: Percentile validity: ten samples must lie beyond the p90.
MIN_TAIL_SAMPLES = 10

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("invocations_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("completed_frac", "ratio"),
    ("sim_cold_p50_ms", "ms"),
    ("sim_cold_p90_ms", "ms"),
    ("sim_cold_frac", "ratio"),
    ("sim_reap_speedup", "ratio"),
    ("sim_error_pct", "%"),
)

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("sim.self_s", "s"), ("sim.spans", "count"),
    ("sim.events", "count"), ("sim.host_us_per_event", "us"),
    ("storage.self_s", "s"), ("storage.spans", "count"),
    ("storage.pagecache_hits", "count"),
    ("storage.pagecache_misses", "count"),
    ("storage.pagecache_hit_ratio", "ratio"),
    ("storage.device_read_requests", "count"),
    ("storage.device_read_mb", "MB"), ("storage.device_write_mb", "MB"),
    ("memory.self_s", "s"), ("memory.spans", "count"),
    ("memory.demand_faults", "count"), ("memory.major_faults", "count"),
    ("memory.prefetched_pages", "count"),
    ("memory.prefetch_used_ratio", "ratio"),
    ("memory.install_ws_ms", "ms"),
    ("core.self_s", "s"), ("core.spans", "count"),
    ("core.fetch_ws_ms", "ms"), ("core.record_s", "s"),
    ("vm.self_s", "s"), ("vm.spans", "count"),
    ("vm.load_vmm_ms", "ms"), ("vm.connection_ms", "ms"),
    ("vm.snapshot_captures", "count"),
    ("functions.self_s", "s"), ("functions.spans", "count"),
    ("functions.processing_ms", "ms"),
    ("snapstore.self_s", "s"), ("snapstore.spans", "count"),
    ("snapstore.local_hits", "count"), ("snapstore.remote_misses", "count"),
    ("snapstore.hit_ratio", "ratio"), ("snapstore.promotions", "count"),
    ("snapstore.promoted_mb", "MB"), ("snapstore.evictions", "count"),
    ("snapstore.demoted_mb", "MB"), ("snapstore.coalesced", "count"),
    ("snapstore.bypassed", "count"),
    ("snapstore.promote_timeouts", "count"),
    ("orchestrator.self_s", "s"), ("orchestrator.spans", "count"),
    ("orchestrator.routed", "count"),
    ("orchestrator.warm_routed_ratio", "ratio"),
    ("orchestrator.locality_routed", "count"),
    ("orchestrator.retries", "count"), ("orchestrator.shed", "count"),
    ("chaos.self_s", "s"), ("chaos.spans", "count"),
    ("chaos.crashes", "count"), ("chaos.aborted_inflight", "count"),
    ("chaos.rereplicated", "count"),
    ("chaos.rereplication_failures", "count"),
    ("bench.self_s", "s"), ("bench.spans", "count"),
    ("bench.cells", "count"), ("bench.canonicalize_s", "s"),
    ("bench.cache_put_s", "s"),
    ("trace.untraced_invocations_per_s", "1/s"),
    ("trace.traced_invocations_per_s", "1/s"),
    ("trace.speed_ratio", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure(workload, seed: int, seconds: float) -> tuple[list, float]:
    """Run the workload's rounds, repeating them to fill ``seconds``.

    Rounds ``0..rounds-1`` carry the simulated results; later rounds
    repeat them for timing, and must reproduce their digests.  Returns
    the rounds and the peak RSS after the first pass, which unlike the
    end-of-run peak does not grow with the number of repeats.
    """
    from repro.sim.rng import derive_seed

    rounds = []
    started = time.perf_counter()
    while True:
        index = len(rounds) % workload.rounds
        # Every round starts from a collected heap, so the previous
        # round's garbage is not collected on this round's clock.
        gc.collect()
        outcome = workload.run_round(derive_seed(seed, "round", index))
        if len(rounds) >= workload.rounds:
            checks.check_same_digest(
                f"{workload.name} round {index} repeated",
                rounds[index].digest, outcome.digest)
        rounds.append(outcome)
        if len(rounds) == workload.rounds:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(rounds) >= workload.rounds and (
                time.perf_counter() - started >= seconds
                or len(rounds) >= MAX_ROUNDS):
            return rounds, rss_mb


def invocation_rate(workload, rounds) -> float:
    """Invocations per reference second of the measured phases.

    Each of rounds ``0..R-1`` counts once, with the median time of its
    repeats: the median steadies the host time, and pooling the rounds
    averages their different simulated work.
    """
    times = [statistics.median(outcome.timed_ref_s
                               for outcome in rounds[index::workload.rounds])
             for index in range(workload.rounds)]
    return sum(outcome.timed_invocations
               for outcome in rounds[:workload.rounds]) / sum(times)


def summed(rounds) -> dict[str, float]:
    totals: dict[str, float] = {}
    for outcome in rounds:
        for key, value in outcome.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def end_to_end(workload, rounds, ready_s: float, rss_mb: float,
               means) -> dict[str, float]:
    """Every end-to-end metric from the untraced rounds."""
    import workloads

    sim = rounds[:workload.rounds]
    cold_ms = [value for outcome in sim for value in outcome.cold_ms]
    if checks.samples_beyond(cold_ms, 0.90) < MIN_TAIL_SAMPLES:
        raise checks.CheckFailed(
            f"{workload.name}: {len(cold_ms)} cold starts leave fewer "
            f"than {MIN_TAIL_SAMPLES} samples beyond the p90")
    completed = sum(outcome.completed for outcome in sim)
    issued = sum(outcome.issued for outcome in sim)
    speedup, error_pct = workloads.accuracy(means)
    return {
        "setup_s": ready_s + statistics.median(
            outcome.setup_ref_s for outcome in rounds),
        "invocations_per_s": invocation_rate(workload, rounds),
        "peak_rss_mb": rss_mb,
        "completed_frac": completed / issued,
        "sim_cold_p50_ms": checks.nearest_rank(cold_ms, 0.50),
        "sim_cold_p90_ms": checks.nearest_rank(cold_ms, 0.90),
        "sim_cold_frac": sum(outcome.cold for outcome in sim) / sum(
            outcome.timed_invocations for outcome in sim),
        "sim_reap_speedup": speedup,
        "sim_error_pct": error_pct,
    }


def per_layer(workload, untraced, traced, tracer) -> dict[str, float]:
    """Every per-layer metric of the traced round 0, and the overhead."""
    counters = traced.counters
    metrics: dict[str, float] = {}
    for layer, (spans, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.spans"] = spans
    sim = untraced[:workload.rounds]
    reference_s = sum(outcome.setup_ref_s + outcome.timed_ref_s
                      for outcome in sim)
    c = counters.get
    metrics.update({
        "sim.events": c("sim.events", 0),
        "sim.host_us_per_event": 1e6 * ratio(
            reference_s, sum(outcome.counters["sim.events"] for outcome in sim)),
        "storage.pagecache_hits": c("storage.pagecache_hits", 0),
        "storage.pagecache_misses": c("storage.pagecache_misses", 0),
        "storage.pagecache_hit_ratio": ratio(
            c("storage.pagecache_hits", 0),
            c("storage.pagecache_hits", 0) + c("storage.pagecache_misses", 0)),
        "storage.device_read_requests": c("storage.device_read_requests", 0),
        "storage.device_read_mb": c("storage.device_read_bytes", 0) / 1e6,
        "storage.device_write_mb": c("storage.device_write_bytes", 0) / 1e6,
        "memory.demand_faults": c("memory.demand_faults", 0),
        "memory.major_faults": c("memory.major_faults", 0),
        "memory.prefetched_pages": c("memory.prefetched_pages", 0),
        "memory.prefetch_used_ratio": ratio(
            c("memory.prefetched_pages", 0) - c("memory.unused_prefetched", 0),
            c("memory.prefetched_pages", 0)),
        "memory.install_ws_ms": c("memory.install_ws_us", 0) / 1e3,
        "core.fetch_ws_ms": c("core.fetch_ws_us", 0) / 1e3,
        "core.record_s": untraced[0].record_s,
        "vm.load_vmm_ms": c("vm.load_vmm_us", 0) / 1e3,
        "vm.connection_ms": c("vm.connection_us", 0) / 1e3,
        "vm.snapshot_captures": c("vm.snapshot_captures", 0),
        "functions.processing_ms": c("functions.processing_us", 0) / 1e3,
        "snapstore.local_hits": c("snapstore.local_hits", 0),
        "snapstore.remote_misses": c("snapstore.remote_misses", 0),
        "snapstore.hit_ratio": ratio(
            c("snapstore.local_hits", 0),
            c("snapstore.local_hits", 0) + c("snapstore.remote_misses", 0)),
        "snapstore.promotions": c("snapstore.promotions", 0),
        "snapstore.promoted_mb": c("snapstore.promoted_bytes", 0) / 1e6,
        "snapstore.evictions": c("snapstore.evictions", 0),
        "snapstore.demoted_mb": c("snapstore.demoted_bytes", 0) / 1e6,
        "snapstore.coalesced": c("snapstore.coalesced", 0),
        "snapstore.bypassed": c("snapstore.bypassed", 0),
        "snapstore.promote_timeouts": c("snapstore.promote_timeouts", 0),
        "orchestrator.routed": c("orchestrator.routed", 0),
        "orchestrator.warm_routed_ratio": ratio(
            c("orchestrator.warm_routed", 0), c("orchestrator.routed", 0)),
        "orchestrator.locality_routed": c("orchestrator.locality_routed", 0),
        "orchestrator.retries": c("orchestrator.retries", 0),
        "orchestrator.shed": c("orchestrator.shed", 0),
        "chaos.crashes": c("chaos.crashes", 0),
        "chaos.aborted_inflight": c("chaos.aborted_inflight", 0),
        "chaos.rereplicated": c("chaos.rereplicated", 0),
        "chaos.rereplication_failures": c("chaos.rereplication_failures", 0),
        "bench.cells": c("bench.cells", 0),
        "bench.canonicalize_s": tracer.entry_self_s(
            "bench", "runner.canonicalize"),
        "bench.cache_put_s": tracer.entry_self_s("bench", "ResultCache.put"),
    })
    untraced_rate = invocation_rate(workload, untraced)
    traced_rate = traced.timed_invocations / traced.timed_ref_s
    metrics["trace.untraced_invocations_per_s"] = untraced_rate
    metrics["trace.traced_invocations_per_s"] = traced_rate
    metrics["trace.speed_ratio"] = traced_rate / untraced_rate
    return metrics


def run(args, workdir: str) -> dict:
    import workloads
    from hostclock import HostClock
    from layers import LayerTracer
    from repro.sim.rng import derive_seed

    workload = workloads.make(args.workload, workdir)
    workload.prepare()
    ready_host_s = time.perf_counter() - STARTED
    start = HostClock()
    for _ in range(START_PROBES):
        start.add(0.0)
    ready_s = ready_host_s * start.speed
    untraced, rss_mb = measure(workload, args.seed, args.seconds)
    sim = untraced[:workload.rounds]
    checks.check_positive(workload.name, summed(sim), workload.required)
    means = workload.accuracy_means(args.seed, sim)
    run_digest = checks.digest(
        [outcome.digest for outcome in sim]
        + [[function, list(pair)] for function, pair in sorted(means.items())])
    attempted = sum(outcome.issued for outcome in untraced)
    failed = sum(outcome.failed for outcome in untraced)
    manifest = (f"perfbench: workload={workload.name} seed={args.seed} "
                f"git_rev={git_rev()} python={platform.python_version()} "
                f"nproc={os.cpu_count()} rounds={len(untraced)} "
                f"digest={run_digest}")
    if args.trace:
        # Round 0 only: traced rounds run several times slower, and one
        # holds every layer's work.
        with LayerTracer() as tracer:
            traced = workload.run_round(derive_seed(args.seed, "round", 0))
        checks.check_same_digest(f"{workload.name} traced round 0",
                                 sim[0].digest, traced.digest)
        metrics = per_layer(workload, untraced, traced, tracer)
        names = PER_LAYER
        print(tracer.report())
    else:
        metrics = end_to_end(workload, untraced, ready_s, rss_mb, means)
        names = END_TO_END
        cold_ms = [value for outcome in sim for value in outcome.cold_ms]
        print(f"perfbench: cold-start samples n={len(cold_ms)}, "
              f"beyond p90: {checks.samples_beyond(cold_ms, 0.90)}")
    print(manifest)
    print(f"perfbench: imports and inputs {ready_host_s:.3f} s at host "
          f"speed {start.speed:.3f}; rounds (set-up/measured host s, "
          f"measured-phase host speed): " + " ".join(
              f"{outcome.setup_s:.3f}/{outcome.timed_s:.3f}"
              f"@{outcome.timed_ref_s / outcome.timed_s:.3f}"
              for outcome in untraced))
    for name, unit in names:
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workroot = ROOT / ".perfbench-work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=workroot)
    try:
        result = run(args, workdir)
    except checks.CheckFailed as error:
        print(f"perfbench: correctness check failed: {error}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
