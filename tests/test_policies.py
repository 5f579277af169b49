"""The cold-start policy zoo: scheme behavior, sharing properties, crashes.

Covers the :mod:`repro.policies` layer three ways:

* scheme behavior -- each of the four schemes does what its docstring
  claims on a live testbed (overlap beats REAP cold-for-cold, predict
  prefetches prior generations' demand sets, shared elides fetches for
  co-resident chunks, prewarm converts predictable arrivals into warm
  hits) and the layer is zero-cost when absent;
* residency properties -- refcounted chunk sharing over seeded random
  acquire/release interleavings (:func:`harness.seeded_cases` drives
  the case generation): refcounts never go negative, evicting a shared
  chunk charges only the last releaser, and ``shared_fraction`` agrees
  with :func:`repro.memory.working_set.reuse_between`;
* crash regression -- interrupting a prefetch/resume overlap mid-stream
  (the PR-9 worker-crash fault) unwinds the background stream and
  leaves nothing behind under ``REPRO_SANITIZE=1``; so does crashing a
  speculative prewarm in any restore phase.  A tiered 12-arrival
  prewarm scenario is pinned invocation by invocation.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from harness import (
    drive_prewarm_arrivals,
    prewarm_orchestrator,
    seeded_cases,
)
from repro.bench.harness import Testbed
from repro.functions import get_profile
from repro.memory.working_set import reuse_between
from repro.policies import (
    SCHEMES,
    ColdStartPolicyLayer,
    OverlapPolicy,
    PolicyLayerParameters,
    PredictPolicy,
    PrewarmManager,
    SharedPolicy,
    SharedResidency,
)
from repro.obs import tracer as obs_tracer
from repro.sim import sanitizer
from repro.sim.engine import Interrupt
from repro.sim.units import SEC


def policy_testbed(scheme=None, seed=7, **params):
    policy_params = None
    if scheme is not None:
        policy_params = PolicyLayerParameters(scheme=scheme, **params)
    testbed = Testbed(seed=seed, policy_params=policy_params)
    testbed.deploy(get_profile("helloworld"))
    return testbed


def page_digest_map(pages):
    """Distinct 16-byte digest per page number (content ~ identity)."""
    return [page.to_bytes(16, "big") for page in pages]


# -- layer parameters and wiring --------------------------------------------


def test_layer_parameters_validate_scheme():
    with pytest.raises(ValueError):
        PolicyLayerParameters(scheme="psychic")
    assert PolicyLayerParameters(scheme="overlap").to_params() == {
        "scheme": "overlap", "memory_budget_mb": 1024.0}


def test_layer_off_by_default():
    testbed = policy_testbed()
    assert testbed.orchestrator.policy_layer is None
    assert testbed.invoke("helloworld").mode == "record"


def test_layer_only_redirects_the_reap_mode():
    testbed = policy_testbed(scheme="overlap")
    layer = testbed.orchestrator.policy_layer
    assert isinstance(layer, ColdStartPolicyLayer)
    assert layer.select_mode("helloworld", "record") == "record"
    assert layer.select_mode("helloworld", "vanilla") == "vanilla"
    assert layer.select_mode("helloworld", "reap") == "overlap"


def test_forced_modes_register_policies_lazily():
    # No layer installed: invoke(mode="overlap") must still resolve the
    # policy class through make_policy's lazy registration import.
    testbed = policy_testbed()
    testbed.invoke("helloworld")  # record
    result = testbed.invoke("helloworld", mode="overlap", use_warm=False)
    assert result.mode == "overlap"
    assert "overlap_stream_us" in result.breakdown.extra


# -- scheme behavior ---------------------------------------------------------


def cold_latency(testbed, mode):
    result = testbed.invoke("helloworld", mode=mode, use_warm=False)
    assert result.mode == mode
    return result.latency_us


def test_overlap_beats_reap_cold_for_cold():
    testbed = policy_testbed()
    testbed.invoke("helloworld")  # record
    reap = cold_latency(testbed, "reap")
    overlap = cold_latency(testbed, "overlap")
    assert overlap < reap
    # The stream still installs the full recorded set eventually.
    result = testbed.invoke("helloworld", mode="overlap", use_warm=False)
    state = testbed.orchestrator.reap.state_for("helloworld")
    assert result.breakdown.prefetched_pages == \
        len(state.artifacts.pages)


def test_predict_prefetches_prior_generations():
    testbed = policy_testbed(scheme="predict")
    first = testbed.invoke("helloworld", use_warm=False)
    assert first.mode == "record"
    second = testbed.invoke("helloworld", use_warm=False)
    assert second.mode == "predict"
    # Generation 1 only has the recorded set: nothing extra to predict.
    assert "predicted_extra_pages" not in second.breakdown.extra
    third = testbed.invoke("helloworld", use_warm=False)
    assert third.mode == "predict"
    # Generation 2 unions the previous generation's demand faults in.
    assert third.breakdown.extra["predicted_extra_pages"] > 0
    state = testbed.orchestrator.reap.state_for("helloworld")
    assert len(state.ws_history) >= 2


def test_shared_elides_fetches_for_co_resident_chunks():
    testbed = policy_testbed(scheme="shared")
    testbed.invoke("helloworld", use_warm=False)  # record
    # Hold one instance warm so its chunks stay resident.
    testbed.invoke("helloworld", use_warm=False, keep_warm=True)
    layer = testbed.orchestrator.policy_layer
    assert layer.residency.live_objects == 1
    baseline = policy_testbed()
    baseline.invoke("helloworld")
    reap = cold_latency(baseline, "reap")
    co_resident = testbed.invoke("helloworld", use_warm=False)
    assert co_resident.mode == "shared"
    assert co_resident.breakdown.extra["shared_hit_pages"] > 0
    assert co_resident.latency_us < reap


def test_shared_residency_released_on_teardown():
    testbed = policy_testbed(scheme="shared")
    testbed.invoke("helloworld", use_warm=False)
    testbed.invoke("helloworld", use_warm=False, keep_warm=True)
    layer = testbed.orchestrator.policy_layer
    assert layer.residency.live_objects == 1
    entry = testbed.orchestrator.function("helloworld")
    while entry.warm:
        testbed.orchestrator._teardown_instance(entry.warm.pop())
    assert layer.residency.live_objects == 0
    assert layer.residency.index.chunk_count == 0


def test_prewarm_converts_predictable_arrivals_to_warm_hits():
    testbed = policy_testbed(scheme="prewarm", prewarm_min_samples=3)
    layer = testbed.orchestrator.policy_layer

    def drive():
        modes = []
        for _ in range(8):
            result = yield from testbed.orchestrator.invoke("helloworld")
            modes.append(result.mode)
            yield testbed.env.timeout(30.0 * SEC)
        layer.stop()
        return modes

    modes = testbed.run(drive())
    assert modes[0] == "record"
    assert "warm" in modes  # a timer fired ahead of a predicted arrival
    assert layer.prewarm.prewarms >= 1


def test_prewarm_budget_blocks_speculation():
    testbed = policy_testbed(scheme="prewarm", prewarm_min_samples=3,
                             memory_budget_mb=0.0)
    layer = testbed.orchestrator.policy_layer

    def drive():
        modes = []
        for _ in range(8):
            result = yield from testbed.orchestrator.invoke("helloworld")
            modes.append(result.mode)
            yield testbed.env.timeout(30.0 * SEC)
        layer.stop()
        return modes

    modes = testbed.run(drive())
    assert "warm" not in modes
    assert layer.prewarm.prewarms == 0
    assert layer.prewarm.skipped >= 1


#: Per-invocation digests of the tiered prewarm scenario (see
#: :func:`result_digest`), recorded while prewarm still ran its own copy
#: of the restore pipeline.
PREWARM_SCENARIO_DIGESTS = [
    "ec78c024a2ef4c79", "efb7406ffcf13c7c", "2a0b59e89d54eeef",
    "c92053499666bc2f", "5e5426c0e088eda1", "8f7b3adc64f4df08",
    "0e559b895b04a7a9", "56d9f843cbe4f766", "c4cb4874ecbd4f8b",
    "1991a26cc66f126f", "bcb8522cbb54602a", "0416c0ff339c69de",
]


def result_digest(result):
    """Digest of one invocation's mode, timing and latency breakdown."""
    blob = json.dumps([result.mode, result.started_at, result.finished_at,
                       result.breakdown.to_dict()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_tiered_prewarm_scenario_is_pinned():
    orchestrator = prewarm_orchestrator()
    results = drive_prewarm_arrivals(orchestrator)
    orchestrator.policy_layer.stop()
    assert orchestrator.policy_layer.prewarm.prewarms == 9
    assert orchestrator.snapstore.cache.stats.promotions == 9
    assert [result_digest(result) for result in results] == \
        PREWARM_SCENARIO_DIGESTS


# -- residency properties ----------------------------------------------------


def random_object_digests(rng):
    pages = rng.sample(range(512), rng.randrange(4, 40))
    # Duplicate a few pages so intra-object dedup paths run too.
    pages += rng.sample(pages, min(len(pages), rng.randrange(0, 4)))
    return page_digest_map(pages)


@pytest.mark.parametrize("case", seeded_cases(seed=2024, count=12))
def test_residency_refcounts_never_negative(case):
    rng = random.Random(case.seed)
    residency = SharedResidency()
    live = {}
    for step in range(30):
        if live and rng.random() < 0.4:
            object_id = rng.choice(sorted(live))
            freed = residency.release(object_id)
            assert freed >= 0
            del live[object_id]
        else:
            object_id = f"vm{step}"
            live[object_id] = random_object_digests(rng)
            residency.acquire(object_id, live[object_id])
        assert all(count > 0
                   for count in residency.index._refs.values())
        assert residency.live_objects == len(live)
    for object_id in sorted(live):
        residency.release(object_id)
    assert residency.index.chunk_count == 0
    assert residency.live_objects == 0
    # Releasing an unknown object is a no-op, never an underflow.
    assert residency.release("never-acquired") == 0


@pytest.mark.parametrize("case", seeded_cases(seed=7, count=8))
def test_shared_chunk_eviction_charges_last_releaser(case):
    rng = random.Random(case.seed)
    shared_pages = rng.sample(range(256), 24)
    first_only = rng.sample(range(256, 512), 10)
    second_only = rng.sample(range(512, 768), 10)
    residency = SharedResidency()
    residency.acquire("first", page_digest_map(shared_pages + first_only))
    residency.acquire("second",
                      page_digest_map(shared_pages + second_only))
    index = residency.index
    stored_shared = sum(index._sizes[digest]
                        for digest in page_digest_map(shared_pages))
    stored_first_only = sum(index._sizes[digest]
                            for digest in page_digest_map(first_only))
    # First releaser pays only for its exclusive chunks...
    freed_first = residency.release("first")
    assert freed_first == stored_first_only
    for digest in page_digest_map(shared_pages):
        assert index.contains(digest)
    # ...the shared bytes are charged to whoever releases last.
    freed_second = residency.release("second")
    assert freed_second >= stored_shared
    assert index.chunk_count == 0


@pytest.mark.parametrize("case", seeded_cases(seed=99, count=8))
def test_shared_fraction_matches_reuse_between(case):
    rng = random.Random(case.seed)
    first = rng.sample(range(1024), rng.randrange(8, 80))
    second = rng.sample(range(1024), rng.randrange(8, 80))
    residency = SharedResidency()
    residency.acquire("base", page_digest_map(first))
    residency.acquire("other", page_digest_map(second))
    expected = reuse_between(first, second).same_fraction
    assert residency.shared_fraction("base", "other") == \
        pytest.approx(expected)


def test_resident_pages_counts_intra_object_duplicates():
    residency = SharedResidency()
    digests = page_digest_map([1, 2, 2, 3, 3, 3])
    # Nothing resident yet: only the repeat copies count as shared.
    assert residency.resident_pages(digests) == 3
    residency.acquire("holder", page_digest_map([2]))
    assert residency.resident_pages(digests) == 4


# -- crash regression --------------------------------------------------------


def test_overlap_interrupt_mid_stream_releases_transfer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitizer.reset()
    testbed = policy_testbed()
    testbed.invoke("helloworld")  # record
    reference = testbed.invoke("helloworld", mode="reap", use_warm=False)
    orchestrator = testbed.orchestrator
    env = testbed.env

    def driver():
        try:
            yield from orchestrator.invoke("helloworld", mode="overlap",
                                           use_warm=False)
        except Interrupt:
            return "interrupted"
        return "completed"

    process = env.process(driver(), name="crash-driver")
    # Land inside the restore window, while the WS stream is in flight.
    mid_stream = env.now + reference.breakdown.load_vmm_us \
        + reference.breakdown.fetch_ws_us * 0.5
    env.run(until=mid_stream)
    assert process.is_alive
    process.interrupt("worker-crash")
    assert env.run(until=process) == "interrupted"
    # One more tick lets the background stream unwind its finally.
    env.run(until=env.now + 1.0)
    sanitizer.assert_no_leaks(context="overlap mid-stream crash")
    # The crashed instance is gone; the next invocation works.
    assert not orchestrator.function("helloworld").warm
    result = testbed.invoke("helloworld", mode="overlap", use_warm=False)
    assert result.mode == "overlap"
    sanitizer.assert_no_leaks(context="overlap after crash recovery")


@pytest.mark.parametrize("phase", ["artifact_ensure", "prepare",
                                   "connection"])
def test_prewarm_interrupted_mid_restore_leaves_nothing_behind(
        monkeypatch, phase):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitizer.reset()
    tracer = obs_tracer.install()
    try:
        orchestrator = prewarm_orchestrator()
        env = orchestrator.env
        manager = orchestrator.policy_layer.prewarm
        lane = "prewarm:helloworld"
        policies = []
        build_policy = orchestrator._policy_for
        real_prewarm = orchestrator.prewarm

        def policy_for(*args):
            policies.append(build_policy(*args))
            return policies[-1]

        def crash_in_phase(timer):
            # Poll until the restore is 100 us into ``phase``.
            while True:
                yield env.timeout(100.0)
                if any(span.name == phase and span.lane == lane
                       for span in tracer.open_spans()):
                    break
            timer.interrupt("worker-crash")

        def prewarm(name):
            env.process(crash_in_phase(manager._timers[name]))
            return (yield from real_prewarm(name))

        monkeypatch.setattr(orchestrator, "_policy_for", policy_for)
        monkeypatch.setattr(orchestrator, "prewarm", prewarm)
        # Four arrivals arm the timer and drop the local tier; the
        # prewarm then fires (and crashes) during the final 30 s wait.
        drive_prewarm_arrivals(orchestrator, arrivals=4)
        orchestrator.policy_layer.stop()

        assert manager.prewarms == 0
        assert not orchestrator.function("helloworld").warm
        assert all(entry.pins == 0 for entry in
                   orchestrator.snapstore.cache.entries_for_leak_check())
        if phase != "artifact_ensure":
            # The last policy built is the prewarm's (REAP, uffd-backed).
            assert policies[-1].uffd.closed
        spans = [span for span in tracer.spans if span.lane == lane]
        assert all(span.closed for span in spans)
        statuses = {span.name: span.status for span in spans
                    if span.name != "fault_window"}
        assert statuses.pop("prewarm") == "error"
        assert statuses.pop(phase) == "error"
        # Phases that finished before the crash stay closed ``ok``.
        order = ["artifact_ensure", "load_vmm", "prepare", "connection"]
        assert statuses == {name: "ok"
                            for name in order[:order.index(phase)]}
        sanitizer.assert_no_leaks(context=f"prewarm crash in {phase}")
    finally:
        obs_tracer.uninstall()


def test_scheme_constants_agree_with_registry():
    from repro.core.policies import POLICIES

    assert SCHEMES == ("vanilla", "reap", "overlap", "predict", "shared",
                       "prewarm")
    import repro.policies  # noqa: F401  (registration side effect)
    for name, cls in (("overlap", OverlapPolicy),
                      ("predict", PredictPolicy),
                      ("shared", SharedPolicy)):
        assert POLICIES[name] is cls
    assert PrewarmManager is not None
