"""Shared property/golden test helpers for the experiment suites.

Three facilities, each reused across test modules:

* :func:`seeded_cases` -- a deterministic case generator over
  (function, trace class, restore scheme) combinations for property
  tests that want varied-but-reproducible coverage without enumerating
  the full cross product;
* :func:`assert_cell_digest_stable` -- a golden-digest assertion: run
  an experiment's cells with fixed params and compare each cell's
  canonical payload digest against ``tests/golden_digests.json``.
  Regenerate the goldens with ``REPRO_UPDATE_GOLDEN=1``;
* :func:`prewarm_orchestrator` and :func:`drive_prewarm_arrivals` -- a
  1-worker orchestrator under the ``prewarm`` scheme, fed evenly spaced
  ``helloworld`` arrivals so speculative restores fire (the floor-study
  mixes fire at most one).

The golden file is the zero-cost-off witness for optional layers
(observability in PR 8, the cold-start policy layer in this PR): the
pinned digests were produced before the layer existed, so any change to
a default-config payload fails the comparison.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.bench.cache import canonicalize
from repro.bench.experiments import EXPERIMENTS, resolve
from repro.bench.experiments.spec import run_cell_checked
from repro.bench.perf import payload_digest
from repro.functions import get_profile
from repro.orchestrator.orchestrator import InvocationResult, Orchestrator
from repro.policies import PolicyLayerParameters
from repro.sim.engine import Environment
from repro.sim.units import SEC
from repro.snapstore.tier import TierParameters
from repro.vm.host import WorkerHost

#: Where the pinned digests live (committed to the repo).
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"

#: Pools the case generator draws from.  Kept to the light catalog
#: subset so property tests stay fast; schemes cover the full policy
#: zoo (vanilla/REAP plus the four floor_study schemes).
FUNCTION_POOL: Sequence[str] = ("helloworld", "pyaes", "json_serdes")
TRACE_CLASS_POOL: Sequence[str] = ("sporadic", "periodic", "bursty",
                                   "azure")
SCHEME_POOL: Sequence[str] = ("vanilla", "reap", "overlap", "predict",
                              "shared", "prewarm")


@dataclass(frozen=True)
class Case:
    """One generated property-test case."""

    seed: int
    function: str
    trace_class: str
    scheme: str


def seeded_cases(seed: int, count: int,
                 functions: Sequence[str] = FUNCTION_POOL,
                 trace_classes: Sequence[str] = TRACE_CLASS_POOL,
                 schemes: Sequence[str] = SCHEME_POOL) -> list[Case]:
    """``count`` deterministic cases drawn from the given pools.

    The same ``seed`` always yields the same case list (the generator
    is an explicitly seeded :class:`random.Random`, which the
    determinism linter permits), so a failing case can be re-run by
    index without any shrinking machinery.
    """
    rng = random.Random(seed)
    return [Case(seed=rng.randrange(1 << 16),
                 function=rng.choice(list(functions)),
                 trace_class=rng.choice(list(trace_classes)),
                 scheme=rng.choice(list(schemes)))
            for _ in range(count)]


def cell_digests(experiment_id: str, **kwargs: Any) -> dict[str, str]:
    """Run every cell of ``experiment_id`` and digest its payload.

    Payloads are canonicalized (JSON round-trip) before digesting --
    exactly what the cache and the parallel runner ship -- so a digest
    match is byte-level evidence the cell results are unchanged.
    """
    experiment = EXPERIMENTS[resolve(experiment_id)]
    digests: dict[str, str] = {}
    for cell in experiment.cells(**kwargs):
        payload = canonicalize(run_cell_checked(experiment, cell))
        digests[cell.label] = payload_digest(payload)
    return digests


def golden_key(experiment_id: str, **kwargs: Any) -> str:
    """Stable golden-file key: canonical id + sorted canonical kwargs."""
    encoded = json.dumps(canonicalize(kwargs), sort_keys=True)
    return f"{resolve(experiment_id)}|{encoded}"


def load_golden() -> dict[str, dict[str, str]]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def _save_golden(golden: dict[str, dict[str, str]]) -> None:
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n")


def assert_cell_digest_stable(experiment_id: str,
                              seeds: Iterable[int] = (42,),
                              **kwargs: Any) -> None:
    """Assert every cell digest matches the committed golden file.

    One golden entry per (experiment, seed, kwargs) triple.  Set
    ``REPRO_UPDATE_GOLDEN=1`` to (re)record instead of asserting --
    review the resulting ``golden_digests.json`` diff like any other
    baseline change.
    """
    update = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"
    golden = load_golden()
    for seed in seeds:
        key = golden_key(experiment_id, seed=seed, **kwargs)
        digests = cell_digests(experiment_id, seed=seed, **kwargs)
        if update:
            golden[key] = digests
            _save_golden(golden)
            continue
        assert key in golden, (
            f"no golden entry for {key}; record one with "
            f"REPRO_UPDATE_GOLDEN=1")
        expected = golden[key]
        assert digests == expected, (
            f"cell digests drifted for {key}:\n"
            f"  expected {expected}\n  got      {digests}")


def prewarm_orchestrator(seed: int = 7, tiered: bool = True) -> Orchestrator:
    """1-worker orchestrator under the ``prewarm`` scheme.

    ``tiered`` puts the artifacts in a default local tier over remote
    storage.  ``helloworld`` is deployed; three observed gaps arm the
    prewarm timer.
    """
    env = Environment()
    orchestrator = Orchestrator(
        WorkerHost(env, seed=seed), seed=seed,
        snapstore_params=TierParameters() if tiered else None,
        policy_params=PolicyLayerParameters(scheme="prewarm",
                                            prewarm_min_samples=3))
    env.run(until=env.process(
        orchestrator.deploy(get_profile("helloworld"))))
    return orchestrator


def drive_prewarm_arrivals(orchestrator: Orchestrator,
                           arrivals: int = 12) -> list[InvocationResult]:
    """Invoke ``helloworld`` ``arrivals`` times, 30 s apart.

    Every invocation is followed by evicting the warm pool, so each
    warm hit comes from a prewarm; on a tiered orchestrator every 4th
    also drops the local tier, so the next restore promotes its
    artifacts again.  The run ends 30 s after the last arrival, with
    the prewarm timers still armed.
    """
    env = orchestrator.env

    def drive():
        results = []
        for index in range(arrivals):
            result = yield from orchestrator.invoke("helloworld")
            results.append(result)
            orchestrator.evict_warm("helloworld")
            if index % 4 == 3 and orchestrator.snapstore is not None:
                orchestrator.snapstore.cache.lose_local()
            yield env.timeout(30.0 * SEC)
        return results

    return env.run(until=env.process(drive()))
