"""Correctness checks, percentiles and result digests for every workload.

Each check raises :class:`CheckFailed`; ``run.py`` turns that into a
non-zero exit without printing a result line.  The self-test feeds each
check a deliberately corrupted input to prove it can fail.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping, Sequence


class CheckFailed(Exception):
    """A benchmark correctness check did not hold."""


#: Relative tolerance of the breakdown-sum check (float summation order).
SUM_TOLERANCE = 1e-9


def check_accounting(label: str, issued: int, completed: int,
                     failed: int) -> None:
    """Every issued invocation either completed or failed, exactly once."""
    if completed + failed != issued:
        raise CheckFailed(
            f"{label}: completed {completed} + failed {failed} "
            f"!= issued {issued}")


def phase_sum_us(result) -> float:
    """Sum of an invocation's breakdown phases, in simulated us.

    The stacked-bar phases plus the tiered store's promote wait, which
    the orchestrator books in ``breakdown.extra`` rather than a field.
    """
    breakdown = result.breakdown
    return breakdown.total_us + float(
        breakdown.extra.get("snapstore_promote_us", 0.0))


def check_breakdowns(label: str, results: Iterable[Any]) -> None:
    """Each invocation's breakdown phases sum to its latency."""
    for result in results:
        latency = result.latency_us
        gap = abs(phase_sum_us(result) - latency)
        if gap > SUM_TOLERANCE * max(1.0, abs(latency)):
            raise CheckFailed(
                f"{label}: {result.function}#{result.invocation} "
                f"({result.mode}) phases sum to {phase_sum_us(result):.3f} "
                f"us but latency is {latency:.3f} us")


def check_reap_not_slower(label: str,
                          means: Mapping[str, tuple[float, float]]) -> None:
    """REAP cold starts are no slower than vanilla ones, per function."""
    for function, (vanilla_ms, reap_ms) in sorted(means.items()):
        if reap_ms > vanilla_ms:
            raise CheckFailed(
                f"{label}: {function} REAP cold start {reap_ms:.3f} ms is "
                f"slower than vanilla {vanilla_ms:.3f} ms")


def check_same_digest(label: str, expected: str, got: str) -> None:
    """Two runs of the same simulated work produced the same results."""
    if expected != got:
        raise CheckFailed(f"{label}: digest {got} != {expected}")


def check_positive(label: str, counters: Mapping[str, float],
                   names: Sequence[str]) -> None:
    """Counters a workload exists to exercise must be non-zero."""
    for name in names:
        if not counters.get(name, 0) > 0:
            raise CheckFailed(f"{label}: {name} is {counters.get(name, 0)}, "
                              f"expected > 0")


def digest(payload: Any) -> str:
    """Stable short hash of a JSON-serializable payload (floats exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def invocation_record(result) -> list[Any]:
    """The simulated facts of one invocation that enter a digest."""
    return [result.function, result.invocation, result.mode,
            result.started_at, result.finished_at,
            result.breakdown.to_dict()]


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of unsorted values (``inf`` sorts last)."""
    from repro.analysis.aggregate import percentile

    return percentile(sorted(values), fraction)


def samples_beyond(values: Sequence[float], fraction: float) -> int:
    """How many samples lie strictly above the percentile."""
    cut = nearest_rank(values, fraction)
    return sum(1 for value in values if value > cut)
