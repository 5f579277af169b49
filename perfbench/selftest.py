"""Self-test of the benchmark itself.

Run from the repository root (takes about four minutes)::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with
  the same units;
* every workload, in both modes, prints every named metric with its
  unit, and each per-layer metric is non-zero on its heavy workload;
* two runs of one seed print the same simulated-results digest, and
  pausing a replay for host-speed probes does not change its digest;
* every correctness check fails when fed a deliberately corrupted
  result, and passes on the uncorrupted one.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402

#: Per-layer metric prefix -> the workload where it must be non-zero.
HEAVY = {
    "sim.": "azure-vanilla",
    "storage.": "azure-vanilla",
    "memory.demand_faults": "azure-vanilla",
    "memory.major_faults": "azure-vanilla",
    "memory.": "azure-reap",
    "core.": "azure-reap",
    "vm.": "azure-vanilla",
    "functions.": "azure-vanilla",
    "snapstore.": "fleet-faults",
    "orchestrator.": "fleet-faults",
    "chaos.": "fleet-faults",
    "bench.": "catalog-coldstarts",
    "trace.": "azure-vanilla",
}

#: Zero by design on every workload (see README.md): fleet-faults sheds
#: nothing, runs promotes without a deadline, and drains re-replication
#: pulls before shutdown, the only thing that can fail them.
ZERO_BY_DESIGN = ("orchestrator.shed", "snapstore.promote_timeouts",
                  "chaos.rereplication_failures")

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def heavy_workload(metric: str) -> str:
    prefix = max((prefix for prefix in HEAVY if metric.startswith(prefix)),
                 key=len)
    return HEAVY[prefix]


def bench_run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One full-size run with no time filling; (result, digest)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    manifest = next(line for line in lines
                    if line.startswith("perfbench: workload="))
    return json.loads(lines[-1]), manifest.rsplit("digest=", 1)[1]


def check_declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        declared = [(entry["name"], entry["unit"]) for entry in spec[key]]
        expect(declared == list(printed),
               f"BENCHMARK.json {key} matches run.py names and units")
    expect([entry["name"] for entry in spec["workloads"]]
           == list(__import__("workloads").WORKLOAD_NAMES),
           "BENCHMARK.json workloads match workloads.WORKLOAD_NAMES")
    return spec


def check_printed(workload: str, result: dict, names) -> None:
    metrics = result["metrics"]
    expect(result["correct"] is True and result["attempted"] >= 1
           and result["failed"] == 0,
           f"{workload}: correct, attempted >= 1, nothing failed")
    expect([(name, metrics[name]["unit"]) for name in metrics]
           == list(names), f"{workload}: every metric printed with its unit")
    expect(all(isinstance(entry["value"], (int, float))
               and math.isfinite(entry["value"])
               for entry in metrics.values()),
           f"{workload}: every value is a finite number")


def check_workloads() -> None:
    import workloads

    per_layer: dict[str, dict] = {}
    digests: dict[str, str] = {}
    for workload in workloads.WORKLOAD_NAMES:
        result, digests[workload] = bench_run(workload, 7, 0)
        check_printed(workload, result, run.END_TO_END)
        traced, traced_digest = bench_run(workload, 7, 1)
        check_printed(f"{workload} --trace 1", traced, run.PER_LAYER)
        expect(digests[workload] == traced_digest,
               f"{workload}: same digest with and without --trace")
        per_layer[workload] = traced["metrics"]
    _, again = bench_run("azure-reap", 7, 0)
    _, other = bench_run("azure-reap", 8, 0)
    expect(again == digests["azure-reap"],
           "azure-reap: two runs of one seed, one digest")
    expect(other != again, "azure-reap: another seed, another digest")
    for name, _unit in run.PER_LAYER:
        if name in ZERO_BY_DESIGN:
            continue
        workload = heavy_workload(name)
        expect(per_layer[workload][name]["value"] > 0,
               f"{name} is non-zero on {workload}")


def check_replay_pauses() -> None:
    """Pausing a replay for host-speed probes leaves its results alone."""
    import workloads

    workroot = ROOT / ".perfbench-work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as workdir:
        workload = workloads.make("fleet-faults", workdir)
        workload.prepare()
        paused = workload.run_round(5).digest
        every = workloads.PROBE_EVERY
        workloads.PROBE_EVERY = len(workload.trace)
        try:
            expect(not workload.replay_checkpoints(0.0),
                   "fleet-faults: a replay can run without pauses")
            straight = workload.run_round(5).digest
        finally:
            workloads.PROBE_EVERY = every
    expect(paused == straight,
           "fleet-faults: a paused replay gives the unpaused digest")
    try:
        workroot.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def one_invocation():
    from repro.bench.harness import Testbed
    from repro.functions import get_profile

    testbed = Testbed(seed=3)
    testbed.deploy(get_profile("helloworld"))
    return testbed.invoke("helloworld", mode="vanilla")


def rejects(label: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed:
        expect(True, f"corrupted input fails: {label}")
    else:
        expect(False, f"corrupted input fails: {label}")


def accepts(label: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as error:
        expect(False, f"clean input passes: {label} ({error})")
    else:
        expect(True, f"clean input passes: {label}")


class _StubWorkload:
    """Two rounds whose repeat comes back with a different digest."""

    name = "stub"
    rounds = 2

    def __init__(self) -> None:
        self.calls = 0

    def run_round(self, seed: int):
        self.calls += 1
        return dataclasses.replace(
            _StubWorkload.template, digest=f"{seed}-{self.calls // 3}")


def check_corruptions() -> None:
    import workloads
    from repro.bench.cache import ResultCache

    result = one_invocation()
    accepts("accounting", checks.check_accounting, "t", 10, 9, 1)
    rejects("accounting", checks.check_accounting, "t", 10, 9, 0)
    accepts("breakdown sum", checks.check_breakdowns, "t", [result])
    rejects("breakdown sum (late finish)", checks.check_breakdowns, "t",
            [dataclasses.replace(result, finished_at=result.finished_at
                                 + 1.0)])
    slow_load = dataclasses.replace(
        result, breakdown=dataclasses.replace(
            result.breakdown, load_vmm_us=result.breakdown.load_vmm_us
            + 5.0))
    rejects("breakdown sum (inflated phase)", checks.check_breakdowns, "t",
            [slow_load])
    accepts("REAP no slower", checks.check_reap_not_slower, "t",
            {"f": (230.0, 57.0)})
    rejects("REAP no slower", checks.check_reap_not_slower, "t",
            {"f": (230.0, 57.0), "g": (100.0, 100.5)})
    record = checks.invocation_record(result)
    tampered = checks.invocation_record(slow_load)
    accepts("digest", checks.check_same_digest, "t",
            checks.digest(record), checks.digest(list(record)))
    rejects("digest", checks.check_same_digest, "t",
            checks.digest(record), checks.digest(tampered))
    rejects("required counters", checks.check_positive, "t",
            {"orchestrator.retries": 0, "snapstore.evictions": 3},
            ["orchestrator.retries", "snapstore.evictions"])
    expect(checks.samples_beyond([1.0] * 95 + [2.0] * 5, 0.90) < 10,
           "p90 validity: 5 tail samples are too few")
    expect(checks.samples_beyond(list(range(100)), 0.90) == 10,
           "p90 validity: 100 samples leave 10 beyond")

    _StubWorkload.template = workloads.Round(
        setup_s=0.1, timed_s=1.0, setup_ref_s=0.1, timed_ref_s=1.0,
        record_s=0.0, timed_invocations=1,
        issued=1, completed=1, failed=0, cold=1, cold_ms=[1.0],
        counters={}, digest="")
    rejects("repeated round digest", run.measure, _StubWorkload(), 1, 10.0)

    workroot = ROOT / ".perfbench-work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as workdir:
        accepts("fig8 sweep", workloads.catalog_round, ["helloworld"], 1,
                5, workdir, "selftest")
        get = ResultCache.get

        def stale_get(cache, cell):
            payload = get(cache, cell)
            if payload is not None:
                payload["row"]["reap_ms"] += 1.0
            return payload

        ResultCache.get = stale_get
        try:
            rejects("fig8 cache round trip", workloads.catalog_round,
                    ["helloworld"], 1, 5, workdir, "selftest")
        finally:
            ResultCache.get = get
    try:
        workroot.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def main() -> int:
    check_declared_metrics()
    check_corruptions()
    check_replay_pauses()
    check_workloads()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
