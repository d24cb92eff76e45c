"""Paired wall-time gates: ``python -m repro bench``.

A gate times one workload two ways, side A and side B, interleaved for
five pairs, and reports the median per-pair wall-time ratio B/A.  Host
drift hits both sides of a pair alike and cancels in the ratio; the
median drops outlier pairs (the cold first pair among them).  Every
pair must also do identical deterministic work on both sides:
instrumentation observes, it does not perturb.

These gates pin only what a same-run comparison can.  The repository's
end-to-end benchmark is ``perfbench/`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import statistics
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path


class BenchError(RuntimeError):
    """The two sides of a gate did different deterministic work."""


@dataclass(frozen=True)
class Work:
    """A fuzz loop's deterministic counters: equal on every machine."""

    iterations: int
    events_examined: int
    cycles: int
    instructions: int
    coverage: int
    findings: int


def fuzz_loop(scenario: str, iterations: int, telemetry: bool = False,
              checkpoint_every: int = 0) -> tuple[float, Work]:
    """Time one serial fuzz loop; the offline phase is paid untimed.

    ``telemetry`` installs a live recorder around the loop;
    ``checkpoint_every`` snapshots the loop and atomically writes a real
    checkpoint that often, as a campaign with a store does.
    """
    from repro import telemetry as telemetry_mod
    from repro.scenarios import resolve_scenario
    from repro.scenarios.checkpoint import checkpoint_record, save_checkpoint

    spec = resolve_scenario(scenario).override(iterations=iterations)
    campaign = spec.build_specure().build_campaign()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        hooks = {}
        if checkpoint_every:
            hooks = {"checkpoint_every": checkpoint_every,
                     "on_checkpoint": lambda next_iteration, result:
                     save_checkpoint(scratch, 0, checkpoint_record(
                         0, spec.seed, next_iteration, campaign, result))}
        recorder = (telemetry_mod.enable() if telemetry
                    else telemetry_mod.recorder())
        try:
            started = time.perf_counter()
            with recorder.span("campaign"):
                report = campaign.run(iterations,
                                      stop_when=spec.stop_predicate(),
                                      **hooks)
            seconds = time.perf_counter() - started
        finally:
            if telemetry:
                telemetry_mod.disable()
    return seconds, Work(
        iterations=report.fuzz.iterations,
        events_examined=campaign.online.events_examined,
        cycles=report.stats.cycles,
        instructions=report.stats.instructions,
        coverage=report.fuzz.final_coverage(),
        findings=len(report.fuzz.findings),
    )


def scenario_run(scenario: str, iterations: int, shards: int,
                 jobs: int) -> tuple[float, bytes]:
    """Time ``run_scenario`` into a scratch run directory (no
    minimization); the work fingerprint is the persisted ``report.txt``."""
    from repro.scenarios import resolve_scenario, run_scenario

    spec = resolve_scenario(scenario).override(iterations=iterations,
                                               shards=shards)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        run_dir = Path(scratch) / "run"
        started = time.perf_counter()
        run_scenario(spec, run_dir=run_dir, jobs=jobs, minimize=False)
        seconds = time.perf_counter() - started
        return seconds, (run_dir / "report.txt").read_bytes()


@dataclass(frozen=True)
class Gate:
    """``run(scenario, iterations, **a)`` vs ``run(scenario, iterations,
    **b)``: the median B/A wall-time ratio must not exceed ``max_ratio``."""

    name: str
    run: Callable[..., tuple[float, object]]
    a: dict
    b: dict
    max_ratio: float
    scenario: str = "quickstart"
    iterations: int = 60


TELEMETRY = Gate("telemetry", fuzz_loop, {}, {"telemetry": True}, 1.03)
CHECKPOINT = Gate("checkpoint", fuzz_loop, {}, {"checkpoint_every": 25}, 1.03)
#: jobs=2 must be at least 1.2x faster than jobs=1.
JOBS = Gate("jobs", scenario_run, {"shards": 2, "jobs": 1},
            {"shards": 2, "jobs": 2}, 1 / 1.2)
GATES = (TELEMETRY, CHECKPOINT, JOBS)


@dataclass(frozen=True)
class Paired:
    """One gate's measurement: per-pair B/A ratios and the shared work."""

    gate: Gate
    ratios: tuple[float, ...]
    work: object

    @property
    def ratio(self) -> float:
        return statistics.median(self.ratios)

    @property
    def passed(self) -> bool:
        return self.ratio <= self.gate.max_ratio

    def render(self) -> str:
        pairs = " ".join(f"{ratio:.3f}" for ratio in self.ratios)
        return (f"{self.gate.name}: median B/A wall time {self.ratio:.3f} "
                f"(bound {self.gate.max_ratio:.3f}; pairs {pairs}) "
                f"{'ok' if self.passed else 'FAIL'}")


def measure(gate: Gate, pairs: int = 5) -> Paired:
    """Run ``gate``'s sides interleaved, alternating which goes first."""
    ratios, work = [], None
    for pair in range(pairs):
        timed = {}
        for side in ((False, True) if pair % 2 == 0 else (True, False)):
            timed[side] = gate.run(gate.scenario, gate.iterations,
                                   **(gate.b if side else gate.a))
        (seconds_a, work_a), (seconds_b, work_b) = timed[False], timed[True]
        if work_b != work_a or (work is not None and work_a != work):
            raise BenchError(f"{gate.name}: pair {pair + 1} did different "
                             f"deterministic work from side A or an "
                             f"earlier pair")
        work = work_a
        ratios.append(seconds_b / seconds_a)
    return Paired(gate, tuple(ratios), work)
