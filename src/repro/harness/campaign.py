"""Campaign runners for the paper's experiments.

Wraps the Specure facade for the experiment shapes the evaluation
needs: *coverage campaigns* (Figure 2: covered-PDLC-versus-iteration
curves, repeated and averaged), *detection campaigns* (Table 2 /
detection-time: iterations until a given vulnerability class is first
reported), and *time-budgeted campaigns* (the paper's 24-hour runs,
scaled to seconds).

Coverage campaigns take ``jobs``: with ``jobs >= 2`` the repeats fan
out across worker processes via :mod:`repro.harness.parallel`, with
deterministic per-repeat seeds, and the curves come back exactly as
the serial run produces them — see the determinism contract in that
module's docstring.  Detection and timed campaigns run serially;
sharded campaigns are scenarios (:func:`repro.scenarios.run_scenario`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.boom.config import BoomConfig
from repro.core.report import CampaignReport
from repro.core.specure import Specure


@dataclass
class CoverageCurve:
    """One campaign's covered-PDLC-per-iteration series."""

    label: str
    values: list[int] = field(default_factory=list)

    def as_points(self, stride: int = 1) -> list[tuple[float, float]]:
        return [
            (index + 1, value)
            for index, value in enumerate(self.values)
            if index % stride == 0 or index == len(self.values) - 1
        ]

    def final(self) -> int:
        return self.values[-1] if self.values else 0

    def iterations_to(self, target: int) -> int | None:
        for index, value in enumerate(self.values):
            if value >= target:
                return index + 1
        return None


def align_curves(curves: list[CoverageCurve]) -> list[list[int]]:
    """Pad every curve to the longest length with its final value.

    Cumulative coverage holds its last count once a campaign stops, so a
    run that ended early (deadline, stop predicate) is extended with its
    final value rather than silently truncating the others.
    """
    length = max((len(curve.values) for curve in curves), default=0)
    padded = []
    for curve in curves:
        tail = curve.values[-1] if curve.values else 0
        padded.append(
            curve.values + [tail] * (length - len(curve.values))
        )
    return padded


def mean_curve(curves: list[CoverageCurve], label: str) -> CoverageCurve:
    """Pointwise mean of the curves (the paper averages 3 runs).

    Unequal-length curves are aligned first (shorter curves hold their
    final coverage count), so an early-stopping repeat no longer drags
    the Figure 2 average down to the shortest run.
    """
    if not curves:
        raise ValueError("no curves to average")
    padded = align_curves(curves)
    length = len(padded[0])
    values = [
        sum(values[index] for values in padded) / len(curves)
        for index in range(length)
    ]
    return CoverageCurve(label=label, values=[int(v) for v in values])


def _coverage_repeat(
    config: BoomConfig,
    coverage: str,
    iterations: int,
    seed: int,
    repeat: int,
) -> CoverageCurve:
    """One coverage-campaign repeat — the unit both the serial loop and
    the parallel shard workers execute, so their results are identical."""
    specure = Specure(config, seed=seed, coverage=coverage)
    campaign = specure.build_campaign()
    campaign.run(iterations)
    return CoverageCurve(
        label=f"{coverage}#{repeat}",
        values=list(campaign.online.lp_curve),
    )


def _coverage_repeat_star(args) -> CoverageCurve:
    """Picklable adapter for shard workers (module-level by necessity)."""
    return _coverage_repeat(*args)


def run_coverage_campaign(
    config: BoomConfig,
    coverage: str,
    iterations: int,
    repeats: int = 3,
    base_seed: int = 0,
    jobs: int | None = None,
) -> list[CoverageCurve]:
    """Run ``repeats`` fuzzing campaigns with the given coverage feedback.

    Both arms (LP and code coverage) report their progress in *covered
    PDLCs* — Figure 2's y-axis — regardless of which metric guided the
    fuzzer.  For the code-coverage arm this means the LP calculator runs
    as a passive observer on every iteration.

    With ``jobs >= 2`` the repeats run in parallel worker processes;
    repeat ``k`` always uses the deterministic
    :func:`~repro.harness.parallel.shard_seed`, so the returned curves
    are byte-identical to a serial run.
    """
    from repro.harness.parallel import map_shards, shard_seed

    specs = [
        (config, coverage, iterations,
         shard_seed(base_seed, repeat), repeat)
        for repeat in range(repeats)
    ]
    return map_shards(_coverage_repeat_star, specs, jobs)


@dataclass
class DetectionOutcome:
    """First-detection iterations for each vulnerability kind."""

    tool: str
    iterations_budget: int
    first_detection: dict[str, int] = field(default_factory=dict)

    def detected(self, kind: str) -> bool:
        return kind in self.first_detection


def run_detection_campaign(
    config: BoomConfig,
    kinds: list[str],
    iterations: int,
    seed: int = 0,
    monitor_dcache: bool = True,
    use_special_seeds: bool = True,
) -> DetectionOutcome:
    """Fuzz until every kind in ``kinds`` is found or the budget ends."""
    specure = Specure(
        config,
        seed=seed,
        coverage="lp",
        monitor_dcache=monitor_dcache,
        use_special_seeds=use_special_seeds,
    )
    remaining = set(kinds)

    def stop(findings) -> bool:
        for finding in findings:
            remaining.discard(finding.kind)
        return not remaining

    report = specure.campaign(iterations, stop_when=stop)
    outcome = DetectionOutcome(tool="specure", iterations_budget=iterations)
    for kind in kinds:
        iteration = report.first_detection_iteration(kind)
        if iteration is not None:
            outcome.first_detection[kind] = iteration + 1  # 1-based
    return outcome


def run_timed_campaign(
    config: BoomConfig,
    seconds: float,
    coverage: str = "lp",
    seed: int = 0,
    monitor_dcache: bool = True,
) -> CampaignReport:
    """Run a campaign for (approximately) a wall-clock budget.

    The paper's experiments are time-budgeted (24-hour runs); this is
    the scaled equivalent.  The deadline is checked between iterations,
    so the run overshoots by at most one evaluation.
    """
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    specure = Specure(config, seed=seed, coverage=coverage,
                      monitor_dcache=monitor_dcache)
    deadline = time.monotonic() + seconds

    def out_of_time(_findings) -> bool:
        return time.monotonic() >= deadline

    # The iteration cap is a backstop; the deadline does the real work.
    return specure.campaign(10_000_000, stop_when=out_of_time)
