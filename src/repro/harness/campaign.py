"""Coverage curves for the paper's Figure 2.

Campaigns themselves run through one driver,
:func:`repro.scenarios.run_scenario`: a scenario with ``shards=N`` runs
``N`` seed-derived repeats and its report carries one covered-PDLC
curve per shard (:attr:`~repro.core.report.CampaignReport.lp_curves`).
This module turns those curves into the averaged series Figure 2 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
