"""The benchmark's workloads: campaign shapes run through ``run_scenario``.

Each workload is a scenario shape run serially (``jobs=1``) with a run
directory and, unless it says otherwise, minimization, as
``python -m repro run`` does by default.
Each workload is a corpus of campaigns, the scenario seeds
:func:`campaign_seed` derives from the workload name and an index; the
benchmark seed draws which of them a run measures, and in what order
(:func:`draw`).  Every other field is fixed here, so the program
receives nothing but the generated spec.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    #: ScenarioSpec fields (``seed`` is filled in per campaign).
    spec: dict = field(default_factory=dict)
    #: Whether ``run_scenario`` minimizes findings (``--no-minimize``
    #: when false).
    minimize: bool = True
    #: Typical wall time of one campaign with its checks on a 2-core
    #: x86 host; sizes the timed run (see :meth:`campaigns`).
    nominal_campaign_s: float = 1.0
    #: Campaigns the traced run measures (a fixed count, so its layer
    #: counts repeat exactly at one seed).
    traced_campaigns: int = 4

    def campaigns(self, seconds: float) -> int:
        """Campaigns in a timed run of about ``seconds`` seconds.

        A fixed count rather than a deadline: one seed then always
        measures the same campaigns, however fast the program runs
        (unless the host is so slow that the run's time limit cuts it
        short, see ``run.OVERRUN``).
        """
        return max(3, round(seconds / self.nominal_campaign_s))

    def scenario(self, seed: int):
        from repro.scenarios.spec import ScenarioSpec

        return ScenarioSpec.from_dict(
            dict(self.spec, name=f"bench-{self.name}", seed=seed))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="contract-cond",
            # The contract-ablation shape in short campaigns (the three
            # special seeds and four random ones, then three mutants) at
            # the registry's checkpoint cadence.  Without minimization:
            # a rare violation would otherwise add seconds of trimming
            # to one campaign (minimization is measured on rtl-campaign).
            spec=dict(
                design="small", vulns=["mwait", "zenbleed"],
                detector="contract", contract="ct-cond", iterations=10,
            ),
            minimize=False,
            nominal_campaign_s=0.4,
            traced_campaigns=16,
        ),
        Workload(
            name="rtl-campaign",
            # The spec-cpu-quickstart registry entry, seed aside.
            spec=dict(
                design="spec-cpu", vulns=[], monitor_dcache=True,
                iterations=12,
            ),
            nominal_campaign_s=0.3,
            traced_campaigns=40,
        ),
    )
}


#: A run draws its campaigns without replacement from a corpus this
#: many times its size.  Campaign times spread over an order of
#: magnitude, so a run of fresh random campaigns would move with the
#: seed by about 0.1 on ``contract-cond`` (interquartile range over
#: median of the mean campaign time, 10 seeds).  Drawing from a finite
#: corpus bounds that to about 0.04 (0.06 with 1.25 times), while every
#: seed still leaves out different campaigns and orders them
#: differently.
CORPUS_FACTOR = 1.1


def campaign_seed(workload: str, index: int | str) -> int:
    """The scenario seed of campaign ``index`` of a workload's corpus."""
    digest = hashlib.sha256(f"{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def draw(workload: str, seed: int, count: int) -> list[int]:
    """The corpus indices a run at ``seed`` measures, in order."""
    corpus = math.ceil(CORPUS_FACTOR * count)
    return random.Random(f"{workload}/{seed}").sample(range(corpus), count)
