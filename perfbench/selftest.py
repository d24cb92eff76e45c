"""Self-test: does the benchmark catch and attribute a slower layer?

Usage: ``python3 perfbench/selftest.py [--seed N]`` from the root of a
checkout.

Each case makes every call of one layer's entry point about 20% slower
(a busy wait of a fifth of the call's own duration, installed beneath
the benchmark's span wrappers) and measures the workloads with the
benchmark's own campaign runner and tracer, alternating campaigns with
and without the slowdown at the same campaign seeds so that both sides
see the same host load:

* ``BoomCore.run`` -- ``contract-cond`` must read slower, its trace must
  put the added time in ``boom``, and ``rtl-campaign`` (no BOOM code)
  must read unchanged;
* ``GoldenTraceMemo.trace`` -- likewise on ``contract-cond`` and
  ``golden``, with ``rtl-campaign`` again unchanged.

"Slower" and "unchanged" are judged per workload from its own campaign
pairs (see :data:`CONFIDENCE`).  That paired comparison is finer than
the benchmark's no-regression gate, which compares unpaired runs
against a bound; for each flagged metric the test also prints whether
the gate's bound would catch the move, and roughly what slowdown of the
layer it would take.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from functools import wraps

import run

#: Share of each call's own duration the injected slowdown adds.
SLOWDOWN = 0.20
#: Confidence of the distribution-free interval on the median per-pair
#: change (order statistics of the sign test).  A metric is flagged when
#: the interval lies above zero and reads unchanged when it holds zero,
#: so each workload is judged against its own paired spread.
CONFIDENCE = 0.99
#: Campaigns per side of one paired measurement.
PAIRS = {"contract-cond": 360, "rtl-campaign": 60}


class Slowdown:
    """A switchable busy wait added to every call of ``owner.attr``."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.active = False
        self.original = vars(owner).get(attr)
        function = getattr(owner, attr)
        slowdown = self

        @wraps(function)
        def slow(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            if slowdown.active:
                end = time.perf_counter()
                until = end + SLOWDOWN * (end - start)
                while time.perf_counter() < until:
                    pass
            return result

        setattr(owner, attr, slow)

    def remove(self) -> None:
        if self.original is None:
            delattr(self.owner, self.attr)
        else:
            setattr(self.owner, self.attr, self.original)


def paired(workload_name: str, seed: int, slowdown: Slowdown):
    """Campaigns with and without the slowdown, alternating which side
    runs first; returns ``(base, slow)`` campaign lists."""
    from tracing import Tracer
    from workloads import WORKLOADS

    bench = run.Bench(WORKLOADS[workload_name], seed)
    bench.tracer = Tracer(full=True)
    base, slow = [], []
    try:
        bench.tracer.install()
        bench.warm_up()
        bench.tracer.enabled = True
        for position, index in enumerate(bench.order(PAIRS[workload_name])):
            for injected in ((False, True) if position % 2 == 0
                             else (True, False)):
                slowdown.active = injected
                campaign = bench.campaign(index)
                if campaign is None:
                    raise SystemExit(f"selftest: {workload_name} campaign "
                                     f"{index} failed: {bench.errors}")
                (slow if injected else base).append(campaign)
    finally:
        slowdown.active = False
        bench.close()
    return base, slow


def busy(campaigns) -> dict:
    from tracing import layer_self_seconds

    return layer_self_seconds([s for c in campaigns for s in c.spans])


def worsening(base: list, slow: list) -> dict:
    """Relative worsening of each end-to-end metric from ``base`` to
    ``slow``, one value per campaign pair (same seed, back to back)."""
    from tracing import LOOP_CPU

    def rate(campaign):
        return campaign.iterations / campaign.counts[LOOP_CPU]

    return {
        "campaign_s": [s.wall_s / b.wall_s - 1.0
                       for b, s in zip(base, slow)],
        "iters_per_s": [1.0 - rate(s) / rate(b)
                        for b, s in zip(base, slow)],
    }


def median_interval(values: list) -> tuple[float, float, float]:
    """The median of ``values`` and a distribution-free ``CONFIDENCE``
    interval for it: the order statistics ``k`` and ``n - k + 1``, with
    ``k`` the largest count for which a fair coin shows ``k - 1`` heads
    or fewer in ``n`` tosses with probability at most half the miss
    rate."""
    ordered, n = sorted(values), len(values)
    tail, below, k = (1.0 - CONFIDENCE) / 2, 0.0, 0
    while below + math.comb(n, k) / 2 ** n <= tail:
        below += math.comb(n, k) / 2 ** n
        k += 1
    if k == 0:
        return statistics.median(ordered), -math.inf, math.inf
    return statistics.median(ordered), ordered[k - 1], ordered[n - k]


def bounds() -> dict:
    """The benchmark's no-regression bounds, by end-to-end metric."""
    document = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"]
            for metric in document["end_to_end"]}


def case(label: str, owner, attr: str, layer: str, target: str,
         bypass: str, seed: int) -> list[str]:
    """Measures one injected-slowdown case; returns its failed checks."""
    failures = []
    slowdown = Slowdown(owner, attr)
    try:
        results = {name: paired(name, seed, slowdown)
                   for name in (target, bypass)}
    finally:
        slowdown.remove()
    gate = bounds()
    for name, (base, slow) in results.items():
        base_busy, slow_busy = busy(base), busy(slow)
        added = {key: slow_busy[key] - base_busy[key] for key in base_busy}
        share = base_busy[layer] / sum(c.wall_s for c in base)
        print(f"{label}: {name}: {layer} share {share:.1%}; added busy "
              f"time " + ", ".join(f"{key} {value:+.3f}s"
                                   for key, value in added.items()))
        for metric, changes in worsening(base, slow).items():
            middle, low, high = median_interval(changes)
            print(f"{label}: {name}: {metric} worsened {middle:+.1%} "
                  f"({CONFIDENCE:.0%} interval {low:+.1%} to {high:+.1%}, "
                  f"{len(changes)} pairs)")
            if name == target:
                if low <= 0.0:
                    failures.append(
                        f"{label}: {metric} on {name} worsened "
                        f"{middle:+.1%}, within its own paired spread "
                        f"({low:+.1%} to {high:+.1%})")
                elif metric in gate:
                    # What the no-regression gate, which compares
                    # medians of unpaired runs, would make of this.
                    needed = SLOWDOWN * gate[metric] / middle
                    verdict = ("caught" if middle > gate[metric]
                               else "not caught")
                    print(f"{label}: {name}: {metric}: {verdict} by the "
                          f"{gate[metric]:.0%} bound; a slowdown of "
                          f"about {needed:.0%} of {layer} would reach it")
            elif not low <= 0.0 <= high:
                failures.append(f"{label}: {metric} on {name} moved "
                                f"{middle:+.1%} ({low:+.1%} to "
                                f"{high:+.1%}) though it bypasses {layer}")
        if name == target:
            grown = max(added, key=added.get)
            if grown != layer:
                failures.append(f"{label}: the trace put the added time "
                                f"in {grown!r}, not {layer!r}")
        elif base_busy[layer] or slow_busy[layer]:
            failures.append(f"{label}: {name} ran {layer} code")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.boom.core import BoomCore
    from repro.contracts.clauses import GoldenTraceMemo

    failures = case("slow BoomCore.run", BoomCore, "run", "boom",
                    "contract-cond", "rtl-campaign", args.seed)
    failures += case("slow GoldenTraceMemo.trace", GoldenTraceMemo,
                     "trace", "golden", "contract-cond", "rtl-campaign",
                     args.seed)
    for failure in failures:
        print(f"selftest: FAILED: {failure}")
    print("selftest: ok" if not failures else
          f"selftest: {len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
