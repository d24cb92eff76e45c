"""The repository benchmark: campaign workloads on the ``run`` path.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout.  Every campaign goes through the public
scenario API behind ``python -m repro run`` (a ``ScenarioSpec`` handed
to ``run_scenario`` with a run directory) and is checked before its
figures count: the run directory must finish ``complete``,
``replay_findings`` must re-confirm every stored finding, and the
report digest plus its deterministic counts must equal those of every
earlier run of the same campaign in this checkout.

``--trace 0`` measures the end-to-end metrics for ``--seconds``
seconds, each time corrected for the host's speed by reference probes
interleaved with the work (``reference.py``).  ``--trace 1`` runs a
fixed number of campaigns twice, untraced and traced, and reports the
per-layer metrics from spans recorded by class-level wrappers around
each layer's public entry points (``tracing.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: run directories and the
#: per-campaign fingerprints of earlier runs.
WORK = ROOT / ".perfbench"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 15
#: A timed run stops early, with the campaigns it has, once it has
#: taken this multiple of ``--seconds`` (a slow host, not a slow seed).
#: A shared 2-core host was measured running up to about 1.6 times
#: slower than usual for minutes at a time; a run must end within 180 s.
OVERRUN = 2.0
#: Outside-measured fuzz-loop simulation time may differ from the
#: program's own ``OnlineStats.simulate_seconds`` by this share.
SIM_ATTRIBUTION_BOUND = 0.05
#: Layer counts the traced run must repeat exactly.
DETERMINISTIC_COUNTS = (
    "boom.runs", "boom.cycles", "boom.trace_events", "rtl.runs",
    "rtl.cycles", "rtl.trace_events", "golden.iss_runs",
    "fuzz.trim.probes", "trace.events_examined",
)


class CheckFailed(Exception):
    """A campaign's outputs failed the correctness gate."""


@dataclass
class Campaign:
    """One ``run_scenario`` call and what was measured around it."""

    index: int | str
    wall_s: float
    fingerprint: dict
    iterations: int
    productive_iterations: int
    simulate_s: float
    bytes_written: int
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            result = bench.traced_run()
        else:
            result = bench.timed_run(args.seconds)
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int):
        from tracing import Tracer

        self.workload = workload
        self.seed = seed
        self.correct = True
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.tracer = Tracer(full=False)
        self.state_path = WORK / "state" / f"{workload.name}.json"

    def close(self) -> None:
        self.tracer.uninstall()
        shutil.rmtree(WORK / "runs", ignore_errors=True)

    # -- the two kinds of run ------------------------------------------------

    def timed_run(self, seconds: float) -> dict:
        from reference import Calibration

        self.tracer.install()
        self.warm_up()
        self.tracer.enabled = True
        campaigns: list[Campaign] = []
        setup: list[float] = []
        order = self.order(self.workload.campaigns(seconds))
        # A reference probe before each campaign and after the last:
        # their mean is the host's speed over the campaigns.
        calibration = Calibration()
        deadline = time.perf_counter() + OVERRUN * seconds
        for position, index in enumerate(order):
            if time.perf_counter() > deadline:
                print(f"perfbench: {self.workload.name}: out of time after "
                      f"{position} of {len(order)} campaigns",
                      file=sys.stderr)
                break
            # Cold set-ups spread over the run: their median then sees
            # the host over the same span of time as the campaigns.
            while len(setup) < SETUP_PROBES * (position + 1) / len(order):
                setup.append(self.calibrated_setup(len(setup)))
            calibration.probe()
            campaign = self.campaign(index)
            if campaign is not None:
                campaigns.append(campaign)
        calibration.probe()
        if not campaigns:
            return self.result({})
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            **{name: (value, "s" if name == "campaign_s" else "1/s")
               for name, value in campaign_metrics(
                   campaigns, calibration).items()},
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        print(f"perfbench: {self.workload.name} seed {self.seed}: "
              f"{len(campaigns)} timed campaigns, mean wall "
              f"{statistics.mean(c.wall_s for c in campaigns):.4f}s; host "
              f"slowdown {calibration.wall_factor():.3f} (wall), "
              f"{calibration.cpu_factor():.3f} (processor)",
              file=sys.stderr)
        return self.result(metrics)

    def traced_run(self) -> dict:
        from reference import Calibration
        from tracing import Tracer, write_spans

        setup = [self.setup_probe(index, traced=True)
                 for index in range(SETUP_PROBES)]
        self.tracer = Tracer(full=True)
        self.tracer.install()
        self.warm_up()
        calibration = Calibration()
        untraced, traced = [], []
        for index in self.order(self.workload.traced_campaigns):
            calibration.probe()
            self.tracer.enabled = False
            plain = self.campaign(index)
            self.tracer.enabled = True
            measured = self.campaign(index)
            if plain is None or measured is None:
                continue
            if plain.fingerprint != measured.fingerprint:
                self.fail(f"campaign {index}: the traced report differs "
                          f"from the untraced one")
            untraced.append(plain)
            traced.append(measured)
        if traced:
            # Counter determinism: the first campaign, traced again.
            repeat = self.campaign(traced[0].index)
            if repeat is not None:
                first, again = (
                    {key: c.counts.get(key, 0)
                     for key in DETERMINISTIC_COUNTS}
                    for c in (traced[0], repeat))
                if first != again:
                    self.fail(f"layer counts differ between two traced "
                              f"runs of one campaign: {first} vs {again}")
        if not traced:
            self.fail("no traced campaign passed its checks")
            return self.result({})
        write_spans([span for c in traced for span in c.spans],
                    WORK / "trace" / f"{self.workload.name}-{self.seed}.jsonl")
        metrics = layer_metrics(self, traced, untraced, setup)
        metrics["host.reference_ms"] = (
            statistics.median(calibration.wall) * 1e3, "ms")
        return self.result(metrics)

    # -- pieces ----------------------------------------------------------------

    def setup_probe(self, index: int, traced: bool) -> dict:
        """One cold set-up, in a fresh interpreter (no warm caches)."""
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             self.workload.name, str(self.seed_of(f"setup{index}")),
             "1" if traced else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        return json.loads(completed.stdout.splitlines()[-1])

    def calibrated_setup(self, index: int) -> float:
        """One cold set-up's time, divided by the host's slowdown
        against the reference host (probed just before and after)."""
        from reference import Calibration

        calibration = Calibration()
        calibration.probe()
        setup_s = self.setup_probe(index, traced=False)["setup_s"]
        calibration.probe()
        return setup_s / calibration.wall_factor()

    def warm_up(self) -> None:
        """Fill the process's shared statics and lazy caches untimed."""
        from repro.harness.parallel import shared_statics

        spec = self.workload.scenario(self.seed_of("warmup"))
        shared_statics(spec.build_config())
        self.campaign("warmup")

    def order(self, count: int) -> list[int]:
        """The corpus indices of ``count`` campaigns drawn at this
        run's seed."""
        from workloads import draw

        return draw(self.workload.name, self.seed, count)

    def seed_of(self, index) -> int:
        """The scenario seed of corpus campaign ``index``; the warm-up
        campaign and the set-up probes (string indices) come from the
        run's seed, outside the corpus."""
        from workloads import campaign_seed

        if isinstance(index, str):
            index = f"{index}/{self.seed}"
        return campaign_seed(self.workload.name, index)

    def campaign(self, index) -> Campaign | None:
        """Run, time and check one campaign; ``None`` when it failed."""
        from repro.scenarios import run_scenario

        workload = self.workload
        seed = self.seed_of(index)
        spec = workload.scenario(seed)
        run_dir = WORK / "runs" / f"{workload.name}-{index}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.parent.mkdir(parents=True, exist_ok=True)
        tracer = self.tracer
        tracer.reset(index if isinstance(index, int) else -1)
        # Wall time is taken here, not from a span, so that the layer
        # table can be checked against it.
        start = time.perf_counter()
        outcome = run_scenario(spec, run_dir=run_dir, jobs=1,
                               minimize=workload.minimize)
        wall = time.perf_counter() - start
        spans, counts = list(tracer.spans), dict(tracer.counts)
        report = outcome.report
        self.attempted += report.fuzz.iterations + spec.shards
        crashes = sum(1 for f in report.fuzz.findings if f.kind == "crash")
        self.failed += crashes + len(outcome.quarantined)
        # The checks replay findings; keep their spans out of the trace.
        enabled, tracer.enabled = tracer.enabled, False
        try:
            fingerprint = self.check(run_dir, outcome)
        except CheckFailed as error:
            self.fail(f"campaign {index} (seed {seed}): {error}")
            return None
        finally:
            tracer.enabled = enabled
            bytes_written = _tree_bytes(run_dir)
            shutil.rmtree(run_dir, ignore_errors=True)
        return Campaign(
            index=index,
            wall_s=wall,
            fingerprint=fingerprint,
            iterations=report.fuzz.iterations,
            productive_iterations=len(
                {iteration for iteration, _ in report.fuzz.discovery_log}),
            simulate_s=report.stats.simulate_seconds,
            bytes_written=bytes_written,
            spans=spans,
            counts=counts,
        )

    def check(self, run_dir: Path, outcome) -> dict:
        """The correctness gate; returns the campaign's fingerprint."""
        from repro.scenarios import CampaignStore
        from repro.scenarios.runner import replay_findings

        status = CampaignStore.open(run_dir).status
        if status != "complete":
            raise CheckFailed(f"run directory finished {status!r}")
        if outcome.quarantined:
            raise CheckFailed(f"{len(outcome.quarantined)} quarantined "
                              f"shard(s)")
        unconfirmed = [r for r in replay_findings(run_dir)
                       if not r.confirmed]
        if unconfirmed:
            raise CheckFailed(f"replay did not re-confirm "
                              f"{len(unconfirmed)} stored finding(s)")
        report = outcome.report
        fingerprint = {
            "report_sha256": hashlib.sha256(
                (run_dir / "report.txt").read_bytes()).hexdigest(),
            "cycles": report.stats.cycles,
            "instructions": report.stats.instructions,
            "iterations": report.fuzz.iterations,
            "findings": len(report.fuzz.findings),
            "coverage": report.fuzz.final_coverage(),
        }
        self.compare_with_earlier_runs(outcome.spec, fingerprint)
        self.checked += 1
        return fingerprint

    def compare_with_earlier_runs(self, spec, fingerprint: dict):
        """Every run of one scenario in this checkout must produce the
        same report; the first run records it."""
        key = hashlib.sha256(spec.to_json().encode()).hexdigest()
        state = {}
        if self.state_path.is_file():
            state = json.loads(self.state_path.read_text())
        earlier = state.get(key)
        if earlier is not None and earlier != fingerprint:
            raise CheckFailed(f"report differs from an earlier run of this "
                              f"scenario: {fingerprint} vs {earlier}")
        if earlier is None:
            state[key] = fingerprint
            self.state_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.state_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(state, sort_keys=True))
            os.replace(tmp, self.state_path)

    def fail(self, message: str) -> None:
        self.correct = False
        self.errors.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        if self.checked == 0:
            self.fail("no campaign passed its checks")
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


# -- metrics ----------------------------------------------------------------


def campaign_metrics(campaigns: list[Campaign], calibration) -> dict:
    """The end-to-end metrics measured on campaigns: the mean campaign
    wall time, and iterations and simulated cycles per second of
    fuzz-loop processor time (summed over the run), each corrected for
    the host's speed over the run (``calibration``, see ``reference``).

    The mean, not the median: campaign times of one workload are spread
    over an order of magnitude with no single mode, and the median of a
    run's campaigns moves with the seed about twice as much as their
    mean does.
    """
    from tracing import LOOP_CPU

    loop_cpu = sum(c.counts.get(LOOP_CPU, 0.0) for c in campaigns)
    loop_cpu /= calibration.cpu_factor()
    return {
        "campaign_s": statistics.mean(c.wall_s for c in campaigns)
        / calibration.wall_factor(),
        "iters_per_s": _ratio(sum(c.iterations for c in campaigns),
                              loop_cpu),
        "sim_cycles_per_s": _ratio(
            sum(c.fingerprint["cycles"] for c in campaigns), loop_cpu),
    }


def layer_metrics(bench: Bench, traced: list[Campaign],
                  untraced: list[Campaign], setup: list[dict]) -> dict:
    """Every per-layer metric over the traced campaigns (totals)."""
    from tracing import (
        FUZZ_LOOP, LAYERS, layer_self_seconds, self_times, span_seconds,
    )

    spans = [span for c in traced for span in c.spans]
    counts = Counter()
    for c in traced:
        counts.update(c.counts)
    wall = sum(c.wall_s for c in traced)
    busy = layer_self_seconds(spans)

    # The layer table: each layer's self time, and the part of the
    # independently clocked campaign_s no span covers (unattributed).
    # Spans that overlap or outlast the call would make the remainder
    # negative; so would children that outlast their parent.
    own = self_times(spans)
    if any(value < -1e-6 for value in own.values()):
        bench.fail("a span's children outlast it (negative self time)")
    unattributed = wall - sum(busy.values())
    if unattributed < -1e-6 * max(1.0, wall):
        bench.fail(f"the layer spans cover {sum(busy.values()):.6f}s, more "
                   f"than the {wall:.6f}s of campaign_s")

    # Attribution cross-check against the program's own simulate timer.
    by_id = {span[0]: span for span in spans}
    loop_sim = sum(
        span[5] - span[4] for span in spans
        if span[2] in ("boom", "rtl") and span[1] in by_id
        and by_id[span[1]][3] == FUZZ_LOOP)
    program_sim = sum(c.simulate_s for c in traced)
    sim_gap = abs(loop_sim - program_sim) / program_sim \
        if program_sim else 0.0
    if sim_gap > SIM_ATTRIBUTION_BOUND:
        bench.fail(f"fuzz-loop PUT time {loop_sim:.4f}s (outside) vs "
                   f"{program_sim:.4f}s (OnlineStats.simulate_seconds) "
                   f"differ by {sim_gap:.1%}, over "
                   f"{SIM_ATTRIBUTION_BOUND:.0%}")

    loops = [span for span in spans if span[3] == FUZZ_LOOP]
    fuzz_loop = sum(span[5] - span[4] for span in loops)
    shard_max = [max(span[5] - span[4] for span in loops
                     if span[6] == index)
                 for index in {span[6] for span in loops}]
    waits = span_seconds(spans, "harness.wait")
    iterations = sum(c.iterations for c in traced)
    trim_probes = counts["fuzz.trim.probes"]
    lookups = counts["golden.lookups"]
    untraced_wall = sum(c.wall_s for c in untraced)
    metrics = {
        "core.offline_s": statistics.median(p["core.offline_s"]
                                            for p in setup),
        "core.build_put_s": statistics.median(p["core.build_put_s"]
                                              for p in setup),
    }
    for put in ("boom", "rtl"):
        metrics.update({
            f"{put}.runs": counts[f"{put}.runs"],
            f"{put}.busy_s": busy[put],
            f"{put}.cycles": counts[f"{put}.cycles"],
            f"{put}.trace_events": counts[f"{put}.trace_events"],
            f"{put}.ns_per_cycle": _ratio(busy[put] * 1e9,
                                          counts[f"{put}.cycles"]),
        })
    metrics.update({
        "boom.instret": counts["boom.instret"],
        "detection.busy_s": busy["detection"],
        "detection.windows": counts["detection.windows"],
        "detection.mispredicted_windows":
            counts["detection.mispredicted_windows"],
        "detection.reports": counts["detection.reports"],
        "trace.events_examined": counts["trace.events_examined"],
        "coverage.busy_s": busy["coverage"],
        "coverage.new_items": sum(c.fingerprint["coverage"]
                                  for c in traced),
        "fuzz.productive_frac": _ratio(
            sum(c.productive_iterations for c in traced), iterations),
        "contracts.busy_s": busy["contracts"],
        "contracts.variant_runs": counts["contracts.variant_runs"],
        "contracts.violations": counts["contracts.violations"],
        "contracts.collect_s": span_seconds(spans, "contracts.collect"),
        "golden.lookups": lookups,
        "golden.iss_runs": counts["golden.iss_runs"],
        "golden.memo_hit_frac": _ratio(lookups - counts["golden.iss_runs"],
                                       lookups),
        "golden.busy_s": busy["golden"],
        "fuzz.mutate_s": span_seconds(spans, "fuzz.mutate")
        + span_seconds(spans, "fuzz.splice"),
        "fuzz.trim.findings": counts["fuzz.trim.findings"],
        "fuzz.trim.probes": trim_probes,
        "fuzz.trim.probe_accept_frac": _ratio(counts["fuzz.trim.accepted"],
                                              trim_probes),
        "fuzz.trim.busy_s": span_seconds(spans, "fuzz.trim"),
        "scenarios.persist_s": busy["scenarios"],
        "scenarios.checkpoints": counts["scenarios.checkpoints"],
        "scenarios.bytes_written": sum(c.bytes_written for c in traced),
        "harness.worker_busy_frac": _ratio(fuzz_loop, wall),
        "harness.shard_s_max": statistics.median(shard_max)
        if shard_max else 0.0,
        "harness.parent_busy_s": wall - waits,
        "harness.merge_s": span_seconds(spans, "harness.merge"),
    })
    for layer in LAYERS:
        metrics[f"share.{layer}"] = _ratio(busy[layer], wall)
    metrics["share.unattributed"] = _ratio(unattributed, wall)
    metrics.update({
        "campaign_s.traced": wall,
        "campaign_s.untraced": untraced_wall,
        "trace.overhead_frac": _ratio(wall, untraced_wall) - 1.0,
        "attribution.sim_gap_frac": sim_gap,
        "failed_frac": _ratio(bench.failed, bench.attempted),
    })
    units = _units()
    return {name: (value, units(name)) for name, value in metrics.items()}


def _units():
    def unit(name: str) -> str:
        if name.endswith("_s") or "_s_" in name or "_s." in name:
            return "s"
        if name.endswith("_frac") or name.startswith("share."):
            return "fraction"
        if name.endswith("ns_per_cycle"):
            return "ns"
        if name.endswith("bytes_written"):
            return "bytes"
        return "count"
    return unit


# -- helpers ----------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of a set-up probe."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else 0


if __name__ == "__main__":
    sys.exit(main())
