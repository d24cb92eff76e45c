"""Span tracing of the program's layers from outside the program.

:class:`Tracer` replaces the public entry points of each layer with thin
class-level (or module-level) wrappers that record one span per call --
name, layer, start, end, parent span and run id -- plus the layer's work
counters, all in memory, and :func:`write_spans` writes them out as
JSON lines when the run ends.  Nothing under ``src/`` is modified; the
wrappers are installed before a campaign is built and removed by
:meth:`Tracer.uninstall`.  Spans are recorded in the calling process
only, so the traced workloads run their shards inline.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from functools import wraps

#: The layers a span can belong to, named after the program's modules.
LAYERS = ("core", "boom", "rtl", "detection", "coverage", "contracts",
          "golden", "fuzz", "scenarios", "harness")

#: Span fields, in storage order: id, parent id, layer, name, start,
#: end (``time.perf_counter``), run id (campaign index).

#: Span name of the fuzz loop (``Fuzzer.run``); always recorded, because
#: the untraced runs take their fuzz-loop time from it.
FUZZ_LOOP = "fuzz.loop"
#: Counter of the fuzz loop's processor time (seconds, every process).
LOOP_CPU = "fuzz.loop_cpu_s"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``full=False`` installs only the fuzz-loop span (one span per
    campaign, the untraced runs' only instrumentation); ``full=True``
    installs every layer's wrappers.  ``enabled`` switches recording on
    and off without reinstalling.
    """

    def __init__(self, full: bool):
        self.full = full
        self.enabled = False
        self.run = 0
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def open(self, layer: str, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self._next_id, parent[0] if parent else None, layer, name,
                time.perf_counter(), None, self.run]
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        # Pop through the span: a generator wrapper abandoned mid-way
        # must not leave its children open on the stack.
        while self._stack:
            if self._stack.pop() is span:
                break
        self.spans.append(span)

    def parent_layer(self) -> str | None:
        """Layer of the innermost open span (the caller of a new span)."""
        return self._stack[-1][2] if self._stack else None

    def reset(self, run: int) -> None:
        """Start a new campaign: empty buffers, new run id."""
        self.run = run
        self.spans, self._stack = [], []
        self.counts = Counter()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public entry points (see :func:`_wrap_all`)."""
        _wrap_all(self)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def wrap(self, owner, attr: str, layer: str, name: str,
             before=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(counts, args, result, pre, nested)``, which updates the
        work counters; ``nested`` is true when the caller is already a
        span of the same layer (counters that would double count skip
        it).
        """
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        tracer = self

        @wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            nested = tracer.parent_layer() == layer
            pre = before(args) if before is not None else None
            span = tracer.open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer.counts, args, result, pre, nested)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw, raw is not None))

    def wrap_generator(self, owner, attr: str, layer: str,
                       name: str) -> None:
        """Record one span per ``next()`` of the generator ``owner.attr``
        returns: the time its consumer waits for each item."""
        original = getattr(owner, attr)
        tracer = self

        @wraps(original)
        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            if not tracer.enabled:
                return iterator
            return _timed_items(tracer, iterator, layer, name)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, True))


def _timed_items(tracer: Tracer, iterator, layer: str, name: str):
    try:
        while True:
            span = tracer.open(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            yield item
    finally:
        iterator.close()


# -- the wrapped entry points ---------------------------------------------


def _count_loop_cpu(counts, args, result, pre, nested):
    counts[LOOP_CPU] += time.process_time() - pre


def _count_put(prefix: str):
    def after(counts, args, result, pre, nested):
        counts[f"{prefix}.runs"] += 1
        counts[f"{prefix}.cycles"] += result.cycles
        counts[f"{prefix}.instret"] += result.instret
        counts[f"{prefix}.trace_events"] += len(result.trace)
    return after


def _examined_before(args):
    return args[1].trace.events_examined


def _count_examined(extra=None):
    def after(counts, args, result, pre, nested):
        if not nested:
            counts["trace.events_examined"] += \
                args[1].trace.events_examined - pre
        if extra is not None:
            extra(counts, result)
    return after


def _count_windows(counts, windows):
    counts["detection.windows"] += len(windows)
    counts["detection.mispredicted_windows"] += sum(
        1 for window in windows if window.mispredicted)


def _count_reports(counts, reports):
    counts["detection.reports"] += len(reports)


def _contract_before(args):
    return args[0].variant_runs


def _count_contract(counts, args, result, pre, nested):
    counts["contracts.variant_runs"] += args[0].variant_runs - pre
    counts["contracts.violations"] += len(result)


def _memo_before(args):
    return args[0].misses


def _count_memo(counts, args, result, pre, nested):
    counts["golden.lookups"] += 1
    counts["golden.iss_runs"] += args[0].misses - pre


def _count_checkpoint(counts, args, result, pre, nested):
    counts["scenarios.checkpoints"] += 1


def _wrap_all(tracer: Tracer) -> None:
    from repro.boom.core import BoomCore
    from repro.core import specure as specure_module
    from repro.core.specure import Specure
    from repro.fuzz.fuzzer import Fuzzer
    from repro.harness import parallel
    from repro.scenarios import runner

    # The fuzz loop: always on (fuzz-loop time of every workload).
    tracer.wrap(Fuzzer, "run", "fuzz", FUZZ_LOOP,
                before=lambda args: time.process_time(),
                after=_count_loop_cpu)
    # The runner's wait for each shard's result (inline: the shard itself).
    tracer.wrap_generator(runner, "imap_shards", "harness", "harness.wait")
    if not tracer.full:
        return

    from repro.contracts.clauses import GoldenTraceMemo
    from repro.contracts.detector import ContractDetector
    from repro.contracts.hwtrace import HardwareTraceCollector
    from repro.coverage.code import CodeCoverage
    from repro.coverage.lp import LpCoverage
    from repro.detection.leakage import LeakageDetector
    from repro.detection.vulnerability import VulnerabilityDetector
    from repro.fuzz.mutations import MutationEngine
    from repro.puts.rtl import RtlPut
    from repro.scenarios.store import CampaignStore

    # core: PUT build and the offline phase, wherever they are looked up.
    for module in (specure_module, parallel):
        tracer.wrap(module, "build_put", "core", "core.build_put")
        tracer.wrap(module, "run_offline", "core", "core.offline")
    tracer.wrap(Specure, "offline", "core", "core.offline")
    # PUT simulation.
    tracer.wrap(BoomCore, "run", "boom", "boom.run",
                after=_count_put("boom"))
    tracer.wrap(RtlPut, "run", "rtl", "rtl.run", after=_count_put("rtl"))
    # detection.
    tracer.wrap(LeakageDetector, "windows", "detection", "detection.windows",
                before=_examined_before,
                after=_count_examined(_count_windows))
    tracer.wrap(LeakageDetector, "potential_leaks", "detection",
                "detection.potential_leaks", before=_examined_before,
                after=_count_examined())
    tracer.wrap(VulnerabilityDetector, "detect", "detection",
                "detection.detect", before=_examined_before,
                after=_count_examined(_count_reports))
    # coverage.
    tracer.wrap(LpCoverage, "items", "coverage", "coverage.lp_items",
                before=_examined_before, after=_count_examined())
    tracer.wrap(LpCoverage, "covered", "coverage", "coverage.lp_covered",
                before=_examined_before, after=_count_examined())
    tracer.wrap(CodeCoverage, "items", "coverage", "coverage.code_items")
    # contracts and the golden model behind the memo.
    tracer.wrap(ContractDetector, "detect", "contracts", "contracts.detect",
                before=_contract_before, after=_count_contract)
    tracer.wrap(HardwareTraceCollector, "collect", "contracts",
                "contracts.collect")
    tracer.wrap(GoldenTraceMemo, "trace", "golden", "golden.trace",
                before=_memo_before, after=_count_memo)
    # fuzz: mutation and minimization.
    tracer.wrap(MutationEngine, "mutate", "fuzz", "fuzz.mutate")
    tracer.wrap(MutationEngine, "splice", "fuzz", "fuzz.splice")
    _wrap_trim(tracer, runner)
    # scenarios: the store, checkpoints.
    tracer.wrap(CampaignStore, "create", "scenarios", "scenarios.create")
    tracer.wrap(CampaignStore, "record_shard", "scenarios",
                "scenarios.record_shard")
    tracer.wrap(CampaignStore, "clear_checkpoint", "scenarios",
                "scenarios.clear_checkpoint")
    tracer.wrap(CampaignStore, "finalize", "scenarios", "scenarios.finalize")
    tracer.wrap(runner, "save_checkpoint", "scenarios",
                "scenarios.checkpoint", after=_count_checkpoint)
    # harness: the cross-shard merge.
    tracer.wrap(runner, "merge_reports", "harness", "harness.merge")


def _wrap_trim(tracer: Tracer, runner) -> None:
    """``trim_program`` plus a counting wrapper on the predicate it is
    given (one probe per predicate call)."""
    original = runner.trim_program

    @wraps(original)
    def trim_program(program, predicate, *args, **kwargs):
        if not tracer.enabled:
            return original(program, predicate, *args, **kwargs)
        counts = tracer.counts

        def probe(candidate):
            span = tracer.open("fuzz", "fuzz.trim.probe")
            try:
                kept = predicate(candidate)
            finally:
                tracer.close(span)
            counts["fuzz.trim.probes"] += 1
            counts["fuzz.trim.accepted"] += bool(kept)
            return kept

        span = tracer.open("fuzz", "fuzz.trim")
        try:
            return original(program, probe, *args, **kwargs)
        finally:
            tracer.close(span)
            counts["fuzz.trim.findings"] += 1

    runner.trim_program = trim_program
    tracer._patches.append((runner, "trim_program", original, True))


# -- derived figures --------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children are always nested inside their parent (one thread), so the
    covered time is the sum of their durations.
    """
    own = {span[0]: span[5] - span[4] for span in spans}
    for span in spans:
        parent = span[1]
        if parent is not None and parent in own:
            own[parent] -= span[5] - span[4]
    return own


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span[2]
        if layer in totals:
            totals[layer] += own[span[0]]
    return totals


def span_seconds(spans: list[list], name: str) -> float:
    """Total duration of every span called ``name``."""
    return sum(span[5] - span[4] for span in spans if span[3] == name)


def write_spans(spans: list[list], path) -> None:
    """Write spans as JSON lines, one object per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for span_id, parent, layer, name, start, end, run in spans:
            out.write(json.dumps({
                "run": run, "id": span_id, "parent": parent,
                "layer": layer, "name": name, "start": start, "end": end,
            }) + "\n")
