"""Columnar trace equivalence: SignalTrace vs the retained reference.

:class:`repro.rtl.trace.SignalTrace` stores events in four typed-array
columns and answers queries through bisects, a snapshot resume memo,
and cached window views.
:class:`repro.rtl.trace_reference.ReferenceSignalTrace` is the retained
executable specification: the seed's plain event list with linear-scan
queries.  These tests drive *random record/query interleavings* through
both and require identical answers — the columnar machinery may only
ever change the cost of a query, never its result.

The golden-trace memo rides along (same satellite): a memo hit must be
indistinguishable from a fresh ISS run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl.trace import ChangeEvent, SignalTrace
from repro.rtl.trace_reference import ReferenceSignalTrace

_M64 = (1 << 64) - 1

#: Values exercising the full unsigned-64 storage range of the old/new
#: columns (the arch registers and dcache tags really use the top bit).
_VALUES = (0, 1, 2, 0x7FFF_FFFF_FFFF_FFFF, 1 << 63, _M64)


def build_pair(signals=6):
    names = [f"s{i}" for i in range(signals)]
    initial = [_VALUES[i % len(_VALUES)] for i in range(signals)]
    return (SignalTrace(names, list(initial)),
            ReferenceSignalTrace(names, list(initial)))


def reference_window(reference, start, end):
    """The reference's window events: a linear scan of the event list."""
    return [e for e in reference.events if start <= e.cycle <= end]


def assert_window_equivalent(columnar, reference, start, end):
    view = columnar.window_view(start, end)
    events = reference_window(reference, start, end)
    assert view.events == events
    assert view.toggled() == {e.signal for e in events}


def assert_equivalent(columnar, reference, cycle_range):
    """Every query type must agree at every cycle of ``cycle_range``."""
    assert len(columnar) == len(reference)
    assert columnar.events == reference.events
    for cycle in cycle_range:
        assert columnar.snapshot(cycle) == reference.snapshot(cycle)
    for start in cycle_range:
        for end in cycle_range:
            if end < start:
                continue
            assert_window_equivalent(columnar, reference, start, end)
            assert columnar.diff(start, end) == reference.diff(start, end)
    subsets = [{0}, {1, 3}, set(range(len(columnar.signal_names)))]
    for subset in subsets:
        assert list(columnar.signal_event_positions(subset)) == \
            list(reference.signal_event_positions(subset))


class TestRandomInterleavings:
    """Random record/query interleavings: queries run *between* appends,
    so every lazily-built cache and memo is exercised against later
    invalidation (stale window views, snapshot resume across appended
    suffixes)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_record_and_query(self, seed):
        rng = random.Random(seed)
        columnar, reference = build_pair()
        signals = len(columnar.signal_names)
        state = list(columnar.initial)
        cycle = 0
        for _step in range(rng.randrange(40, 160)):
            action = rng.random()
            if action < 0.65:  # record a change event
                cycle += rng.randrange(0, 3)
                signal = rng.randrange(signals)
                new = rng.choice(_VALUES + (rng.getrandbits(64),))
                if new == state[signal]:
                    continue
                columnar.record(cycle, signal, state[signal], new)
                reference.record(cycle, signal, state[signal], new)
                state[signal] = new
            elif action < 0.75:  # snapshot at a random (also past) cycle
                at = rng.randrange(-1, cycle + 2)
                assert columnar.snapshot(at) == reference.snapshot(at)
            elif action < 0.85:  # window queries over a random range
                start = rng.randrange(0, cycle + 1)
                end = start + rng.randrange(0, 6)
                assert_window_equivalent(columnar, reference, start, end)
                assert columnar.diff(start, end) == \
                    reference.diff(start, end)
            else:  # signal-subset scan
                subset = {rng.randrange(signals) for _ in range(2)}
                assert columnar.signal_event_positions(subset) == \
                    reference.signal_event_positions(subset)
        columnar.close(cycle + 1)
        reference.close(cycle + 1)
        assert columnar.final_cycle == reference.final_cycle
        assert_equivalent(columnar, reference, range(-1, cycle + 3))

    def test_extreme_values_round_trip(self):
        """The unsigned columns must hold the full 64-bit value range."""
        columnar, reference = build_pair(signals=2)
        previous = columnar.initial[0]
        for cycle, value in enumerate(_VALUES):
            if value == previous:
                continue
            columnar.record(cycle, 0, previous, value)
            reference.record(cycle, 0, previous, value)
            previous = value
        assert columnar.events == reference.events
        assert columnar.snapshot(len(_VALUES)) == \
            reference.snapshot(len(_VALUES))
        assert all(isinstance(e, ChangeEvent) for e in columnar.events)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 3),
                  st.sampled_from(_VALUES)),
        max_size=40,
    ))
    def test_hypothesis_equivalence(self, raw_events):
        columnar, reference = build_pair(signals=4)
        state = list(columnar.initial)
        for cycle, signal, new in sorted(raw_events, key=lambda e: e[0]):
            if new == state[signal]:
                continue
            columnar.record(cycle, signal, state[signal], new)
            reference.record(cycle, signal, state[signal], new)
            state[signal] = new
        columnar.close(16)
        reference.close(16)
        assert_equivalent(columnar, reference, range(-1, 18))


class TestColumnarSpecifics:
    def test_columns_are_parallel_and_typed(self):
        trace, _ = build_pair(signals=3)
        trace.record(0, 1, trace.initial[1], _M64)
        trace.record(2, 2, trace.initial[2], 7)
        cycles, signals, olds, news = trace.columns()
        assert list(cycles) == [0, 2]
        assert list(signals) == [1, 2]
        assert news[0] == _M64  # unsigned 64-bit storage
        assert cycles.typecode == "q" and news.typecode == "Q"

    def test_events_materialise_fresh_lists(self):
        trace, _ = build_pair(signals=2)
        trace.record(0, 0, trace.initial[0], 5)
        first = trace.events
        second = trace.events
        assert first == second and first is not second

    def test_appender_fast_path_matches_record(self):
        """The TraceWriter fast path (bound column appends + close) and
        record must produce indistinguishable traces."""
        via_record, _ = build_pair(signals=2)
        via_appenders, _ = build_pair(signals=2)
        events = [(0, 0, via_record.initial[0], 9),
                  (1, 1, via_record.initial[1], _M64),
                  (1, 0, 9, 0)]
        for event in events:
            via_record.record(*event)
        append_cycle, append_signal, append_old, append_new = \
            via_appenders.appenders()
        for cycle, signal, old, new in events:
            append_cycle(cycle)
            append_signal(signal)
            append_old(old)
            append_new(new)
        via_record.close(3)
        via_appenders.close(3)
        assert via_appenders.events == via_record.events
        assert via_appenders.final_cycle == via_record.final_cycle
        assert via_appenders.snapshot(3) == via_record.snapshot(3)

    def test_no_reference_cycle_between_trace_and_views(self):
        """Views must not hold the trace: a dropped trace (plus its
        cached views) frees by refcount alone, with the cyclic collector
        disabled — so a campaign's per-run artifacts never wait on it."""
        import gc
        import weakref

        trace, _ = build_pair(signals=2)
        trace.record(0, 0, trace.initial[0], 5)
        view = trace.window_view(0, 1)
        view.toggled()
        finalized = weakref.ref(trace)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del trace, view
            assert finalized() is None
        finally:
            if was_enabled:
                gc.enable()


class TestGoldenTraceMemo:
    """Satellite: memo-hit correctness for the golden-trace cache."""

    def _program(self):
        from repro.fuzz.triggers import all_triggers

        return all_triggers()["spectre_v1"]

    @pytest.mark.parametrize("clause", ["ct-seq", "ct-cond", "arch-seq"])
    def test_hit_equals_fresh_iss_run(self, clause):
        from repro.contracts.clauses import GoldenTraceMemo, contract_trace

        program = self._program()
        memo = GoldenTraceMemo()
        first = memo.trace(program, clause=clause)
        again = memo.trace(program, clause=clause)
        fresh = contract_trace(program, clause=clause)
        assert again is first          # served from the memo
        assert first == fresh          # and identical to a fresh ISS run
        assert (memo.hits, memo.misses) == (1, 1)

    def test_distinct_inputs_never_alias(self):
        from repro.contracts.clauses import GoldenTraceMemo

        program = self._program()
        memo = GoldenTraceMemo()
        base = memo.trace(program, clause="ct-seq")
        overlay = program.copy()
        overlay.memory_overlay[0x8100_0400] = 0xAB
        reseeded = program.copy()
        reseeded.data_seed = program.data_seed + 1
        assert memo.trace(overlay, clause="ct-seq") is not base
        assert memo.trace(reseeded, clause="ct-seq") is not base
        assert memo.trace(program, clause="arch-seq") is not base
        assert memo.misses == 4 and memo.hits == 0

    def test_lru_eviction_recomputes_correctly(self):
        from repro.contracts.clauses import GoldenTraceMemo, contract_trace

        program = self._program()
        memo = GoldenTraceMemo(capacity=1)
        first = memo.trace(program, clause="ct-seq")
        memo.trace(program, clause="arch-seq")   # evicts the ct-seq entry
        assert len(memo) == 1
        recomputed = memo.trace(program, clause="ct-seq")
        assert recomputed == first == contract_trace(program, clause="ct-seq")
        assert memo.misses == 3

    def test_campaign_memo_counters_reach_stats(self):
        """ct-cond campaigns re-request the ct-seq architectural view
        through the memo; the online stats must carry the traffic."""
        from repro.core.specure import Specure
        from repro.boom.config import BoomConfig
        from repro.boom.vulns import VulnConfig

        specure = Specure(BoomConfig.small(VulnConfig.all()), seed=1,
                          monitor_dcache=True, detector="contract",
                          contract="ct-cond")
        report = specure.campaign(6)
        stats = report.stats
        assert stats.memo_hits + stats.memo_misses >= 1
        merged = stats.merge(stats)
        assert merged.memo_hits == 2 * stats.memo_hits
        assert merged.memo_misses == 2 * stats.memo_misses
        timed = report.render(include_timings=True)
        stable = report.render(include_timings=False)
        assert "golden-trace memo" in timed
        assert "golden-trace memo" not in stable
