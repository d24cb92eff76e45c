"""Tests for change-event traces and snapshot reconstruction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rtl.trace import SignalTrace


def make_trace():
    trace = SignalTrace(["a", "b", "c"], [0, 10, 100])
    trace.record(0, 0, 0, 1)     # a: 0 -> 1 in cycle 0
    trace.record(2, 1, 10, 11)   # b: 10 -> 11 in cycle 2
    trace.record(2, 0, 1, 2)     # a: 1 -> 2 in cycle 2
    trace.record(5, 2, 100, 0)   # c: 100 -> 0 in cycle 5
    trace.close(6)
    return trace


class TestSnapshots:
    def test_initial_snapshot(self):
        assert make_trace().snapshot(-1) == [0, 10, 100]

    def test_intermediate_snapshots(self):
        trace = make_trace()
        assert trace.snapshot(0) == [1, 10, 100]
        assert trace.snapshot(1) == [1, 10, 100]
        assert trace.snapshot(2) == [2, 11, 100]
        assert trace.snapshot(6) == [2, 11, 0]

    def test_diff_window(self):
        trace = make_trace()
        delta = trace.diff(0, 5)
        assert delta == {0: (1, 2), 1: (10, 11), 2: (100, 0)}

    def test_diff_empty_window(self):
        assert make_trace().diff(3, 4) == {}


class TestEvents:
    def test_window_view_events_by_range(self):
        trace = make_trace()
        assert [e.cycle for e in trace.window_view(1, 4).events] == [2, 2]
        assert len(trace.window_view(0, 6)) == 4

    def test_toggle_counts(self):
        trace = make_trace()
        counts = {}
        for event in trace.window_view(0, 6).events:
            counts[event.signal] = counts.get(event.signal, 0) + 1
        assert counts == {0: 2, 1: 1, 2: 1}

    def test_window_view_toggled(self):
        trace = make_trace()
        assert trace.window_view(2, 2).toggled() == {0, 1}
        assert trace.window_view(3, 4).toggled() == set()

    def test_out_of_order_rejected(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            trace.record(1, 0, 2, 3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SignalTrace(["a"], [1, 2])

    def test_index_of(self):
        assert make_trace().index_of("c") == 2


def naive_snapshot(trace, cycle):
    """The seed's O(events) reference implementation."""
    state = list(trace.initial)
    for event in trace.events:
        if event.cycle > cycle:
            break
        state[event.signal] = event.new
    return state


def random_trace(seed, signals=5, events=200, max_cycle=60):
    import random

    rng = random.Random(seed)
    names = [f"s{i}" for i in range(signals)]
    initial = [rng.randrange(100) for _ in range(signals)]
    trace = SignalTrace(names, initial)
    state = list(initial)
    cycle = 0
    for _ in range(events):
        cycle += rng.randrange(3)
        if cycle > max_cycle:
            break
        signal = rng.randrange(signals)
        new = rng.randrange(100)
        if new != state[signal]:
            trace.record(cycle, signal, state[signal], new)
            state[signal] = new
    trace.close(max_cycle)
    return trace


class TestIndexedQueriesMatchNaiveScan:
    """Regression: the bisect/index fast paths must agree with the
    seed's linear scans on randomized traces, at every cycle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_snapshot_matches_naive(self, seed):
        trace = random_trace(seed)
        cycles = list(range(-1, trace.final_cycle + 2))
        # Query out of cycle order to exercise the resume memo both ways.
        for cycle in cycles + cycles[::-1] + cycles[::3]:
            assert trace.snapshot(cycle) == naive_snapshot(trace, cycle)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_view_matches_eventwise_derivations(self, seed):
        trace = random_trace(seed)
        for start in range(0, trace.final_cycle, 5):
            for end in range(start, min(start + 15, trace.final_cycle + 1), 5):
                view = trace.window_view(start, end)
                events = [e for e in trace.events if start <= e.cycle <= end]
                assert view.events == events
                assert view.toggled() == {e.signal for e in events}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slice_diff_matches_snapshot_diff(self, seed):
        trace = random_trace(seed)
        for start in range(-1, trace.final_cycle, 4):
            for end in range(start, trace.final_cycle + 1, 4):
                before = naive_snapshot(trace, start)
                after = naive_snapshot(trace, end)
                expected = {
                    i: (before[i], after[i])
                    for i in range(len(before)) if before[i] != after[i]
                }
                assert trace.diff(start, end) == expected

    def test_signal_event_positions_preserve_stream_order(self):
        trace = random_trace(7)
        subset = {0, 2, 4}
        events = trace.events
        merged = [events[p] for p in trace.signal_event_positions(subset)]
        expected = [e for e in events if e.signal in subset]
        assert merged == expected

    def test_indexed_snapshot_examines_fewer_events(self):
        """The operation-count contract the E9 benchmark relies on:
        cycle-ordered snapshot queries replay each event at most once
        in total, not once per query."""
        trace = random_trace(11)
        queries = list(range(0, trace.final_cycle + 1, 2))
        trace.events_examined = 0
        for cycle in queries:
            trace.snapshot(cycle)
        naive_cost = sum(
            sum(1 for e in trace.events if e.cycle <= c) for c in queries
        )
        assert trace.events_examined <= len(trace.events)
        assert trace.events_examined < naive_cost


class TestSnapshotConsistency:
    @given(st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 2), st.integers(0, 99)),
        max_size=30,
    ))
    def test_snapshot_equals_replay(self, raw_events):
        """snapshot(c) must equal a naive forward replay at every cycle."""
        trace = SignalTrace(["a", "b", "c"], [0, 0, 0])
        state = [0, 0, 0]
        events = sorted(raw_events, key=lambda item: item[0])
        history = {}
        for cycle, signal, new in events:
            if new != state[signal]:
                trace.record(cycle, signal, state[signal], new)
                state[signal] = new
            history[cycle] = list(state)
        trace.close(20)
        replay = [0, 0, 0]
        for cycle in range(21):
            if cycle in history:
                replay = history[cycle]
            assert trace.snapshot(cycle) == replay
