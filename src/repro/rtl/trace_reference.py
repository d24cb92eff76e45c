"""The executable specification of :class:`repro.rtl.trace.SignalTrace`.

A deliberately simple event-*list* trace with the same recording,
snapshot, diff and signal-scan API as the columnar implementation: one
:class:`ChangeEvent` per change, and every query answered by a plain
linear scan.  It exists so the equivalence suite
(``tests/test_trace_columnar.py``) can drive random record/query
interleavings through both implementations and require identical
answers — the columnar store's bisects, snapshot resume memo and cached
window views must never change a result, only its cost.

Not used on any production path; ``events_examined`` telemetry is
maintained (as the naive full-scan cost) but carries no contract here.
"""

from __future__ import annotations

from repro.rtl.trace import ChangeEvent


class ReferenceSignalTrace:
    """Plain event-list trace; every query is a full linear scan."""

    def __init__(self, signal_names: list[str], initial: list[int]):
        if len(signal_names) != len(initial):
            raise ValueError("signal_names and initial must have equal length")
        self.signal_names = list(signal_names)
        self.initial = list(initial)
        self.events: list[ChangeEvent] = []
        self._index_of = {name: i for i, name in enumerate(signal_names)}
        self.events_examined = 0
        self.final_cycle = -1

    def index_of(self, name: str) -> int:
        return self._index_of[name]

    def record(self, cycle: int, signal: int, old: int, new: int) -> None:
        if cycle < self.final_cycle:
            raise ValueError(
                f"events must be appended in cycle order ({cycle} < {self.final_cycle})"
            )
        self.events.append(ChangeEvent(cycle, signal, old, new))
        self.final_cycle = cycle

    def close(self, last_cycle: int) -> None:
        self.final_cycle = max(self.final_cycle, last_cycle)

    # -- queries (all linear scans) -----------------------------------------

    def snapshot(self, cycle: int) -> list[int]:
        state = list(self.initial)
        for event in self.events:
            if event.cycle > cycle:
                break
            state[event.signal] = event.new
            self.events_examined += 1
        return state

    def signal_event_positions(self, indices) -> list[int]:
        return [
            position for position, event in enumerate(self.events)
            if event.signal in indices
        ]

    def diff(self, start: int, end: int) -> dict[int, tuple[int, int]]:
        before = self.snapshot(start)
        after = self.snapshot(end)
        return {
            index: (before[index], after[index])
            for index in range(len(before))
            if before[index] != after[index]
        }

    def __len__(self) -> int:
        return len(self.events)
