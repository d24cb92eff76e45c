"""Leakage Path (LP) coverage — the paper's novel metric.

"The LP metric aims to guide Hardware Fuzzer to further explore
potential direct leakage channels during speculative execution […] It
computes the LP coverage based on the number of times the PDLC signals
toggled during the speculative window." (§3.2, Coverage Calculator)

Concretely: a PDLC is *covered* by a run when, within a single
speculative window, its source register toggles **and** every signal on
its witness path up to (but excluding) the architectural destination
toggles as well — i.e. information demonstrably moved along the channel
while speculation was in flight.  The destination is excluded because a
toggling destination would already be a leak, and coverage must measure
*exploration* of a channel, not successful exploitation.

Covered-PDLC items feed the fuzzer exactly like code-coverage items,
and the covered-PDLC count per iteration is Figure 2's y-axis.
"""

from __future__ import annotations

from repro.boom.core import CoreResult
from repro.ifg.pdlc import PdlcItem


class LpCoverage:
    """Item generator for Leakage Path coverage over a fixed PDLC list."""

    def __init__(self, pdlc: list[PdlcItem], signal_names: list[str],
                 mode: str = "path", include: set[int] | None = None):
        """``mode`` selects the coverage definition.

        * ``"path"`` (default, the metric used throughout): a PDLC is
          covered when its source *and every intermediate path signal*
          toggle within one speculative window;
        * ``"source"`` (ablation, benchmark A1): source toggle alone
          suffices — coarser feedback whose granularity collapses to
          the number of microarchitectural registers.

        ``include`` restricts the tracked channels to the given PDLC
        indices (the ``static_prune`` knob passes the statically-live
        set).  Excluded channels never enter a group, so they cost
        nothing per run and can never be reported covered; ``total``
        still counts the full PDLC list so pruned-vs-unpruned coverage
        percentages stay comparable.
        """
        if mode not in ("path", "source"):
            raise ValueError(f"unknown LP mode {mode!r}")
        self.pdlc = pdlc
        self.mode = mode
        self.include = include
        index_of = {name: i for i, name in enumerate(signal_names)}
        # Many PDLCs share the same (source + intermediates) prefix and
        # differ only in the architectural destination — group them so
        # each distinct prefix is tested once per window, which turns an
        # O(#PDLC) scan into an O(#prefixes) scan (~30x fewer).
        groups: dict[tuple[int, ...], list[int]] = {}
        for pdlc_index, item in enumerate(pdlc):
            if include is not None and pdlc_index not in include:
                continue
            path = item.path[:1] if mode == "source" else item.path[:-1]
            prefix = tuple(index_of[name] for name in path)
            groups.setdefault(prefix, []).append(pdlc_index)
        self._groups: list[tuple[tuple[int, ...], list[int]]] = sorted(
            groups.items()
        )
        #: Deduplicated prefix-signal sets parallel to ``_groups`` (a
        #: prefix may repeat a signal; the covered() AND needs it once).
        self._group_sets: list[frozenset[int]] = [
            frozenset(needed) for needed, _ in self._groups
        ]

    @property
    def total(self) -> int:
        """Total number of PDLCs (the Figure 2 y-axis ceiling)."""
        return len(self.pdlc)

    def covered(self, result: CoreResult) -> set[int]:
        """Indices of PDLCs covered by this run.

        Implemented as window-membership bitmasks: each signal gets an
        integer whose bit ``i`` says "this signal toggled inside window
        ``i``"; a group is covered when the AND of its prefix signals'
        masks is non-zero — some window saw the whole prefix toggle.
        This replaces the per-window per-group subset scan with one
        big-integer AND per group.
        """
        masks: dict[int, int] = {}
        bit = 1
        for window in result.windows:
            view = result.trace.window_view(window.start, window.end)
            toggled = view.toggled()
            if toggled:
                for signal in toggled:
                    masks[signal] = masks.get(signal, 0) | bit
                bit <<= 1
        covered: set[int] = set()
        if not masks:
            return covered
        masks_get = masks.get
        full = bit - 1  # every window: the empty prefix matches anywhere
        for (_needed, members), needed_set in zip(self._groups,
                                                  self._group_sets):
            hits = full
            for signal in needed_set:
                hits &= masks_get(signal, 0)
                if not hits:
                    break
            if hits:
                covered.update(members)
        return covered

    def items(self, result: CoreResult) -> list:
        """Coverage items ``("lp", pdlc_index)`` for the fuzzing loop."""
        return [("lp", index) for index in self.covered(result)]
