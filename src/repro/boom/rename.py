"""P6-style register renaming: rename table, snapshots, rollback.

The rename table maps each architectural register to the ROB entry that
will produce it (or to "committed" when the architectural register file
already holds the latest value).  Every control-flow instruction takes a
snapshot; misprediction restores it.

**The Zenbleed hook lives at the rollback boundary** (paper §4.2): when
``zenbleed_en`` is set, the core suppresses the rollback of register-file
changes — wrong-path results that already executed are retired into the
architectural register file even though their instructions are squashed.
The decision is made in :mod:`repro.boom.core`; this module provides the
mechanism (snapshot/restore) and the traced map state.
"""

from __future__ import annotations

from repro.boom import netlist as nl
from repro.boom.tracer import TraceWriter


class RenameTable:
    """Architectural register -> producing ROB tag (or None = committed).

    Traced encoding of ``map_i``: 0 when committed, ``rob_index + 1``
    otherwise.
    """

    def __init__(self, tracer: TraceWriter):
        self._ix = [tracer.idx(nl.sig_map(i)) for i in range(32)]
        self.reset(tracer)

    def reset(self, tracer: TraceWriter) -> None:
        """Clear every mapping and snapshot onto a fresh trace writer."""
        self.tracer = tracer
        self.map: list[int | None] = [None] * 32
        self._snapshots: dict[int, list[int | None]] = {}

    def _publish(self, index: int) -> None:
        value = self.map[index]
        self.tracer.set(self._ix[index], 0 if value is None else value + 1)

    def producer(self, arch_reg: int) -> int | None:
        """ROB index producing ``arch_reg``, or None if committed."""
        return self.map[arch_reg]

    def allocate(self, arch_reg: int, rob_index: int) -> None:
        """Point ``arch_reg`` at the newly dispatched producer."""
        if arch_reg == 0:
            return
        self.map[arch_reg] = rob_index
        self._publish(arch_reg)

    def retire(self, arch_reg: int, rob_index: int) -> None:
        """On commit: clear the mapping if this producer is still current."""
        if arch_reg != 0 and self.map[arch_reg] == rob_index:
            self.map[arch_reg] = None
            self._publish(arch_reg)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, key: int) -> None:
        """Take a snapshot keyed by the branch's speculation tag."""
        self._snapshots[key] = list(self.map)

    def drop_snapshot(self, key: int) -> None:
        self._snapshots.pop(key, None)

    def restore(self, key: int) -> None:
        """Roll the map back to the snapshot (normal misprediction path)."""
        saved = self._snapshots.pop(key)
        for index in range(32):
            if self.map[index] != saved[index]:
                self.map[index] = saved[index]
                self._publish(index)

    def scrub_committed(self, rob_index: int) -> None:
        """A producer committed: purge its tag from all live snapshots.

        Without this, restoring an old snapshot could resurrect a tag
        whose ROB slot has been recycled.
        """
        if not self._snapshots:
            return
        for saved in self._snapshots.values():
            # C-level membership scan first: a committing producer is
            # almost never still referenced by a live snapshot, and this
            # runs once per commit.
            while rob_index in saved:
                saved[saved.index(rob_index)] = None

    def scrub_squashed(self, rob_indices: set[int]) -> None:
        """Squashed producers: purge their tags from map and snapshots."""
        for index in range(32):
            if self.map[index] in rob_indices:
                self.map[index] = None
                self._publish(index)
        for saved in self._snapshots.values():
            for index in range(32):
                if saved[index] in rob_indices:
                    saved[index] = None
