"""``RtlPut``: the Verilog-backed processor under test.

Wraps :class:`~repro.rtl.sim.RtlSimulator` in the :class:`Put` protocol
so parsed Verilog designs run under the *unchanged* online pipeline —
the simulator's generated recorder appends change events to the same
columnar :class:`~repro.rtl.trace.SignalTrace` the BOOM engine writes,
commits are read from the design's registered commit record, windows
extracted from its strobe signals.

The harness's per-cycle contract with the design (see
:data:`repro.rtl.designs.SPEC_CPU`):

1. drive ``instr`` with the word at the *previous* cycle's ``pc_f``
   (NOP off the program image) and ``dmem_rdata`` with the data for the
   load that just entered X1, then clock the design;
2. record every signal into the trace (declaration order — the window
   extractor and hardware-trace collector replay events positionally);
3. apply the registered commit record: stores land in data memory
   *after* the edge, exactly one instruction behind the X2 preview used
   for store-to-load forwarding, so a load always sees every older
   store (k >= 2 from memory, k == 1 forwarded);
4. halt on a committed ECALL, a committed control transfer out of the
   program, the cycle budget, or a commit timeout.

The fetch image is frozen at reset: stores update data memory, never
the instruction stream, and the golden model applies the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boom.core import _COMMIT_POINTS, Commit, CoreResult
from repro.contracts.clauses import GoldenTraceMemo
from repro.detection.windows import extract_windows
from repro.fuzz.input import TestProgram
from repro.golden.memory import SparseMemory
from repro.isa.instructions import decode
from repro.puts.base import Put, PutSignalMap
from repro.puts.spec_cpu import (
    NOP,
    SPEC_CPU_CLAUSES,
    spec_cpu_contract_trace,
    spec_cpu_design,
    spec_cpu_seeds,
    spec_cpu_signal_map,
)


@dataclass(frozen=True)
class RtlPutConfig:
    """Configuration of a Verilog-backed PUT.

    ``design`` names the registered RTL design; the geometry fields
    mirror :class:`~repro.boom.config.BoomConfig`'s so the online phase
    reads either config uniformly.
    """

    design: str = "spec-cpu"
    dcache_sets: int = 4
    dcache_ways: int = 1
    line_bytes: int = 16
    base_address: int = 0x8000_0000
    data_address: int = 0x8100_0000
    max_cycles: int = 600
    commit_timeout: int = 64


class RtlPut(Put):
    """Runs the ``SPEC_CPU`` Verilog design as a processor under test."""

    design = "spec-cpu"

    def __init__(self, config: RtlPutConfig | None = None):
        self.config = config or RtlPutConfig()
        if self.config.design != "spec-cpu":
            raise ValueError(
                f"unknown RTL design {self.config.design!r} "
                f"(registered: 'spec-cpu')"
            )
        from repro.rtl.sim import RtlSimulator

        self._design = spec_cpu_design()
        self._map = spec_cpu_signal_map(self.config)
        self.sim = RtlSimulator(self._design)

    # -- the cycle-level protocol ------------------------------------------

    def reset(self, program: TestProgram) -> None:
        config = self.config
        memory = SparseMemory(fill_seed=program.data_seed)
        memory.load_words(config.base_address, program.words)
        for address, value in program.memory_overlay.items():
            memory.write_byte(address, value)
        self.memory = memory
        self._code = [memory.read(config.base_address + 4 * i, 4)
                      for i in range(len(program.words))]
        self._code_bytes = 4 * len(program.words)
        self.program = program

        presets = {"pc": config.base_address, "pc_f": config.base_address}
        for index in range(1, 8):
            presets[f"x{index}"] = program.reg_init[index] & 0xFFFF_FFFF
        self.sim.preset(presets, reset=True)

        self._trace = self.sim.new_trace()
        self._record = self.sim.recorder(self._trace)

        self.cycle = -1
        self.commits: list[Commit] = []
        self.coverage: dict[str, int] = {}
        self.halted = False
        self.halt_reason = "max_cycles"
        self.squashed_count = 0
        self._last_commit_cycle = 0
        self._budget = min(program.max_cycles, config.max_cycles)
        self._rdata = 0
        self._instr = self._fetch(config.base_address)

    def step(self) -> bool:
        if self.halted or self.cycle + 1 >= self._budget:
            return False
        self.cycle += 1
        sim = self.sim
        sim.step({"spec_cpu.instr": self._instr,
                  "spec_cpu.dmem_rdata": self._rdata})
        self._record(self.cycle)
        values = sim.values
        if values["spec_cpu.c_valid"]:
            self._commit(values)
        if (not self.halted
                and self.cycle - self._last_commit_cycle
                > self.config.commit_timeout):
            self.halted = True
            self.halt_reason = "commit_timeout"
        if self.halted:
            return False
        if values["spec_cpu.e1_valid"] and values["spec_cpu.e1_is_ld"]:
            self._rdata = self._load(values["spec_cpu.e1_mem_addr"], values)
        else:
            self._rdata = 0
        self._instr = self._fetch(values["spec_cpu.pc_f"])
        return True

    def finish(self) -> CoreResult:
        trace = self._trace
        trace.close(max(self.cycle, 0))  # a run of no cycles closes at 0
        values = self.sim.values
        arch_regs = ([values[f"spec_cpu.x{i}"] for i in range(8)]
                     + [0] * 24)
        coverage = dict(self.coverage)
        coverage[f"halt.{self.halt_reason}"] = 1
        return CoreResult(
            trace=trace,
            commits=self.commits,
            windows=extract_windows(trace, self._map.windows),
            coverage_points=coverage,
            cycles=self.cycle + 1,
            instret=len(self.commits),
            halt_reason=self.halt_reason,
            arch_regs=arch_regs,
            csr_values={},
            squashed_count=self.squashed_count,
        )

    # -- design structure ---------------------------------------------------

    def signal_names(self) -> list[str]:
        return self._design.signal_names()

    def signal_map(self) -> PutSignalMap:
        return self._map

    def offline_model(self):
        return self._design

    def static_source(self) -> str | None:
        from repro.rtl.designs import SPEC_CPU

        return SPEC_CPU

    # -- fuzzing hooks ------------------------------------------------------

    def special_seeds(self) -> list[TestProgram]:
        return spec_cpu_seeds(self.config)

    def golden_memo(self) -> GoldenTraceMemo:
        return GoldenTraceMemo(trace_fn=spec_cpu_contract_trace)

    def supported_clauses(self) -> tuple[str, ...]:
        return SPEC_CPU_CLAUSES

    # -- harness internals --------------------------------------------------

    def _fetch(self, pc: int) -> int:
        offset = pc - self.config.base_address
        if 0 <= offset < self._code_bytes and not offset & 3:
            return self._code[offset >> 2]
        return NOP

    def _load(self, address: int, values: dict[str, int]) -> int:
        word = self.memory.read(address, 4)
        if values["spec_cpu.e2_valid"] and values["spec_cpu.e2_is_st"]:
            store_addr = values["spec_cpu.e2_mem_addr"]
            store_value = values["spec_cpu.e2_st_val"]
            for i in range(4):
                offset = address + i - store_addr
                if 0 <= offset < 4:
                    byte = (store_value >> (8 * offset)) & 0xFF
                    word = (word & ~(0xFF << (8 * i))) | (byte << (8 * i))
        return word

    def _commit(self, values: dict[str, int]) -> None:
        word = values["spec_cpu.c_word"]
        writes = values["spec_cpu.c_we"]
        is_store = values["spec_cpu.c_st"]
        is_load = values["spec_cpu.c_ld"]
        address = values["spec_cpu.c_mem_addr"]
        next_pc = values["spec_cpu.c_next_pc"]
        if is_store:
            self.memory.write(address, values["spec_cpu.c_st_val"], 4)
        self.commits.append(Commit(
            cycle=self.cycle,
            pc=values["spec_cpu.c_pc"],
            word=word,
            next_pc=next_pc,
            rd=values["spec_cpu.c_rd"] if writes else None,
            rd_value=values["spec_cpu.c_rd_val"] if writes else None,
            store_addr=address if is_store else None,
            store_value=values["spec_cpu.c_st_val"] if is_store else None,
            store_size=4 if is_store else 0,
            load_addr=address if is_load else None,
            is_halt=bool(values["spec_cpu.c_halt"]),
        ))
        self._last_commit_cycle = self.cycle
        point = _COMMIT_POINTS[decode(word).exec_class]
        self.coverage[point] = self.coverage.get(point, 0) + 1
        if values["spec_cpu.c_mispred"]:
            self.coverage["mispredict"] = self.coverage.get("mispredict", 0) + 1
            self.squashed_count += 2
        if values["spec_cpu.c_halt"]:
            self.halted = True
            self.halt_reason = "ecall"
        elif not 0 <= next_pc - self.config.base_address < self._code_bytes:
            self.halted = True
            self.halt_reason = "runaway"
