"""A fixed reference kernel that measures how fast the host runs now.

The benchmark runs on hosts shared with other load, whose speed drifts
by a quarter or more over minutes, for interpreted code as much in
processor time as in wall time.  :meth:`Calibration.probe` times a small
pure-Python kernel of the same kind of work as the program's simulators
(slotted objects stepping masked registers over a dict memory, with a
trace list), and the benchmark interleaves probes with the work it
measures.  Dividing a measured time by ``probe time / REFERENCE_S``
gives the time on a host where the kernel takes :data:`REFERENCE_S`, so
host drift cancels and a change to the program does not (the kernel is
part of the benchmark, not of the program).
"""

from __future__ import annotations

import random
import statistics
import time

#: Seconds the kernel takes on the 2-core x86 host the benchmark was
#: tuned on; calibrated figures are in seconds of that host.
REFERENCE_S = 0.02
#: Passes over the program per probe (sets the probe's length).
PASSES = 4
#: Distinct registers, memory words and program steps of the kernel.
REGISTERS, WORDS, STEPS = 4096, 12000, 4000
_MASK64 = (1 << 64) - 1


class _Register:
    __slots__ = ("value", "mask")

    def __init__(self, width: int):
        self.value = 0
        self.mask = (1 << width) - 1

    def step(self, operand: int) -> int:
        self.value = (self.value * 33 + operand) & self.mask
        return self.value


def _build(seed: int = 1):
    rng = random.Random(seed)
    registers = [_Register(8 + index % 56) for index in range(REGISTERS)]
    memory = {word * 8: rng.getrandbits(64) for word in range(WORDS)}
    program = [(rng.randrange(REGISTERS), rng.randrange(WORDS) * 8)
               for _ in range(STEPS)]
    return registers, memory, program


def _kernel() -> int:
    # The state is rebuilt per probe, so every probe does the same work.
    # The rebuild (allocation) and the passes (stepping) take about half
    # the probe each: measured against host drift, stepping alone
    # tracked contract-cond but not rtl-campaign and allocation alone
    # the reverse, while the two together tracked both (WORKLOADS.md).
    registers, memory, program = _build()
    trace, accumulator = [], 0
    for _ in range(PASSES):
        for index, address in program:
            value = registers[index].step(memory[address] >> 3)
            if value & 1:
                trace.append((index, value))
            else:
                accumulator ^= value
            memory[address] = (memory[address] + value) & _MASK64
    return accumulator + len(trace)


#: The kernel's result, checked by every probe (a wrong result means the
#: kernel did not do its work).
EXPECTED = _kernel()


class Calibration:
    """Probes taken around one run's measurements."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def probe(self) -> float:
        """Runs the kernel once; returns its wall time."""
        wall, cpu = time.perf_counter(), time.process_time()
        result = _kernel()
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        if result != EXPECTED:
            raise RuntimeError("the reference kernel computed a wrong "
                               "result")
        self.wall.append(wall)
        self.cpu.append(cpu)
        return wall

    def wall_factor(self) -> float:
        """How much slower than the reference host the host ran, in wall
        time, over every probe so far (above 1: slower)."""
        return statistics.mean(self.wall) / REFERENCE_S

    def cpu_factor(self) -> float:
        """The same in processor time."""
        return statistics.mean(self.cpu) / REFERENCE_S
