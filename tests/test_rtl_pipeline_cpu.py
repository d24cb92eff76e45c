"""The streaming pipeline CPU: a second PUT through the Verilog route.

Parses, elaborates, and simulates :data:`repro.rtl.designs.PIPELINE_CPU`
with the cycle-driven RTL simulator, then runs the offline phase on the
elaborated design — the paper's actual Pyverilog-style flow, end to end,
on a design the Python core model never touches.
"""

import pytest

from repro.core.offline import run_offline
from repro.ifg.builder import build_ifg_from_design
from repro.ifg.labeling import label_architectural
from repro.rtl.designs import CPU_OPS, PIPELINE_CPU, cpu_assemble
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse
from repro.rtl.sim import RtlSimulator


@pytest.fixture(scope="module")
def design():
    return elaborate(parse(PIPELINE_CPU), top="cpu")


def run_program(design, program, extra_cycles=3):
    """Stream a program through the CPU; returns the simulator."""
    sim = RtlSimulator(design)
    words = cpu_assemble(program)
    for word in words:
        sim.step({"instr": word})
    for _ in range(extra_cycles):  # drain the pipeline
        sim.step({"instr": 0})
    return sim


class TestPipelineCpu:
    def test_parses_and_elaborates(self, design):
        assert "cpu.acc" in design.signals
        assert "cpu.rf.r0" in design.signals
        assert design.signals["cpu.acc"].is_state
        assert design.signals["cpu.ex.result"].is_state is False

    def test_ldi(self, design):
        sim = run_program(design, [("ldi", 7)])
        assert sim.value("cpu.acc") == 7

    def test_ldi_add_sequence(self, design):
        # acc = 5; r0 = 5; acc = 3; acc += r0 -> 8
        sim = run_program(design, [
            ("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0),
        ])
        assert sim.value("cpu.acc") == 8
        assert sim.value("cpu.rf.r0") == 5

    def test_xor_and_shl(self, design):
        sim = run_program(design, [
            ("ldi", 0b10101), ("st", 1), ("ldi", 0b01111), ("xor", 1),
            ("shl", 0),
        ])
        assert sim.value("cpu.acc") == ((0b10101 ^ 0b01111) << 1) & 0xFF

    def test_store_to_all_registers(self, design):
        program = []
        for reg in range(4):
            program.append(("ldi", reg + 1))
            program.append(("st", reg))
        sim = run_program(design, program)
        for reg in range(4):
            assert sim.value(f"cpu.rf.r{reg}") == reg + 1

    def test_nop_stream_is_quiet(self, design):
        sim = RtlSimulator(design)
        trace = sim.run(8, stimulus=[{"instr": 0}] * 8)
        assert trace.snapshot(7)[trace.index_of("cpu.acc")] == 0

    def test_pipeline_latency_is_two_cycles(self, design):
        sim = RtlSimulator(design)
        sim.step({"instr": cpu_assemble([("ldi", 9)])[0]})
        assert sim.value("cpu.acc") == 0  # in fetch latch
        sim.step({"instr": 0})
        assert sim.value("cpu.acc") == 0  # in decode latch
        sim.step({"instr": 0})
        assert sim.value("cpu.acc") == 9  # executed

    def test_accumulator_wraps_at_8_bits(self, design):
        sim = run_program(design, [
            ("ldi", 31), ("st", 0),
            ("add", 0), ("add", 0), ("add", 0), ("add", 0),
            ("add", 0), ("add", 0), ("add", 0), ("add", 0),
            ("shl", 0), ("shl", 0), ("shl", 0),
        ])
        assert 0 <= sim.value("cpu.acc") <= 0xFF


class TestPipelineCpuOffline:
    def test_ifg_structure(self, design):
        ifg = build_ifg_from_design(design)
        # Pipeline latches and architectural state are all vertices.
        for name in ("cpu.instr_f", "cpu.op_d", "cpu.arg_d", "cpu.acc",
                     "cpu.rf.r0", "cpu.rf.r3"):
            assert name in ifg.info
        # Dataflow: decode latch feeds the ALU op input.
        assert ifg.has_edge("cpu.op_d", "cpu.ex.op")

    def test_offline_phase_finds_pipeline_channels(self, design):
        offline = run_offline(design, arch_names=["acc", "r0", "r1", "r2", "r3"])
        assert offline.arch_count == 5
        sources = {item.source for item in offline.pdlc}
        # Every pipeline latch can flow into architectural state.
        assert {"cpu.instr_f", "cpu.op_d", "cpu.arg_d"} <= sources
        dests = {item.dest for item in offline.pdlc}
        assert "cpu.acc" in dests
        assert "cpu.rf.r2" in dests

    def test_implicit_flow_through_write_enable(self, design):
        """op_d gates the register write: implicit flow into r0..r3."""
        ifg = build_ifg_from_design(design)
        label_architectural(ifg, arch_names=["r0"])
        from repro.ifg.pdlc import extract_pdlc_reverse

        items = extract_pdlc_reverse(ifg)
        op_d_channels = [i for i in items if i.source == "cpu.op_d"
                         and i.dest == "cpu.rf.r0"]
        assert op_d_channels

    def test_in_order_cpu_has_no_speculation_story(self, design):
        """The design has no predictor/rollback structure: the IFG shows
        plenty of channels, but there is no mechanism to open a
        speculative window — channels alone are not vulnerabilities."""
        offline = run_offline(design, arch_names=["acc"])
        assert len(offline.pdlc) > 3  # channels exist...
        # ...but no signal resembles a speculation indicator.
        assert not any("unsafe" in name or "brupdate" in name
                       for name in offline.ifg.vertices())
