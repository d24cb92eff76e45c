"""Tests for the cycle-driven RTL simulator."""

from dataclasses import replace

import pytest

from repro.rtl import ast
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse
from repro.rtl.sim import RtlSimulator, SimulationError
from tests.test_rtl_parser import LISTING_1


def make_sim(text: str, top: str | None = None) -> RtlSimulator:
    return RtlSimulator(elaborate(parse(text), top=top))


class TestListing1Behaviour:
    def test_two_cycle_delay(self):
        # Step convention: inputs are applied, then the clock edge fires.
        # i presented in cycle k is captured by df1 at the end of cycle k
        # and reaches o at the end of cycle k+1 — two edges end to end.
        sim = make_sim(LISTING_1, top="top")
        outputs = []
        stimulus = [1, 0, 1, 1, 0, 0, 1]
        for value in stimulus:
            sim.step({"i": value})
            outputs.append(sim.value("o"))
        assert outputs == [0] + stimulus[:-1]

    def test_trace_events(self):
        sim = make_sim(LISTING_1, top="top")
        trace = sim.run(4, stimulus=[{"i": 1}, {"i": 0}, {"i": 0}, {"i": 0}])
        assert trace.final_cycle == 3
        def value(name, cycle):
            return trace.snapshot(cycle)[trace.index_of(name)]

        assert value("top.df1.q", 0) == 1
        assert value("top.df2.q", 1) == 1
        assert value("top.o", 1) == 1
        assert value("top.o", 2) == 0


    def test_recorder_matches_a_value_diff(self):
        # The generated recorder emits exactly the events a diff of the
        # values dict before and after each cycle would.
        stimulus = [{"i": value} for value in (1, 0, 1, 1, 0, 0, 1, 0)]
        trace = make_sim(LISTING_1, top="top").run(len(stimulus), stimulus)
        sim = make_sim(LISTING_1, top="top")
        names = list(sim.values)
        expected = []
        for cycle, inputs in enumerate(stimulus):
            before = dict(sim.values)
            sim.step(inputs)
            expected += [(cycle, index, before[name], sim.values[name])
                         for index, name in enumerate(names)
                         if sim.values[name] != before[name]]
        assert [tuple(event) for event in trace.events] == expected
        assert trace.final_cycle == len(stimulus) - 1


class TestCombinational:
    def test_assign_chain(self):
        sim = make_sim(
            """
            module m(input a, output o);
              wire b;
              assign b = ~a;
              assign o = ~b;
            endmodule
            """
        )
        sim.step({"a": 1})
        assert sim.value("o") == 1
        sim.step({"a": 0})
        assert sim.value("o") == 0

    def test_order_independence(self):
        # Declared out of dependency order; scheduler must topo-sort.
        sim = make_sim(
            """
            module m(input a, output o);
              wire b;
              assign o = b;
              assign b = a;
            endmodule
            """
        )
        sim.step({"a": 1})
        assert sim.value("o") == 1

    def test_combinational_loop_rejected(self):
        with pytest.raises(SimulationError):
            make_sim(
                """
                module m(input a, output o);
                  wire x;
                  assign x = o;
                  assign o = x;
                endmodule
                """
            )

    def test_multiple_drivers_rejected(self):
        with pytest.raises(SimulationError):
            make_sim(
                """
                module m(input a, output o);
                  assign o = a;
                  assign o = ~a;
                endmodule
                """
            )

    def test_arithmetic_and_width_truncation(self):
        sim = make_sim(
            """
            module m(input [3:0] a, input [3:0] b, output [3:0] sum);
              assign sum = a + b;
            endmodule
            """
        )
        sim.step({"a": 12, "b": 7})
        assert sim.value("sum") == (12 + 7) & 0xF

    def test_ternary_and_compare(self):
        sim = make_sim(
            """
            module m(input [7:0] a, input [7:0] b, output [7:0] o);
              assign o = (a < b) ? a : b;
            endmodule
            """
        )
        sim.step({"a": 9, "b": 4})
        assert sim.value("o") == 4

    def test_concat_and_selects(self):
        sim = make_sim(
            """
            module m(input [7:0] a, output [7:0] o, output bit3);
              assign o = {a[3:0], a[7:4]};
              assign bit3 = a[3];
            endmodule
            """
        )
        sim.step({"a": 0xA5})
        assert sim.value("o") == 0x5A
        assert sim.value("bit3") == 0

    def test_division_by_zero_is_zero(self):
        sim = make_sim(
            """
            module m(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
              assign q = a / b;
              assign r = a % b;
            endmodule
            """
        )
        sim.step({"a": 9, "b": 0})
        assert sim.value("q") == 0
        assert sim.value("r") == 0

    def test_reduction_operators(self):
        sim = make_sim(
            """
            module m(input [3:0] a, output all1, output any1, output par);
              assign all1 = &a;
              assign any1 = |a;
              assign par = ^a;
            endmodule
            """
        )
        sim.step({"a": 0xF})
        assert (sim.value("all1"), sim.value("any1"), sim.value("par")) == (1, 1, 0)
        sim.step({"a": 0x1})
        assert (sim.value("all1"), sim.value("any1"), sim.value("par")) == (0, 1, 1)


class TestWidthRules:
    """The simulator and the static folder share one copy of the Verilog
    width rules, so a compound operand is sized by what it contains."""

    SOURCE = """
    module m(input [1:0] a, input [1:0] b, output [7:0] cat, output inv);
      assign cat = {a, {b, a}};
      assign inv = (~(a & b)) == 2'b11;
    endmodule
    """
    EXPECTED = {"m.cat": 25, "m.inv": 1}

    def test_simulator_sizes_compound_operands(self):
        sim = make_sim(self.SOURCE)
        sim.step({"a": 1, "b": 2})
        assert {name: sim.value(name) for name in self.EXPECTED} == \
            self.EXPECTED

    def test_folder_agrees_with_the_simulator(self):
        from repro.analysis.fold import refine

        design = elaborate(parse(self.SOURCE))
        widths = {name: s.width for name, s in design.signals.items()}
        folded = {
            assign.target: refine(assign.value, {"m.a": 1, "m.b": 2},
                                  widths)[0]
            for assign in design.assigns
        }
        assert folded == self.EXPECTED


class TestOperatorTable:
    """The simulator and the static folder evaluate operators from one
    table, so they agree on the ``>>`` clamp and both implement ``/``
    and ``%``."""

    SOURCE = """
    module m(input [7:0] a, output [7:0] shr, output [7:0] quo,
             output [7:0] rem);
      assign shr = (a << 64) >> 66;
      assign quo = a / 8'd6;
      assign rem = a % 8'd6;
    endmodule
    """
    EXPECTED = {"m.shr": 63, "m.quo": 42, "m.rem": 3}

    def test_simulator_evaluates_the_table(self):
        sim = make_sim(self.SOURCE)
        sim.step({"a": 0xFF})
        assert {name: sim.value(name) for name in self.EXPECTED} == \
            self.EXPECTED

    def test_folder_agrees_with_the_simulator(self):
        from repro.analysis.fold import refine

        design = elaborate(parse(self.SOURCE))
        widths = {name: s.width for name, s in design.signals.items()}
        folded = {
            assign.target: refine(assign.value, {"m.a": 0xFF}, widths)[0]
            for assign in design.assigns
        }
        assert folded == self.EXPECTED

    def test_lint_folds_constant_division(self):
        from repro.analysis.lint import lint_design

        design = elaborate(parse(
            """
            module m(input clk, input [7:0] a, output reg [7:0] r);
              always @(posedge clk) if (8'd6 / 8'd3) r <= a;
            endmodule
            """
        ))
        checks = [d.check for d in lint_design(design)]
        assert "unreachable-branch" in checks


class TestGeneratedSource:
    """The compiled program is a pure function of the design."""

    def test_source_is_identical_across_hash_seeds(self):
        import hashlib
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import hashlib\n"
            "from repro.puts.spec_cpu import spec_cpu_design\n"
            "from repro.rtl.sim import compile_design\n"
            "print(hashlib.sha256(compile_design(spec_cpu_design())"
            ".source.encode()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            digests.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout.strip())
        from repro.puts.spec_cpu import spec_cpu_design
        from repro.rtl.sim import compile_design

        local = hashlib.sha256(
            compile_design(spec_cpu_design()).source.encode()).hexdigest()
        assert digests == {local}

    def test_one_program_per_design_object(self):
        from repro.rtl.sim import compile_design

        design = elaborate(parse(TestSequential.COUNTER))
        first, second = RtlSimulator(design), RtlSimulator(design)
        assert first._program is second._program is compile_design(design)
        other = elaborate(parse(TestSequential.COUNTER))
        assert compile_design(other) is not compile_design(design)

    def test_long_chains_compile_flat(self):
        # Same-operator chains and else-if ternary chains render without
        # a parenthesis per link, so they stay under Python's nesting cap.
        terms = 400
        sim = make_sim(
            f"""
            module m(input [7:0] a, output [15:0] sum, output [7:0] mux);
              assign sum = {" + ".join(["a"] * terms)};
              assign mux = {" : ".join(f"(a == 8'd{i}) ? 8'd{i}"
                                       for i in range(200))} : 8'd255;
            endmodule
            """
        )
        sim.step({"a": 3})
        assert (sim.value("sum"), sim.value("mux")) == (3 * terms, 3)

    def test_simulator_holds_no_ast_evaluator(self):
        import repro.rtl.sim as sim_module

        for name in ("_eval", "_eval_unary", "_eval_binary",
                     "_eval_statement", "_width"):
            assert not hasattr(RtlSimulator, name), name
        assert not hasattr(sim_module, "_kind_is_input")


class TestSequential:
    COUNTER = """
    module counter(input clk, input rst, output reg [7:0] count);
      always @(posedge clk)
        if (rst) count <= 8'd0;
        else count <= count + 8'd1;
    endmodule
    """

    def test_counter(self):
        sim = make_sim(self.COUNTER)
        sim.step({"rst": 1})
        assert sim.value("count") == 0
        for _ in range(5):
            sim.step({"rst": 0})
        assert sim.value("count") == 5

    def test_nonblocking_simultaneous_swap(self):
        sim = make_sim(
            """
            module swap(input clk, input load, input [3:0] x, output reg [3:0] a);
              reg [3:0] b;
              always @(posedge clk)
                if (load) begin
                  a <= x;
                  b <= x + 4'd1;
                end else begin
                  a <= b;
                  b <= a;
                end
            endmodule
            """
        )
        sim.step({"load": 1, "x": 3})
        assert sim.value("a") == 3
        sim.step({"load": 0})
        assert sim.value("a") == 4  # got old b, not new a
        sim.step({"load": 0})
        assert sim.value("a") == 3

    def test_ff_and_comb_driver_conflict_rejected(self):
        with pytest.raises(SimulationError):
            make_sim(
                """
                module m(input clk, input d, output reg q);
                  assign q = d;
                  always @(posedge clk) q <= d;
                endmodule
                """
            )

    def test_last_write_wins_in_block(self):
        sim = make_sim(
            """
            module m(input clk, input d, output reg q);
              always @(posedge clk) begin
                q <= 1'b0;
                q <= d;
              end
            endmodule
            """
        )
        sim.step({"d": 1})
        assert sim.value("q") == 1

    def test_inputs_hold_between_steps(self):
        sim = make_sim(self.COUNTER)
        sim.step({"rst": 1})
        sim.step({"rst": 0})
        sim.step()  # rst stays 0
        assert sim.value("count") == 2


class TestExpressionEvaluator:
    """Property-style checks of the evaluator vs hand-computed values."""

    A_VALUES = (0, 1, 7, 0x80, 0xFE, 0xFF)
    B_VALUES = (0, 1, 3, 9, 0x80, 0xFF)

    @pytest.mark.parametrize("op,fn", [
        ("+", lambda a, b: a + b),
        ("-", lambda a, b: a - b),
        ("*", lambda a, b: a * b),
        ("&", lambda a, b: a & b),
        ("|", lambda a, b: a | b),
        ("^", lambda a, b: a ^ b),
        ("==", lambda a, b: int(a == b)),
        ("!=", lambda a, b: int(a != b)),
        ("<", lambda a, b: int(a < b)),
        ("<=", lambda a, b: int(a <= b)),
        (">", lambda a, b: int(a > b)),
        (">=", lambda a, b: int(a >= b)),
        ("<<", lambda a, b: a << min(b, 64)),
        (">>", lambda a, b: a >> b),
        ("&&", lambda a, b: int(bool(a) and bool(b))),
        ("||", lambda a, b: int(bool(a) or bool(b))),
    ])
    def test_binary_ops_match_python(self, op, fn):
        sim = make_sim(
            f"""
            module m(input [7:0] a, input [7:0] b, output [7:0] o);
              assign o = a {op} b;
            endmodule
            """
        )
        for a in self.A_VALUES:
            for b in self.B_VALUES:
                sim.step({"a": a, "b": b})
                assert sim.value("o") == fn(a, b) & 0xFF, (op, a, b)

    @pytest.mark.parametrize("op,fn", [
        ("~", lambda a: ~a),
        ("!", lambda a: int(a == 0)),
        ("-", lambda a: -a),
        ("&", lambda a: int(a == 0xFF)),
        ("|", lambda a: int(a != 0)),
        ("^", lambda a: bin(a).count("1") & 1),
    ])
    def test_unary_ops_match_python(self, op, fn):
        sim = make_sim(
            f"""
            module m(input [7:0] a, output [7:0] o);
              assign o = {op}a;
            endmodule
            """
        )
        for a in self.A_VALUES:
            sim.step({"a": a})
            assert sim.value("o") == fn(a) & 0xFF, (op, a)

    def test_wide_intermediate_truncates_at_the_target(self):
        # The sum is computed unmasked; only the 4-bit target truncates.
        sim = make_sim(
            """
            module m(input [3:0] a, output [3:0] narrow, output [7:0] wide);
              assign narrow = a + a + a;
              assign wide = a + a + a;
            endmodule
            """
        )
        sim.step({"a": 15})
        assert sim.value("narrow") == 45 & 0xF
        assert sim.value("wide") == 45

    def test_oversized_shift_counts_do_not_explode(self):
        sim = make_sim(
            """
            module m(input [7:0] a, input [7:0] n, output [7:0] l, output [7:0] r);
              assign l = a << n;
              assign r = a >> n;
            endmodule
            """
        )
        sim.step({"a": 0xFF, "n": 0xFF})
        assert sim.value("l") == 0
        assert sim.value("r") == 0

    def test_input_values_mask_to_port_width(self):
        sim = make_sim(
            """
            module m(input [3:0] a, output [3:0] o);
              assign o = a;
            endmodule
            """
        )
        sim.step({"a": 0x1F2})
        assert sim.value("o") == 0x2

    def test_unknown_input_is_a_key_error(self):
        sim = make_sim(LISTING_1, top="top")
        with pytest.raises(KeyError, match="unknown signal"):
            sim.step({"no_such_port": 1})

    def test_driving_a_combinational_output_is_overridden_by_settle(self):
        sim = make_sim(
            """
            module m(input a, output o);
              assign o = ~a;
            endmodule
            """
        )
        sim.step({"a": 1, "o": 1})
        assert sim.value("o") == 0  # settle recomputes ~a


class TestPreset:
    COUNTER = TestSequential.COUNTER

    def test_preset_seeds_state_and_resettles(self):
        sim = make_sim(self.COUNTER)
        sim.step({"rst": 0})
        sim.step()
        sim.preset({"count": 40}, reset=True)
        assert sim.cycle == -1
        assert sim.value("count") == 40
        sim.step({"rst": 0})
        assert sim.value("count") == 41

    def test_preset_masks_to_signal_width(self):
        sim = make_sim(self.COUNTER)
        sim.preset({"count": 0x1FF}, reset=True)
        assert sim.value("count") == 0xFF

    def test_preset_unknown_signal_is_a_key_error(self):
        sim = make_sim(self.COUNTER)
        with pytest.raises(KeyError, match="unknown signal"):
            sim.preset({"no_such": 1})


class TestErrorContext:
    """A SimulationError mid-run names the cycle and the offending
    signal/statement.  The unsupported node is built into the design
    before the simulator compiles it, behind a ternary whose condition
    first holds in cycle 1, so it raises only when evaluated."""

    def bogus(self, operand_name: str) -> ast.UnaryOp:
        # An operator the simulator does not implement, to force a
        # SimulationError from deep inside expression evaluation.
        return ast.UnaryOp(op="%%", operand=ast.Identifier(operand_name))

    def test_settle_error_names_signal_and_cycle(self):
        design = elaborate(parse(
            """
            module m(input clk, input a, output o);
              reg armed;
              always @(posedge clk) armed <= 1'b1;
              assign o = ~a;
            endmodule
            """
        ))
        # armed && !a: false before the first edge and while a is 1
        # (cycle 0), true once a drops in cycle 1.
        guard = ast.BinaryOp("&&", ast.Identifier("m.armed"),
                             ast.UnaryOp("!", ast.Identifier("m.a")))
        (assign,) = design.assigns
        design.assigns[0] = replace(assign, value=ast.Ternary(
            guard, self.bogus("m.a"), assign.value))
        sim = RtlSimulator(design)
        sim.step({"a": 1})
        with pytest.raises(SimulationError) as err:
            sim.step({"a": 0})
        message = str(err.value)
        assert "cycle 1" in message
        assert "while settling 'm.o'" in message
        assert "unsupported unary operator" in message

    def test_ff_error_names_driven_signal_and_cycle(self):
        design = elaborate(parse(TestSequential.COUNTER))
        design.ffs[0] = replace(design.ffs[0], body=ast.NonBlocking(
            target="counter.count",
            value=ast.Ternary(ast.Identifier("counter.rst"),
                              ast.Number(0, 8), self.bogus("counter.rst")),
        ))
        sim = RtlSimulator(design)
        sim.step({"rst": 1})
        with pytest.raises(SimulationError) as err:
            sim.step({"rst": 0})
        message = str(err.value)
        assert "cycle 1" in message
        assert "always block driving counter.count" in message
        assert "in assignment to 'counter.count'" in message
        assert "unsupported unary operator" in message
