"""Differential suite: the compiled simulator against the constant folder.

Random expression trees over sized identifiers and literals drive the
one output of a generated design, through an assign or a flip-flop, and
are simulated; :func:`repro.analysis.fold.refine` folds the same tree
under the same inputs.  Both evaluate operators from
the one table in :mod:`repro.rtl.ast` and size operands with
:func:`repro.rtl.ast.expr_width`, so the simulated value must equal the
folded constant truncated to the target width.  This guards the folder
``repro analyze`` relies on as much as the simulator.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.fold import refine
from repro.rtl import ast
from repro.rtl.ir import (
    ASSIGN_COMB, ElabAssign, ElabFF, ElaboratedDesign, Signal, SignalKind,
)
from repro.rtl.sim import RtlSimulator
from repro.utils.bitvec import mask

#: Input signals of the generated designs, by qualified name.
WIDTHS = {"d.a": 1, "d.b": 3, "d.c": 8, "d.e": 13, "d.f": 32, "d.g": 64}
TARGET_WIDTHS = (1, 4, 8, 16, 64)

identifiers = st.sampled_from(sorted(WIDTHS)).map(ast.Identifier)
sized_literals = st.builds(
    ast.Number,
    st.integers(0, (1 << 70) - 1),  # may overflow its width: truncates
    st.sampled_from((1, 2, 5, 8, 16, 32, 64)),
)
# Small values, shift counts around the 64-bit clamp, anything.
unsized_literals = st.one_of(
    st.integers(0, 8), st.integers(60, 70), st.integers(0, 300)
).map(ast.Number)
part_selects = st.builds(
    lambda name, lsb, span: ast.PartSelect(
        ast.Identifier(name),
        min(lsb % WIDTHS[name] + span, WIDTHS[name] - 1),
        lsb % WIDTHS[name]),
    st.sampled_from(sorted(WIDTHS)),
    st.integers(0, 63),
    st.integers(0, 7),
)


def _extend(children):
    return st.one_of(
        st.builds(ast.UnaryOp, st.sampled_from(sorted(ast.UNARY_OPERATORS)),
                  children),
        st.builds(ast.BinaryOp, st.sampled_from(sorted(ast.BINARY_OPERATORS)),
                  children, children),
        st.builds(ast.Ternary, children, children, children),
        st.builds(ast.BitSelect, identifiers, children),
        st.lists(children, min_size=1, max_size=3).map(
            lambda parts: ast.Concat(tuple(parts))),
    )


expressions = st.recursive(
    st.one_of(identifiers, sized_literals, unsized_literals, part_selects),
    _extend,
    max_leaves=10,
)
environments = st.fixed_dictionaries(
    {name: st.integers(0, mask(width)) for name, width in WIDTHS.items()}
)


def simulate(expr: ast.Expr, env: dict[str, int], target_width: int,
             registered: bool) -> int:
    """``expr`` driving ``d.o`` through an assign or, ``registered``, a
    flip-flop clocked once."""
    design = ElaboratedDesign(top="d")
    for name, width in WIDTHS.items():
        design.add_signal(Signal(name, width, SignalKind.INPUT))
    design.add_signal(Signal("d.clk", 1, SignalKind.INPUT))
    design.add_signal(Signal("d.o", target_width, SignalKind.OUTPUT))
    if registered:
        design.ffs.append(ElabFF("d.clk", ast.NonBlocking("d.o", expr)))
    else:
        design.assigns.append(ElabAssign("d.o", expr, ASSIGN_COMB))
    sim = RtlSimulator(design)
    sim.preset(env)
    if registered:
        sim.step()
    return sim.value("d.o")


@given(expressions, environments, st.sampled_from(TARGET_WIDTHS),
       st.booleans())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_compiled_simulator_matches_the_folder(expr, env, target_width,
                                               registered):
    folded, contributors = refine(expr, env, WIDTHS)
    assume(folded is not None)
    assert contributors == ()
    assert simulate(expr, env, target_width, registered) == \
        folded & mask(target_width)
