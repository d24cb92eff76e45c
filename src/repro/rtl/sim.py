"""Cycle-driven two-state simulator for elaborated designs.

The simulator does not walk the design's AST.  :func:`compile_design`
translates an :class:`ElaboratedDesign` into Python source once and
compiles it with one :func:`compile` call, cached per design object:

* ``settle(v)`` — one statement per combinational driver, in the
  topological order :func:`_schedule` computes (combinational loops are
  a :class:`SimulationError`); a value settled earlier in the pass is
  read back from a local;
* ``edge(v)`` — every flip-flop body as nested ``if``/``else`` that
  evaluates into locals against the settled pre-edge state, then one
  masked commit per target (non-blocking semantics: all updates are
  simultaneous, the last write wins);
* ``clock(v)`` — one cycle: ``settle``, ``edge``, ``settle``;
* ``bind_recorder(...)`` — the per-cycle trace recorder, one unrolled
  compare-and-append per signal in declaration order.

``v`` is the simulator's ``values`` dict.  Operators render from the
templates in :mod:`repro.rtl.ast`, the table the static folder compiles
too, and every width resolves at generation time through
:func:`repro.rtl.ast.expr_width` (64 bits when unsized).

Evaluation model per clock cycle:

1. apply the cycle's stimulus to top-level inputs;
2. settle combinational logic;
3. evaluate every flip-flop body against the settled pre-edge state;
4. commit the register updates and settle combinational logic again;
5. when recording, append a change event for every signal whose
   end-of-cycle value differs from the previous cycle's.

A construct the generator cannot translate (an unknown operator,
expression or statement node) becomes a call that raises
:class:`SimulationError` when, and only when, it is evaluated, naming
the cycle and the signal being settled or the always block being run.

Two-state semantics: ``x``/``z`` literals were already folded to 0 by the
lexer, uninitialised signals start at 0, division by zero yields 0.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.rtl import ast
from repro.rtl.ir import ElabAssign, ElaboratedDesign
from repro.rtl.trace import SignalTrace
from repro.utils.bitvec import mask


class SimulationError(ValueError):
    """Combinational loop, multiple drivers, or unsupported construct."""


class RtlSimulator:
    """Simulates one :class:`ElaboratedDesign` through its compiled program.

    Every simulator of one design object shares the program
    :func:`compile_design` generated for it, so a design must not be
    mutated after a simulator has been built for it: the change would
    not reach the generated code.
    """

    def __init__(self, design: ElaboratedDesign):
        self.design = design
        self._program = compile_design(design)
        self._masks = self._program.masks
        self.values: dict[str, int] = dict.fromkeys(self._program.names, 0)
        self.cycle = -1
        self._call(self._program.settle)

    # -- public API -------------------------------------------------------

    def step(self, inputs: dict[str, int] | None = None) -> None:
        """Advance one clock cycle with the given top-input values.

        Input names may be unqualified (``"i"``) or fully qualified
        (``"top.i"``).
        """
        self.cycle += 1
        values = self.values
        if inputs:
            for name, value in inputs.items():
                qualified = self._qualify_input(name)
                values[qualified] = value & self._masks[qualified]
        self._call(self._program.clock)

    def run(
        self,
        cycles: int,
        stimulus: list[dict[str, int]] | None = None,
        trace: SignalTrace | None = None,
    ) -> SignalTrace:
        """Run ``cycles`` cycles; returns the recorded trace.

        ``stimulus[c]`` supplies the inputs for cycle ``c`` (missing
        entries hold their previous values).  A supplied ``trace`` must
        list the design's signals in declaration order.
        """
        if trace is None:
            trace = self.new_trace()
        record = self.recorder(trace)
        for cycle in range(cycles):
            inputs = stimulus[cycle] if stimulus and cycle < len(stimulus) else None
            self.step(inputs)
            record(self.cycle)
        if cycles > 0:
            trace.close(self.cycle)
        return trace

    def new_trace(self) -> SignalTrace:
        """An empty trace of every signal, declaration order, starting
        from the current values."""
        program = self._program
        values = self.values
        return SignalTrace(program.names, [values[n] for n in program.names],
                           _index_of=program.index_of)

    def recorder(self, trace: SignalTrace) -> Callable[[int], None]:
        """The generated recorder bound to ``trace``: ``record(cycle)``
        appends a change event for every signal that differs from the
        previous call (from the current values, on the first call).

        It appends through :meth:`SignalTrace.appenders`, so the caller
        closes the trace when recording ends.
        """
        names = self._program.names
        if tuple(trace.signal_names) != names:
            raise ValueError("trace signals differ from the design's "
                             "declaration order")
        previous = [self.values[n] for n in names]
        return self._program.bind_recorder(self.values, previous,
                                           *trace.appenders())

    def value(self, name: str) -> int:
        """Current value of a signal (qualified or top-level name)."""
        return self.values[self._qualify_input(name)]

    def preset(self, values: dict[str, int], *, reset: bool = False) -> None:
        """Overwrite signal state (register initialisation) and re-settle.

        With ``reset`` the design first returns to the power-on all-zero
        state, so one simulator instance can run many programs; the
        ``values`` then seed the named registers, exactly as an RTL
        testbench would force them before releasing reset.
        """
        if reset:
            self.values.update(dict.fromkeys(self.values, 0))
            self.cycle = -1
        for name, value in values.items():
            qualified = self._qualify_input(name)
            self.values[qualified] = value & self._masks[qualified]
        self._call(self._program.settle)

    # -- internals ----------------------------------------------------------

    def _qualify_input(self, name: str) -> str:
        if name in self.values:
            return name
        qualified = f"{self.design.top}.{name}"
        if qualified in self.values:
            return qualified
        raise KeyError(f"unknown signal {name!r}")

    def _call(self, function: Callable[[dict[str, int]], None]) -> None:
        """Run a generated function over ``values``, naming the cycle in
        any error it raises."""
        try:
            function(self.values)
        except SimulationError as error:
            raise SimulationError(f"cycle {self.cycle}: {error}") from error


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledDesign:
    """The generated program of one design (see the module docstring).

    ``source`` is a pure function of the design: signals go in
    declaration order and every set of names is sorted, so it is
    byte-identical across processes.
    """

    source: str
    settle: Callable[[dict[str, int]], None]
    edge: Callable[[dict[str, int]], None]
    clock: Callable[[dict[str, int]], None]  # settle, edge, settle
    bind_recorder: Callable[..., Callable[[int], None]]
    names: tuple[str, ...]  # declaration order: the trace slots
    index_of: dict[str, int]
    masks: dict[str, int]


_COMPILED: dict[int, CompiledDesign] = {}


def compile_design(design: ElaboratedDesign) -> CompiledDesign:
    """The compiled program of ``design``, generated on first use.

    Cached for the design object's lifetime, so the simulators of a
    fresh PUT built over a shared design pay no code generation.
    """
    key = id(design)
    program = _COMPILED.get(key)
    if program is None:
        program = _compile(design)
        _COMPILED[key] = program
        weakref.finalize(design, _COMPILED.pop, key, None)
    return program


def _compile(design: ElaboratedDesign) -> CompiledDesign:
    source = _Generator(design).source()
    namespace = dict(ast.OPERATOR_HELPERS, _fail=_fail)
    try:
        code = compile(source, f"<rtl {design.top}>", "exec")
    except (SyntaxError, RecursionError) as error:
        raise SimulationError(
            f"design {design.top!r} is nested too deeply to compile: {error}"
        ) from None
    exec(code, namespace)
    names = tuple(design.signals)
    return CompiledDesign(
        source=source,
        settle=namespace["settle"],
        edge=namespace["edge"],
        clock=namespace["clock"],
        bind_recorder=namespace["bind_recorder"],
        names=names,
        index_of={name: i for i, name in enumerate(names)},
        masks={name: mask(s.width) for name, s in design.signals.items()},
    )


def _fail(message: str, *operands: int) -> int:
    """What an untranslatable construct compiles to; ``operands`` were
    evaluated first, as an interpreter would before rejecting it."""
    raise SimulationError(message)


#: Operators rendered as the plain Python infix operator: a chain of
#: one of them renders flat, without a parenthesis per link, so long
#: chains stay within the parser's nesting limit.
_INFIX = frozenset(op for op, template in ast.BINARY_OPERATORS.items()
                   if template == f"({{a}} {op} {{b}})")

#: Operators whose result is 0 or 1.
_BOOLEAN = frozenset(("==", "!=", "<", "<=", ">", ">=", "&&", "||"))


class _Generator:
    """Renders one design as the source of ``settle``, ``edge``,
    ``clock`` and ``bind_recorder``."""

    def __init__(self, design: ElaboratedDesign):
        self.design = design
        self.order = _schedule(design)
        self.widths = {name: s.width for name, s in design.signals.items()}
        self.slot = {name: i for i, name in enumerate(design.signals)}
        #: Signals held in a local of the function being generated.
        self.local: dict[str, str] = {}
        #: Prefix of the error a failing construct raises.
        self.context = ""

    def source(self) -> str:
        lines = ["def settle(v):", *(self._settle() or ["    pass"]),
                 "", "", "def edge(v):", *(self._edge() or ["    pass"]),
                 "", "", "def clock(v):", "    settle(v)", "    edge(v)",
                 "    settle(v)", "", "", *self._recorder()]
        return "\n".join(lines) + "\n"

    # -- functions ------------------------------------------------------

    def _settle(self) -> list[str]:
        reads = {name for assign in self.order
                 for name in ast.expr_identifiers(assign.value)}
        self.local = {}
        lines = []
        for assign in self.order:
            target = assign.target
            self.context = f"while settling {target!r}: "
            code = self._masked(assign.value, self.widths[target])
            if target in reads:  # read later in this pass: keep a local
                local = self.local[target] = f"s{self.slot[target]}"
                lines.append(f"    {local} = v[{target!r}] = {code}")
            else:
                lines.append(f"    v[{target!r}] = {code}")
        return lines

    def _edge(self) -> list[str]:
        self.local = {}
        lines = []
        targets: set[str] = set()
        assigned: set[str] = set()
        for ff in self.design.ffs:
            _collect_ff_targets(ff.body, targets)
            assigned |= _definitely_assigned(ff.body)
        # A target some path leaves unwritten keeps its value.
        for target in sorted(targets - assigned):
            lines.append(f"    n{self.slot[target]} = v[{target!r}]")
        for ff in self.design.ffs:
            driven: set[str] = set()
            _collect_ff_targets(ff.body, driven)
            where = ", ".join(sorted(driven)) or "<empty body>"
            self.context = f"in always block driving {where}: "
            lines += self._statement(ff.body, 1)
        for target in sorted(targets):
            lines.append(f"    v[{target!r}] = n{self.slot[target]} & "
                         f"{mask(self.widths[target]):#x}")
        return lines

    def _recorder(self) -> list[str]:
        lines = ["def bind_recorder(v, p, ac, asg, ao, an):",
                 "    def record(c):"]
        for i, name in enumerate(self.design.signals):
            lines += [f"        x = v[{name!r}]",
                      f"        if x != p[{i}]:",
                      f"            ac(c); asg({i}); ao(p[{i}]); an(x); p[{i}] = x"]
        if not self.design.signals:
            lines.append("        pass")
        lines.append("    return record")
        return lines

    # -- statements -----------------------------------------------------

    def _statement(self, statement: ast.Statement, depth: int) -> list[str]:
        pad = "    " * depth
        if isinstance(statement, ast.NonBlocking):
            outer = self.context
            self.context = f"{outer}in assignment to {statement.target!r}: "
            code = self._expr(statement.value)
            self.context = outer
            return [f"{pad}n{self.slot[statement.target]} = {code}"]
        if isinstance(statement, ast.If):
            lines = [f"{pad}if {self._expr(statement.condition)}:"]
            branch = statement
            while True:
                lines += (self._statement(branch.then_body, depth + 1)
                          or [f"{pad}    pass"])
                branch = branch.else_body
                if not isinstance(branch, ast.If):
                    break
                # else-if chains stay flat (Python caps indentation).
                lines.append(f"{pad}elif {self._expr(branch.condition)}:")
            if branch is not None:
                body = self._statement(branch, depth + 1)
                if body:
                    lines += [f"{pad}else:", *body]
            return lines
        if isinstance(statement, ast.Block):
            return [line for child in statement.statements
                    for line in self._statement(child, depth)]
        message = f"unsupported statement {type(statement).__name__}"
        return [f"{pad}{self._fail(message)}"]

    # -- expressions ----------------------------------------------------

    def _masked(self, expr: ast.Expr, width: int) -> str:
        """``expr`` truncated to ``width`` bits, unless it always fits."""
        code = self._expr(expr)
        bits = self._bits(expr)
        if bits is not None and bits <= width:
            return code
        return f"{code} & {mask(width):#x}"

    def _expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Identifier):
            return self.local.get(expr.name) or f"v[{expr.name!r}]"
        if isinstance(expr, ast.Number):
            if expr.width is None:
                return str(expr.value)
            return str(expr.value & mask(expr.width))
        if isinstance(expr, ast.UnaryOp):
            operand = self._expr(expr.operand)
            template = ast.UNARY_OPERATORS.get(expr.op)
            if template is None:
                return self._fail(f"unsupported unary operator {expr.op!r}",
                                  operand)
            return template.format(
                a=operand, mask=f"{mask(self._width(expr.operand)):#x}")
        if isinstance(expr, ast.BinaryOp):
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            template = ast.BINARY_OPERATORS.get(expr.op)
            if template is None:
                return self._fail(f"unsupported binary operator {expr.op!r}",
                                  left, right)
            if expr.op in _INFIX and isinstance(expr.left, ast.BinaryOp) \
                    and expr.left.op == expr.op:
                left = left[1:-1]  # Python's left associativity rebuilds it
            return template.format(a=left, b=right)
        if isinstance(expr, ast.Ternary):
            condition = self._expr(expr.condition)
            if_false = self._expr(expr.if_false)
            if isinstance(expr.if_false, ast.Ternary):
                if_false = if_false[1:-1]  # x if c else y if d else z
            return f"({self._expr(expr.if_true)} if {condition} else {if_false})"
        if isinstance(expr, ast.BitSelect):
            return f"(({self._expr(expr.base)} >> {self._expr(expr.index)}) & 1)"
        if isinstance(expr, ast.PartSelect):
            base = self._expr(expr.base)
            if expr.msb < expr.lsb:
                return self._fail(
                    f"descending part-select [{expr.msb}:{expr.lsb}]", base)
            return (f"(({base} >> {expr.lsb}) & "
                    f"{mask(expr.msb - expr.lsb + 1):#x})")
        if isinstance(expr, ast.Concat):
            widths = [self._width(part) for part in expr.parts]
            shift = sum(widths)
            parts = []
            for part, width in zip(expr.parts, widths):
                shift -= width
                code = self._masked(part, width)
                parts.append(f"(({code}) << {shift})" if shift else f"({code})")
            return f"({' | '.join(parts)})" if parts else "0"
        return self._fail(f"unsupported expression {type(expr).__name__}")

    def _fail(self, message: str, *operands: str) -> str:
        return f"_fail({', '.join([repr(self.context + message), *operands])})"

    def _width(self, expr: ast.Expr) -> int:
        """Verilog width of ``expr`` (64 when unsized)."""
        width = ast.expr_width(expr, self.widths)
        return 64 if width is None else max(width, 0)

    def _bits(self, expr: ast.Expr) -> int | None:
        """An upper bound on the bit length of ``expr``'s value, or
        ``None`` when the generator does not know one."""
        if isinstance(expr, ast.Identifier):
            return self.widths.get(expr.name)  # stored values are masked
        if isinstance(expr, ast.Number):
            value = expr.value if expr.width is None \
                else expr.value & mask(expr.width)
            return value.bit_length()
        if isinstance(expr, ast.BitSelect):
            return 1
        if isinstance(expr, ast.PartSelect):
            return max(expr.msb - expr.lsb + 1, 0)
        if isinstance(expr, ast.UnaryOp) and expr.op in ("!", "&", "|", "^"):
            return 1
        if isinstance(expr, ast.BinaryOp) and expr.op in _BOOLEAN:
            return 1
        if isinstance(expr, ast.Ternary):
            true_bits = self._bits(expr.if_true)
            false_bits = self._bits(expr.if_false)
            if true_bits is None or false_bits is None:
                return None
            return max(true_bits, false_bits)
        return None


def _schedule(design: ElaboratedDesign) -> list[ElabAssign]:
    """Topological order of combinational drivers (Kahn's algorithm)."""
    drivers: dict[str, ElabAssign] = {}
    for assign in design.assigns:
        if assign.target in drivers:
            raise SimulationError(f"multiple drivers for {assign.target!r}")
        drivers[assign.target] = assign

    ff_targets = design.ff_targets()
    for target in drivers:
        if target in ff_targets:
            raise SimulationError(
                f"{target!r} driven both combinationally and by a flip-flop"
            )

    # Dependency edges among combinational targets only.
    dependents: dict[str, list[str]] = {target: [] for target in drivers}
    in_degree = {target: 0 for target in drivers}
    for target, assign in drivers.items():
        # First-occurrence dedupe, not set(): the topological order this
        # feeds must be identical across processes (hash-salt-free).
        for name in dict.fromkeys(ast.expr_identifiers(assign.value)):
            if name in drivers:
                dependents[name].append(target)
                in_degree[target] += 1

    ready = deque(sorted(t for t, deg in in_degree.items() if deg == 0))
    order: list[ElabAssign] = []
    while ready:
        target = ready.popleft()
        order.append(drivers[target])
        for dependent in dependents[target]:
            in_degree[dependent] -= 1
            if in_degree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(drivers):
        cyclic = sorted(t for t, deg in in_degree.items() if deg > 0)
        raise SimulationError(f"combinational loop through {cyclic}")
    return order


def _collect_ff_targets(statement: ast.Statement, out: set[str]) -> None:
    """Targets of a flip-flop body (names a failing always block)."""
    if isinstance(statement, ast.NonBlocking):
        out.add(statement.target)
    elif isinstance(statement, ast.If):
        _collect_ff_targets(statement.then_body, out)
        if statement.else_body is not None:
            _collect_ff_targets(statement.else_body, out)
    elif isinstance(statement, ast.Block):
        for child in statement.statements:
            _collect_ff_targets(child, out)


def _definitely_assigned(statement: ast.Statement) -> set[str]:
    """Targets a flip-flop body writes on every path."""
    if isinstance(statement, ast.NonBlocking):
        return {statement.target}
    if isinstance(statement, ast.If):
        if statement.else_body is None:
            return set()
        return (_definitely_assigned(statement.then_body)
                & _definitely_assigned(statement.else_body))
    if isinstance(statement, ast.Block):
        assigned: set[str] = set()
        for child in statement.statements:
            assigned |= _definitely_assigned(child)
        return assigned
    return set()

