"""AST node definitions for the supported Verilog-2001 subset.

The subset is what synthesizable processor RTL in the paper's Listing 1
style needs: modules with ANSI or classic port declarations, ``wire`` /
``reg`` declarations with ranges, continuous ``assign``, a single
``always @(posedge clk)`` process style with non-blocking assignments and
``if``/``else``/``begin``-``end``, module instances with named port
connections, and the usual operators and sized literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Identifier(Expr):
    name: str


@dataclass(frozen=True)
class Number(Expr):
    value: int
    width: int | None = None  # None = unsized literal


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # ~ ! - & | ^ (reduction forms included)
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # + - * & | ^ << >> == != < <= > >= && ||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    condition: Expr
    if_true: Expr
    if_false: Expr


@dataclass(frozen=True)
class BitSelect(Expr):
    base: Identifier
    index: Expr


@dataclass(frozen=True)
class PartSelect(Expr):
    base: Identifier
    msb: int
    lsb: int


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]


# ----------------------------------------------------------------------
# Statements (inside always blocks)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """Base class for procedural statements."""


@dataclass(frozen=True)
class NonBlocking(Statement):
    target: str
    value: Expr


@dataclass(frozen=True)
class If(Statement):
    condition: Expr
    then_body: "Statement"
    else_body: "Statement | None" = None


@dataclass(frozen=True)
class Block(Statement):
    statements: tuple[Statement, ...]


# ----------------------------------------------------------------------
# Module items
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PortDecl:
    """A port: direction in {'input', 'output'}, optional reg, width."""

    direction: str
    name: str
    width: int = 1
    is_reg: bool = False


@dataclass(frozen=True)
class NetDecl:
    """A ``wire`` or ``reg`` declaration."""

    kind: str  # 'wire' | 'reg'
    name: str
    width: int = 1


@dataclass(frozen=True)
class ContAssign:
    """Continuous assignment: ``assign target = expr;``"""

    target: str
    value: Expr


@dataclass(frozen=True)
class AlwaysFF:
    """``always @(posedge clock) body`` — the one supported process form."""

    clock: str
    body: Statement


@dataclass(frozen=True)
class Instance:
    """Module instantiation with named port connections."""

    module_name: str
    instance_name: str
    connections: tuple[tuple[str, Expr], ...]  # (port, expression)


@dataclass
class Module:
    name: str
    ports: list[PortDecl] = field(default_factory=list)
    nets: list[NetDecl] = field(default_factory=list)
    assigns: list[ContAssign] = field(default_factory=list)
    always_blocks: list[AlwaysFF] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)

    def port(self, name: str) -> PortDecl:
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"module {self.name} has no port {name!r}")


@dataclass
class Source:
    """A parsed source file: the list of modules, in declaration order."""

    modules: list[Module] = field(default_factory=list)

    def module(self, name: str) -> Module:
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError(f"no module named {name!r}")


def expr_identifiers(expr: Expr) -> list[str]:
    """All signal names referenced by an expression, in evaluation order.

    This is the information-flow fan-in of the expression — the IFG
    builder uses it to create ``source -> target`` edges.
    """
    names: list[str] = []
    _collect_identifiers(expr, names)
    return names


def _collect_identifiers(expr: Expr, out: list[str]) -> None:
    if isinstance(expr, Identifier):
        out.append(expr.name)
    elif isinstance(expr, UnaryOp):
        _collect_identifiers(expr.operand, out)
    elif isinstance(expr, BinaryOp):
        _collect_identifiers(expr.left, out)
        _collect_identifiers(expr.right, out)
    elif isinstance(expr, Ternary):
        _collect_identifiers(expr.condition, out)
        _collect_identifiers(expr.if_true, out)
        _collect_identifiers(expr.if_false, out)
    elif isinstance(expr, BitSelect):
        out.append(expr.base.name)
        _collect_identifiers(expr.index, out)
    elif isinstance(expr, PartSelect):
        out.append(expr.base.name)
    elif isinstance(expr, Concat):
        for part in expr.parts:
            _collect_identifiers(part, out)
    # Numbers contribute nothing.


def expr_width(expr: Expr, widths: dict[str, int]) -> int | None:
    """Inferred Verilog bit width of an expression; ``None`` when unknowable.

    The one copy of the width rules: the simulator sizes ``~``, reductions
    and concatenation parts with it, and the static analyzer's folder
    and width lint use it, so both read a design the same way.
    """
    if isinstance(expr, Identifier):
        return widths.get(expr.name)
    if isinstance(expr, Number):
        return expr.width
    if isinstance(expr, BitSelect):
        return 1
    if isinstance(expr, PartSelect):
        return expr.msb - expr.lsb + 1
    if isinstance(expr, Concat):
        total = 0
        for part in expr.parts:
            width = expr_width(part, widths)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, Ternary):
        true_width = expr_width(expr.if_true, widths)
        false_width = expr_width(expr.if_false, widths)
        if true_width is None or false_width is None:
            return None
        return max(true_width, false_width)
    if isinstance(expr, UnaryOp):
        if expr.op in ("!", "&", "|", "^"):
            return 1
        return expr_width(expr.operand, widths)  # ~ and unary -
    if isinstance(expr, BinaryOp):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if expr.op in ("<<", ">>"):
            return expr_width(expr.left, widths)
        left = expr_width(expr.left, widths)
        right = expr_width(expr.right, widths)
        if left is None or right is None:
            return None
        return max(left, right)
    return None
