"""Constant folding and width inference over the Verilog expression AST.

The static engines share one evaluator:

* :func:`~repro.rtl.ast.expr_width` — the Verilog width rules, which
  live in the RTL layer so the simulator uses the same copy;
* :func:`refine` — partial evaluation of an expression under an
  environment of known-constant signals, returning the folded constant
  (or ``None``) plus the identifiers that still *contribute* to the
  value.  Identifiers inside branches a constant condition rules out —
  the untaken arm of a ternary, the short-circuited side of ``&&`` /
  ``||`` — do not contribute; this is what prunes IFG edges in the
  taint classifier's refined graph.

Evaluation semantics mirror :mod:`repro.rtl.sim` (``~`` masks to the
operand width, unary ``-`` to 64 bits, reductions over the operand
width, comparisons unsigned), so a folded constant equals what the
simulator would compute.
"""

from __future__ import annotations

from repro.rtl import ast

_MASK64 = (1 << 64) - 1


def _eval_unary(op: str, value: int, width: int | None) -> int:
    width = width or 64
    if op == "!":
        return 0 if value else 1
    if op == "~":
        return ~value & ((1 << width) - 1)
    if op == "-":
        return -value & _MASK64
    if op == "&":
        return 1 if value == (1 << width) - 1 else 0
    if op == "|":
        return 1 if value else 0
    if op == "^":
        return bin(value).count("1") & 1
    raise ValueError(f"unknown unary operator {op!r}")


def _eval_binary(op: str, left: int, right: int) -> int:
    if op == "+":
        return left + right
    if op == "-":
        return (left - right) & _MASK64
    if op == "*":
        return left * right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << min(right, 64)
    if op == ">>":
        return left >> min(right, 64)
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    if op == "&&":
        return 1 if left and right else 0
    if op == "||":
        return 1 if left or right else 0
    raise ValueError(f"unknown binary operator {op!r}")


def refine(
    expr: ast.Expr,
    env: dict[str, int],
    widths: dict[str, int],
) -> tuple[int | None, tuple[str, ...]]:
    """Partially evaluate ``expr`` given constant signals ``env``.

    Returns ``(value, contributors)``: ``value`` is the folded constant
    or ``None``, ``contributors`` the identifiers the residual value
    still depends on (in evaluation order, duplicates possible — dedupe
    at the call site).  A folded constant has no contributors.
    """
    if isinstance(expr, ast.Number):
        return expr.value, ()
    if isinstance(expr, ast.Identifier):
        if expr.name in env:
            return env[expr.name], ()
        return None, (expr.name,)
    if isinstance(expr, ast.UnaryOp):
        value, ids = refine(expr.operand, env, widths)
        if value is None:
            return None, ids
        return _eval_unary(expr.op, value,
                           ast.expr_width(expr.operand, widths)), ()
    if isinstance(expr, ast.BinaryOp):
        left, left_ids = refine(expr.left, env, widths)
        right, right_ids = refine(expr.right, env, widths)
        if expr.op == "&&":
            if left == 0 or right == 0:
                return 0, ()
            if left is not None and right is not None:
                return 1, ()
            if left is not None:  # non-zero constant: result = !!right
                return None, right_ids
            if right is not None:
                return None, left_ids
            return None, left_ids + right_ids
        if expr.op == "||":
            if (left is not None and left != 0) \
                    or (right is not None and right != 0):
                return 1, ()
            if left == 0 and right == 0:
                return 0, ()
            if left == 0:
                return None, right_ids
            if right == 0:
                return None, left_ids
            return None, left_ids + right_ids
        if left is not None and right is not None:
            return _eval_binary(expr.op, left, right), ()
        return None, left_ids + right_ids
    if isinstance(expr, ast.Ternary):
        condition, condition_ids = refine(expr.condition, env, widths)
        if condition is not None:
            arm = expr.if_true if condition else expr.if_false
            return refine(arm, env, widths)
        _, true_ids = refine(expr.if_true, env, widths)
        _, false_ids = refine(expr.if_false, env, widths)
        return None, condition_ids + true_ids + false_ids
    if isinstance(expr, ast.BitSelect):
        base, base_ids = refine(expr.base, env, widths)
        index, index_ids = refine(expr.index, env, widths)
        if base is not None and index is not None:
            return (base >> index) & 1, ()
        return None, base_ids + index_ids
    if isinstance(expr, ast.PartSelect):
        base, base_ids = refine(expr.base, env, widths)
        if base is not None:
            return (base >> expr.lsb) & ((1 << (expr.msb - expr.lsb + 1)) - 1), ()
        return None, base_ids
    if isinstance(expr, ast.Concat):
        values = []
        ids: tuple[str, ...] = ()
        for part in expr.parts:
            value, part_ids = refine(part, env, widths)
            values.append((value, ast.expr_width(part, widths)))
            ids += part_ids
        if all(v is not None and w is not None for v, w in values):
            total = 0
            for value, width in values:
                total = (total << width) | (value & ((1 << width) - 1))
            return total, ()
        return None, ids
    # Unknown node: contribute its syntactic identifiers conservatively.
    return None, tuple(ast.expr_identifiers(expr))
