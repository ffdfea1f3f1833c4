"""Pretty-printing of LTL formulas.

:func:`to_str` renders the library's own compact ASCII syntax, re-parsable by
:mod:`repro.ltl.parser` (round-trip property is tested).
"""

from __future__ import annotations

from .ast import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    WeakUntil,
)

__all__ = ["to_str"]

# Binding strength: higher binds tighter.
_PRECEDENCE = {
    Iff: 1,
    Implies: 2,
    Or: 3,
    And: 4,
    Until: 5,
    Release: 5,
    WeakUntil: 5,
    Not: 6,
    Next: 6,
    Eventually: 6,
    Always: 6,
    Atom: 7,
    TrueFormula: 7,
    FalseFormula: 7,
}


def _precedence(formula: Formula) -> int:
    return _PRECEDENCE.get(type(formula), 0)


def _wrap(text: str, child: Formula, parent_precedence: int, *, strict: bool = False) -> str:
    child_precedence = _precedence(child)
    if child_precedence < parent_precedence or (strict and child_precedence == parent_precedence):
        return f"({text})"
    return text


def to_str(formula: Formula) -> str:
    """Render in the library's ASCII syntax (parsable by :func:`repro.ltl.parse`)."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, TrueFormula):
        return "true"
    if isinstance(formula, FalseFormula):
        return "false"
    if isinstance(formula, Not):
        inner = to_str(formula.operand)
        return "!" + _wrap(inner, formula.operand, _precedence(formula))
    if isinstance(formula, Next):
        inner = to_str(formula.operand)
        return "X " + _wrap(inner, formula.operand, _precedence(formula))
    if isinstance(formula, Eventually):
        inner = to_str(formula.operand)
        return "F " + _wrap(inner, formula.operand, _precedence(formula))
    if isinstance(formula, Always):
        inner = to_str(formula.operand)
        return "G " + _wrap(inner, formula.operand, _precedence(formula))
    if isinstance(formula, And):
        return _binary(formula, "&")
    if isinstance(formula, Or):
        return _binary(formula, "|")
    if isinstance(formula, Implies):
        return _binary(formula, "->", right_associative=True)
    if isinstance(formula, Iff):
        return _binary(formula, "<->", right_associative=True)
    if isinstance(formula, Until):
        return _binary(formula, "U", right_associative=True)
    if isinstance(formula, Release):
        return _binary(formula, "R", right_associative=True)
    if isinstance(formula, WeakUntil):
        return _binary(formula, "W", right_associative=True)
    raise TypeError(f"cannot print formula of type {type(formula).__name__}")


def _binary(formula: Formula, symbol: str, right_associative: bool = False) -> str:
    precedence = _precedence(formula)
    left_text = to_str(formula.left)
    right_text = to_str(formula.right)
    left = _wrap(left_text, formula.left, precedence, strict=right_associative)
    right = _wrap(right_text, formula.right, precedence, strict=not right_associative)
    return f"{left} {symbol} {right}"
