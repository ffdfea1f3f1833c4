"""Tseitin transformation of boolean circuits to CNF.

The bounded model checker represents one unrolled time-frame of a netlist as
a set of :class:`~repro.logic.boolexpr.BoolExpr` constraints.  The Tseitin
transformation introduces one fresh propositional variable per sub-expression
and emits clauses that force that variable to equal the sub-expression, so
the resulting CNF is equisatisfiable with the circuit and only linearly
larger.

Two entry points are provided:

* :meth:`TseitinEncoder.literal_for` — returns the literal representing the
  root of the expression (the caller decides what to do with it, e.g. tie
  several roots together),
* :func:`encode_constraint` — additionally asserts the root to a fixed value
  (the common case: "this expression must hold").
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..logic.boolexpr import (
    AndExpr,
    BoolExpr,
    Const,
    NotExpr,
    OrExpr,
    Var,
    XorExpr,
)
from .cnf import CNF, CNFError, Literal

__all__ = ["TseitinEncoder", "encode_constraint"]


class TseitinEncoder:
    """Stateful encoder that shares sub-expression variables across calls.

    Structural sharing matters for BMC: the same next-state expression is
    instantiated at every unrolling depth, and within one depth many gates
    feed several fan-outs.  The encoder memoises on the (immutable, hashable)
    expression node itself plus the variable renaming in effect, so equal
    sub-expressions map to one gate variable.
    """

    def __init__(self, cnf: Optional[CNF] = None, *, prefix: str = "_t"):
        self.cnf = cnf if cnf is not None else CNF()
        self._prefix = prefix
        # Keyed structurally (BoolExpr nodes are frozen/hashable): identical
        # sub-expressions share one gate variable even across separate calls.
        self._cache: Dict[Tuple[BoolExpr, Tuple[Tuple[str, str], ...]], Literal] = {}

    # -- public API -----------------------------------------------------------
    def literal_for(
        self, expr: BoolExpr, rename: Optional[Mapping[str, str]] = None
    ) -> Literal:
        """Return a literal equivalent to ``expr`` under the variable renaming."""
        renaming = tuple(sorted((rename or {}).items()))
        return self._encode(expr, dict(renaming), renaming)

    def assert_expr(
        self, expr: BoolExpr, value: bool = True, rename: Optional[Mapping[str, str]] = None
    ) -> Literal:
        """Constrain ``expr`` to ``value`` and return its literal."""
        literal = self.literal_for(expr, rename)
        self.cnf.add_unit(literal if value else -literal)
        return literal

    def assert_equal(
        self,
        left: BoolExpr,
        right: BoolExpr,
        rename: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Constrain two expressions to have the same value."""
        a = self.literal_for(left, rename)
        b = self.literal_for(right, rename)
        self.cnf.add_clause(-a, b)
        self.cnf.add_clause(a, -b)

    def variable_literal(self, name: str) -> Literal:
        """Literal of a named input/state variable (no gate clauses)."""
        return self.cnf.pool.literal(name)

    # -- encoding -------------------------------------------------------------
    def _encode(
        self,
        expr: BoolExpr,
        rename: Dict[str, str],
        rename_key: Tuple[Tuple[str, str], ...],
    ) -> Literal:
        cache_key = (expr, rename_key)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        literal = self._encode_uncached(expr, rename, rename_key)
        self._cache[cache_key] = literal
        return literal

    def _encode_uncached(
        self,
        expr: BoolExpr,
        rename: Dict[str, str],
        rename_key: Tuple[Tuple[str, str], ...],
    ) -> Literal:
        pool = self.cnf.pool
        if isinstance(expr, Var):
            name = rename.get(expr.name, expr.name)
            return pool.literal(name)
        if isinstance(expr, Const):
            output = Literal(pool.fresh(self._prefix))
            self.cnf.add_unit(output if expr.value else -output)
            return output
        if isinstance(expr, NotExpr):
            return -self._encode(expr.operand, rename, rename_key)
        if isinstance(expr, AndExpr):
            operands = [self._encode(op, rename, rename_key) for op in expr.operands]
            return self._gate_and(operands)
        if isinstance(expr, OrExpr):
            operands = [self._encode(op, rename, rename_key) for op in expr.operands]
            return -self._gate_and([-lit for lit in operands])
        if isinstance(expr, XorExpr):
            operands = [self._encode(op, rename, rename_key) for op in expr.operands]
            return self._gate_xor(operands)
        raise CNFError(f"cannot Tseitin-encode expression node {type(expr).__name__}")

    def _gate_and(self, operands: list) -> Literal:
        if not operands:
            output = Literal(self.cnf.pool.fresh(self._prefix))
            self.cnf.add_unit(output)
            return output
        if len(operands) == 1:
            return operands[0]
        output = Literal(self.cnf.pool.fresh(self._prefix))
        # output -> each operand
        for operand in operands:
            self.cnf.add_clause(-output, operand)
        # all operands -> output
        self.cnf.add_clause(output, *[-operand for operand in operands])
        return output

    def _gate_xor(self, operands: list) -> Literal:
        if not operands:
            output = Literal(self.cnf.pool.fresh(self._prefix))
            self.cnf.add_unit(-output)
            return output
        result = operands[0]
        for operand in operands[1:]:
            result = self._gate_xor2(result, operand)
        return result

    def _gate_xor2(self, a: Literal, b: Literal) -> Literal:
        output = Literal(self.cnf.pool.fresh(self._prefix))
        self.cnf.add_clause(-output, a, b)
        self.cnf.add_clause(-output, -a, -b)
        self.cnf.add_clause(output, -a, b)
        self.cnf.add_clause(output, a, -b)
        return output


def encode_constraint(
    expr: BoolExpr,
    cnf: Optional[CNF] = None,
    *,
    value: bool = True,
    rename: Optional[Mapping[str, str]] = None,
) -> CNF:
    """Encode ``expr`` and assert it to ``value``; return the CNF."""
    encoder = TseitinEncoder(cnf)
    encoder.assert_expr(expr, value, rename)
    return encoder.cnf
