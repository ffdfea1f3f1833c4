"""Bounded LTL semantics over a ``(k, l)``-lasso.

Given an unrolling of depth ``k`` whose last frame loops back to frame ``l``,
the truth of an LTL formula at frame 0 is a purely propositional function of
the signal values at frames ``0 .. k``: the path visits only those positions,
in the order ``i, i+1, ..., k, l, l+1, ...``.

Every temporal subformula is translated by folding the operator's expansion
law along the *visit order* of its frame — each reachable frame appears
exactly once, so the folds below are exact on the lasso (not
approximations).  The fold result is a plain (hash-consed) boolean
expression; gate variables are introduced by the shared Tseitin encoder,
which memoises structurally, so identical folds across queries — different
loop positions, different spec conjuncts on one incremental unrolling —
share one set of clauses:

* ``p U q`` at ``i``  =  ``q_i  ∨ (p_i ∧ [p U q] at next)`` … base ``false``
* ``p R q`` at ``i``  =  ``q_i ∧ (p_i ∨ [p R q] at next)`` … base ``true``
* ``p W q`` at ``i``  =  ``q_i  ∨ (p_i ∧ [p W q] at next)`` … base ``true``
* ``G p`` / ``F p``    =  the ``R`` / ``U`` folds with a constant operand.

Boolean connectives and ``X`` translate structurally.  The result is linear
in ``|formula| · k`` auxiliary variables.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..logic.boolexpr import BoolExpr, and_, const, iff, implies, not_, or_, var
from ..ltl.ast import (
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
from ..sat.cnf import Literal
from ..sat.tseitin import TseitinEncoder
from .unroll import frame_name

__all__ = ["LTLBoundedEncoder", "visit_order"]


def visit_order(position: int, depth: int, loop_start: int) -> List[int]:
    """Frames reachable from ``position``, each once, in path order."""
    if not 0 <= position <= depth:
        raise ValueError("position outside the unrolled frames")
    if not 0 <= loop_start <= depth:
        raise ValueError("loop_start outside the unrolled frames")
    order = list(range(position, depth + 1))
    if loop_start < position:
        order.extend(range(loop_start, position))
    return order


class LTLBoundedEncoder:
    """Encode LTL obligations over one ``(k, l)``-lasso into CNF."""

    def __init__(self, encoder: TseitinEncoder, depth: int, loop_start: int):
        if not 0 <= loop_start <= depth:
            raise ValueError("loop_start must lie within the unrolled frames")
        self.encoder = encoder
        self.depth = depth
        self.loop_start = loop_start
        self._memo: Dict[Tuple[int, int], BoolExpr] = {}

    # -- public API ---------------------------------------------------------------
    def formula_literal(self, formula: Formula, *, position: int = 0) -> Literal:
        """Literal equivalent to ``formula`` at ``position`` (not asserted).

        The Tseitin gates are full biconditionals, so the returned literal can
        be passed as a solver *assumption*: assuming it forces the formula,
        and any lasso satisfying the formula admits a model setting it true.
        """
        expression = self.encode(formula, position)
        return self.encoder.literal_for(expression)

    def encode(self, formula: Formula, position: int = 0) -> BoolExpr:
        """Propositional expression equivalent to ``formula`` at ``position``."""
        position = self._normalize(position)
        key = (id(formula), position)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        expression = self._encode(formula, position)
        self._memo[key] = expression
        return expression

    # -- helpers -------------------------------------------------------------------
    def _normalize(self, position: int) -> int:
        """Map a position beyond the last frame back into the loop."""
        if position <= self.depth:
            return position
        span = self.depth - self.loop_start + 1
        return self.loop_start + (position - self.loop_start) % span

    def _successor(self, position: int) -> int:
        return self.loop_start if position == self.depth else position + 1

    def _fold(self, formula: Formula, position: int, *, kind: str) -> BoolExpr:
        """Right-fold a temporal operator along the visit order of ``position``."""
        order = visit_order(position, self.depth, self.loop_start)
        if kind == "until":
            left, right, base, combine = formula.left, formula.right, const(False), "or_and"
        elif kind == "weak_until":
            left, right, base, combine = formula.left, formula.right, const(True), "or_and"
        elif kind == "release":
            left, right, base, combine = formula.left, formula.right, const(True), "and_or"
        elif kind == "eventually":
            left, right, base, combine = None, formula.operand, const(False), "or_and"
        elif kind == "always":
            left, right, base, combine = None, formula.operand, const(True), "and_or_globally"
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown temporal fold {kind!r}")

        accumulator = base
        for frame in reversed(order):
            if combine == "or_and":
                hold = self.encode(left, frame) if left is not None else const(True)
                accumulator = or_(self.encode(right, frame), and_(hold, accumulator))
            elif combine == "and_or":
                accumulator = and_(
                    self.encode(right, frame),
                    or_(self.encode(left, frame), accumulator),
                )
            else:  # "and_or_globally": G p
                accumulator = and_(self.encode(right, frame), accumulator)
        # No named auxiliary is introduced here: the Tseitin encoder already
        # assigns one gate variable per (hash-consed) sub-expression, so two
        # queries whose folds coincide — e.g. ``G p`` at position 0, which is
        # the same chain for every loop position of a bound — share clauses
        # instead of re-encoding.  That sharing is what keeps incremental BMC
        # cheap across the ``(k, l)`` sweep.
        return accumulator

    # -- dispatch -------------------------------------------------------------------
    def _encode(self, formula: Formula, position: int) -> BoolExpr:
        if isinstance(formula, Atom):
            return var(frame_name(formula.name, position))
        if isinstance(formula, TrueFormula):
            return const(True)
        if isinstance(formula, FalseFormula):
            return const(False)
        if isinstance(formula, Not):
            return not_(self.encode(formula.operand, position))
        if isinstance(formula, And):
            return and_(self.encode(formula.left, position), self.encode(formula.right, position))
        if isinstance(formula, Or):
            return or_(self.encode(formula.left, position), self.encode(formula.right, position))
        if isinstance(formula, Implies):
            return implies(
                self.encode(formula.left, position), self.encode(formula.right, position)
            )
        if isinstance(formula, Iff):
            return iff(self.encode(formula.left, position), self.encode(formula.right, position))
        if isinstance(formula, Next):
            return self.encode(formula.operand, self._successor(position))
        if isinstance(formula, Until):
            return self._fold(formula, position, kind="until")
        if isinstance(formula, WeakUntil):
            return self._fold(formula, position, kind="weak_until")
        if isinstance(formula, Release):
            return self._fold(formula, position, kind="release")
        if isinstance(formula, Eventually):
            return self._fold(formula, position, kind="eventually")
        if isinstance(formula, Always):
            return self._fold(formula, position, kind="always")
        raise TypeError(f"cannot encode formula node {type(formula).__name__}")
