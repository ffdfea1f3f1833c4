"""Linear bounded LTL encoding over loop-selected lassos.

For bound ``k`` the unrolling has frames ``0 .. k``, and the successor of
frame ``k`` is one of the frames ``0 .. k``.  The solver chooses it: each
candidate loop start ``l`` has a *selector* literal ``sel_l`` that guards the
loop closure (:meth:`repro.bmc.unroll.UnrolledModule.guarded_loop_constraint`),
and one query per bound asks for at least one selector to be true.  This is
the linear encoding of Biere, Heljanko, Junttila, Latvala and Schuppan
("Linear encodings of bounded LTL model checking", LMCS 2006), in a
one-sided form.

The encoder works on the negation normal form (:func:`repro.ltl.rewrite.nnf`,
operators ``&``, ``|``, ``X``, ``U``, ``R`` over literals).  Each literal
``[ψ]_i`` only *implies* that ``ψ`` holds at frame ``i`` of the lasso
closing at ``l``, for every selected ``l``; clauses for ``i < k`` unless
stated:

* atom / negated atom: the frame literal ``p@i`` / ``¬p@i``;
* ``true`` / ``false``: one constant literal (and its negation);
* ``ψ1 & ψ2``: ``[ψ]_i → [ψ1]_i`` and ``[ψ]_i → [ψ2]_i`` (all ``i``);
* ``ψ1 | ψ2``: ``[ψ]_i → [ψ1]_i ∨ [ψ2]_i`` (all ``i``);
* ``X ψ1``: the literal ``[ψ1]_{i+1}`` itself; at ``k``, per ``l``:
  ``[ψ]_k ∧ sel_l → [ψ1]_l``;
* ``ψ1 R ψ2``: ``[ψ]_i → [ψ2]_i`` (all ``i``) and
  ``[ψ]_i → [ψ1]_i ∨ [ψ]_{i+1}``; at ``k``, per ``l``:
  ``[ψ]_k ∧ sel_l → [ψ1]_k ∨ [ψ]_l`` — going round the loop forever is
  allowed, as ``R`` is a greatest fixpoint;
* ``ψ1 U ψ2``: ``[ψ]_i → [ψ2]_i ∨ [ψ1]_i`` (all ``i``) and
  ``[ψ]_i → [ψ2]_i ∨ [ψ]_{i+1}``; at ``k``, per ``l``:
  ``[ψ]_k ∧ sel_l → [ψ2]_k ∨ ⟨ψ⟩_l``.  The eventuality literal ``⟨ψ⟩_i`` is
  a second pass that must meet ``ψ2`` by frame ``k``: ``⟨ψ⟩_i → [ψ2]_i ∨
  [ψ1]_i`` (all ``i``), ``⟨ψ⟩_i → [ψ2]_i ∨ ⟨ψ⟩_{i+1}`` and ``⟨ψ⟩_k →
  [ψ2]_k``.  Without it a ``U`` could justify itself round the loop.

Every clause holds the negation of an encoder literal (and the clauses at
``k`` that of ``sel_l``), so it constrains nothing while that literal is
false: the encodings of other bounds and the clauses of unselected loops
are inert, and one unrolling and one solver serve every bound.  If several
selectors are true, the model satisfies every selected loop's lasso.  Each
subformula gets ``k + 1`` literals (``U`` twice that), so one bound's
encoding is ``O(k·|φ|)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..ltl.ast import (
    And,
    Atom,
    FalseFormula,
    Formula,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
)
from ..ltl.rewrite import nnf
from ..sat.cnf import CNF, Literal
from .unroll import frame_name

__all__ = ["LinearLTLEncoder"]


class LinearLTLEncoder:
    """One bound's LTL encoding over the lassos its selectors close."""

    def __init__(self, cnf: CNF, bound: int, selectors: Sequence[Literal], true: Literal):
        self.cnf = cnf
        self.bound = bound
        #: ``sel_l`` for the loop starts ``l = 0 .. bound``.
        self.selectors: Tuple[Literal, ...] = tuple(selectors)
        #: A literal the CNF forces true; ``[true]`` and ``[false]`` use it.
        self.true = true
        self._memo: Dict[Tuple[Formula, int], Literal] = {}

    def root(self, formula: Formula) -> Literal:
        """Literal that forces ``formula`` at frame 0 when assumed (not asserted)."""
        return self.literal(nnf(formula), 0)

    def literal(self, formula: Formula, position: int) -> Literal:
        """``[formula]_position`` for a formula in negation normal form."""
        key = (formula, position)
        literal = self._memo.get(key)
        if literal is None:
            if isinstance(formula, (Until, Release)):
                self._encode_temporal(formula)
                literal = self._memo[key]
            else:
                literal = self._encode(formula, position)
                self._memo[key] = literal
        return literal

    # -- helpers -----------------------------------------------------------------
    def _fresh(self) -> Literal:
        return Literal(self.cnf.pool.fresh("_ltl"))

    def _clause(self, *literals: Literal) -> None:
        """Add a clause, dropping it when satisfied by the constant literal."""
        if self.true in literals:
            return
        self.cnf.add_clause(*(lit for lit in literals if lit != -self.true))

    def _encode(self, formula: Formula, position: int) -> Literal:
        if isinstance(formula, Atom):
            return self.cnf.pool.literal(frame_name(formula.name, position))
        if isinstance(formula, Not) and isinstance(formula.operand, Atom):
            return -self.literal(formula.operand, position)
        if isinstance(formula, TrueFormula):
            return self.true
        if isinstance(formula, FalseFormula):
            return -self.true
        if isinstance(formula, And):
            output = self._fresh()
            self._clause(-output, self.literal(formula.left, position))
            self._clause(-output, self.literal(formula.right, position))
            return output
        if isinstance(formula, Or):
            output = self._fresh()
            self._clause(
                -output,
                self.literal(formula.left, position),
                self.literal(formula.right, position),
            )
            return output
        if isinstance(formula, Next):
            if position < self.bound:
                return self.literal(formula.operand, position + 1)
            output = self._fresh()
            for loop_start, selector in enumerate(self.selectors):
                self._clause(-output, -selector, self.literal(formula.operand, loop_start))
            return output
        raise TypeError(f"not in negation normal form: {type(formula).__name__}")

    def _encode_temporal(self, formula: Formula) -> None:
        """All ``k + 1`` literals of one ``U`` or ``R`` node at once.

        ``[ψ]_k`` reaches back to every loop start, so no position of the
        node can be encoded without the others.
        """
        last = self.bound
        here: List[Literal] = [self._fresh() for _ in range(last + 1)]
        for position, literal in enumerate(here):
            self._memo[(formula, position)] = literal
        left = [self.literal(formula.left, i) for i in range(last + 1)]
        right = [self.literal(formula.right, i) for i in range(last + 1)]
        if isinstance(formula, Release):
            for i in range(last + 1):
                self._clause(-here[i], right[i])
                if i < last:
                    self._clause(-here[i], left[i], here[i + 1])
            for loop_start, selector in enumerate(self.selectors):
                self._clause(-here[last], -selector, left[last], here[loop_start])
            return
        pending: List[Literal] = [self._fresh() for _ in range(last + 1)]
        for i in range(last + 1):
            self._clause(-here[i], right[i], left[i])
            self._clause(-pending[i], right[i], left[i])
            if i < last:
                self._clause(-here[i], right[i], here[i + 1])
                self._clause(-pending[i], right[i], pending[i + 1])
        self._clause(-pending[last], right[last])
        for loop_start, selector in enumerate(self.selectors):
            self._clause(-here[last], -selector, right[last], pending[loop_start])
