"""Fresh-solver reference of the bounded model checking search.

The differential oracle of :func:`repro.bmc.engine.find_run_bmc`: every
``(bound, loop_start)`` query copies the shared unrolling, closes the lasso
with unguarded clauses, asserts the LTL obligations as units and asks a new
:class:`~repro.sat.solver.SatSolver`.  Nothing is carried from one query to
the next — no loop selectors, no assumptions, no learned clauses — so its
verdicts are the plain bounded semantics the incremental session must
reproduce.  It explores bounds in the same order, and every loop position
of a bound in turn, so it asks ``(k+1)(k+2)/2`` queries up to bound ``k``
where the session asks ``k+1``.  It fills the same
:class:`~repro.bmc.engine.BMCStatistics`, except the three reuse counters,
which stay zero.

The LTL obligations come from :class:`LTLBoundedEncoder`, which folds each
temporal operator's expansion law along the frames of one fixed ``(k, l)``
lasso — the encoding the library's linear one
(:class:`repro.bmc.ltl_bmc.LinearLTLEncoder`) replaced:

* ``p U q`` at ``i``  =  ``q_i  ∨ (p_i ∧ [p U q] at next)`` … base ``false``
* ``p R q`` at ``i``  =  ``q_i ∧ (p_i ∨ [p R q] at next)`` … base ``true``
* ``p W q`` at ``i``  =  ``q_i  ∨ (p_i ∧ [p W q] at next)`` … base ``true``
* ``G p`` / ``F p``    =  the ``R`` / ``U`` folds with a constant operand.

Each reachable frame appears exactly once in a fold, so the folds are exact
on the lasso, and boolean connectives and ``X`` translate structurally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bmc.engine import BMCResult, BMCStatistics, bmc_free_atoms
from repro.bmc.unroll import UnrolledModule, frame_name
from repro.engines.cancel import check_cancelled
from repro.logic.boolexpr import BoolExpr, and_, const, iff, implies, not_, or_, var
from repro.ltl.ast import (
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
from repro.ltl.traces import LassoTrace
from repro.rtl.netlist import Module
from repro.sat.cnf import CNF, Literal
from repro.sat.solver import SatSolver
from repro.sat.tseitin import TseitinEncoder


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
        # assigns one gate variable per (hash-consed) sub-expression.
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


def loop_constraint(unrolled: UnrolledModule, cnf: CNF, loop_start: int) -> None:
    """Close the lasso in ``cnf``: the successor of the last frame is ``loop_start``.

    The clauses go into ``cnf`` (a :meth:`CNF.copy` of the shared unrolling),
    so several loop positions can be tried against the same frames.
    """
    if not 0 <= loop_start <= unrolled.depth:
        raise ValueError("loop_start must lie within the unrolled frames")
    local_encoder = TseitinEncoder(cnf)
    rename = unrolled.rename(unrolled.depth)
    for name, register in unrolled.module.registers.items():
        next_literal = local_encoder.literal_for(register.next_value, rename=rename)
        target = cnf.pool.literal(frame_name(name, loop_start))
        cnf.add_clause(-next_literal, target)
        cnf.add_clause(next_literal, -target)


def reference_find_run_bmc(
    module: Module,
    formulas: Sequence[Formula],
    *,
    max_bound: int = 12,
    min_bound: int = 0,
    extra_free: Sequence[str] = (),
) -> BMCResult:
    """:func:`~repro.bmc.engine.find_run_bmc` with a fresh solver per query."""
    statistics = BMCStatistics()
    unrolled = UnrolledModule(module, free_atoms=bmc_free_atoms(module, formulas, extra_free))
    unrolled.assert_initial_state()
    for bound in range(min_bound, max_bound + 1):
        found = _search_bound(unrolled, formulas, bound, statistics)
        if found is not None:
            loop_start, witness = found
            return BMCResult(True, bound, loop_start, witness, statistics)
    return BMCResult(False, max_bound, None, None, statistics)


def _search_bound(
    unrolled: UnrolledModule,
    formulas: Sequence[Formula],
    bound: int,
    statistics: BMCStatistics,
) -> Optional[tuple]:
    """Try every loop position at one bound; ``(loop_start, witness)`` on SAT."""
    unrolled.extend_to(bound)
    statistics.max_bound_reached = bound
    for loop_start in range(bound + 1):
        check_cancelled()
        query = unrolled.cnf.copy()
        loop_constraint(unrolled, query, loop_start)
        ltl = LTLBoundedEncoder(TseitinEncoder(query), bound, loop_start)
        for formula in formulas:
            ltl.encoder.assert_expr(ltl.encode(formula))
        statistics.sat_calls += 1
        statistics.clauses = max(statistics.clauses, query.clause_count())
        statistics.variables = max(statistics.variables, query.variable_count())
        result = SatSolver(query).solve()
        statistics.merge_solver(
            result.conflicts,
            result.decisions,
            result.propagations,
            result.restarts,
        )
        if result.satisfiable:
            states = unrolled.decode_states(result.assignment)
            return loop_start, LassoTrace.from_states(states, loop_start)
    return None
