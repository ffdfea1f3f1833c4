"""Incremental bounded model checking session.

A :class:`BMCSession` owns one monotone :class:`~repro.bmc.unroll
.UnrolledModule` and one persistent :class:`~repro.sat.solver.SatSolver`,
and answers every ``(formulas, bound)`` query against them with **one** SAT
call:

* time frames 0..k are encoded **once** — deeper bounds only append the new
  frame's clauses (the solver syncs appended clauses before each call, so
  frames 0..k-1 are never re-Tseitined, and all learned clauses about them
  survive),
* each ``(k, l)`` lasso closure is guarded by a *loop selector* literal; a
  per-bound literal ``b_k`` requires one of ``sel_0 .. sel_k``, so the
  query for bound ``k`` assumes ``b_k`` and the solver picks the loop.  No
  selector is ever asserted as a unit, so the closures of every bound stay
  in the clause database, inert when their bound is not asked,
* each formula gets one linear encoding per bound
  (:class:`~repro.bmc.ltl_bmc.LinearLTLEncoder`) whose root literal is also
  passed as an assumption, letting several conjuncts that share a slice
  reuse one solver (and each other's learned clauses).

This mirrors the assumption-based incremental interface of modern SAT-based
model checkers.  It is the only BMC search in the package:
:func:`repro.bmc.engine.find_run_bmc` always runs on a session.  The
fresh-solver-per-``(k, l)``-query search it replaced is a test oracle
(``tests/properties/bmc_reference.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..ltl.ast import Formula
from ..ltl.traces import LassoTrace
from ..rtl.netlist import Module
from ..sat.cnf import Literal
from ..sat.solver import SatResult, SatSolver
from .ltl_bmc import LinearLTLEncoder
from .unroll import UnrolledModule

__all__ = ["BMCSession"]


class BMCSession:
    """One solver + one unrolling, reused across bounds and conjuncts.

    Not thread-safe: callers that pool sessions (the BMC engine) must hand a
    session to at most one query at a time.
    """

    def __init__(self, module: Module, free_atoms: Sequence[str] = ()):
        self.module = module
        self.free_atoms: Tuple[str, ...] = tuple(free_atoms)
        self.unrolled = UnrolledModule(module, free_atoms=free_atoms)
        self.unrolled.assert_initial_state()
        self._true = self.unrolled.encoder.variable_literal("_ltl_true")
        self.unrolled.cnf.add_unit(self._true)
        self.solver = SatSolver(self.unrolled.cnf)
        #: Total SAT queries answered by this session (across all callers).
        self.queries = 0
        self._bounds: Dict[int, Tuple[Literal, LinearLTLEncoder]] = {}
        self._roots: Dict[Tuple[Formula, int], Literal] = {}

    @property
    def depth(self) -> int:
        return self.unrolled.depth

    # -- encoding --------------------------------------------------------------
    def _bound(self, bound: int) -> Tuple[Literal, LinearLTLEncoder]:
        """The bound's literal ``b_k`` and LTL encoder, made on first use.

        Each closure of the bound-``k`` lasso at frame ``l`` is guarded by a
        selector ``sel_l``, and ``b_k → sel_0 ∨ … ∨ sel_k``: assuming ``b_k``
        closes the lasso at a loop start the solver picks.
        """
        entry = self._bounds.get(bound)
        if entry is None:
            encoder = self.unrolled.encoder
            selectors: List[Literal] = []
            for loop_start in range(bound + 1):
                selector = encoder.variable_literal(f"_sel_k{bound}_l{loop_start}")
                self.unrolled.guarded_loop_constraint(bound, loop_start, selector)
                selectors.append(selector)
            literal = encoder.variable_literal(f"_bound_k{bound}")
            self.unrolled.cnf.add_clause(-literal, *selectors)
            entry = (literal, LinearLTLEncoder(self.unrolled.cnf, bound, selectors, self._true))
            self._bounds[bound] = entry
        return entry

    def _root_literals(
        self, formulas: Tuple[Formula, ...], bound: int
    ) -> List[Literal]:
        """Assumption literals forcing every formula on the bound's lassos.

        Memoised per *formula* (by structural equality) and bound, not per
        conjunct tuple: different spec conjuncts on one slice typically share
        most of their formulas, and shared formulas must not be re-encoded.
        """
        roots: List[Literal] = []
        for formula in formulas:
            key = (formula, bound)
            root = self._roots.get(key)
            if root is None:
                root = self._roots[key] = self._bound(bound)[1].root(formula)
            roots.append(root)
        return roots

    # -- solving ----------------------------------------------------------------
    def query(self, formulas: Sequence[Formula], bound: int) -> Tuple[SatResult, int]:
        """Decide whether some lasso of length ``bound`` satisfies every formula.

        Returns (result, reused clauses).  The second component counts
        clauses that were already attached to the solver before this query
        contributed anything — the work incremental solving avoided
        re-encoding.
        """
        self.unrolled.extend_to(bound)
        assumptions: List[Literal] = [self._bound(bound)[0]]
        assumptions.extend(self._root_literals(tuple(formulas), bound))
        reused = self.solver.attached_clauses
        result = self.solver.solve(assumptions=assumptions)
        self.queries += 1
        return result, reused

    def decode_witness(self, result: SatResult, bound: int) -> Tuple[int, LassoTrace]:
        """``(loop_start, lasso)`` of a satisfiable query's model.

        The loop start is the smallest selected one; the model satisfies
        the lasso of every selected loop.
        """
        name_of = self.unrolled.cnf.pool.name_of
        loop_start = next(
            start
            for start, selector in enumerate(self._bound(bound)[1].selectors)
            if result.value(name_of(selector.variable))
        )
        states = self.unrolled.decode_states(result.assignment, up_to=bound)
        return loop_start, LassoTrace.from_states(states, loop_start)

    def compatible_with(self, module: Module, free_atoms: Sequence[str]) -> bool:
        """Whether this session's encoding is valid for the given query.

        Sessions are pooled by structural module fingerprint; the free-atom
        list additionally shapes the trace signals, so both must match.
        """
        return tuple(free_atoms) == self.free_atoms and (
            module is self.module
            or (
                module.inputs == self.module.inputs
                and module.assigns.keys() == self.module.assigns.keys()
                and module.registers.keys() == self.module.registers.keys()
            )
        )
