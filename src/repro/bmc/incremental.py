"""Incremental bounded model checking session.

A :class:`BMCSession` owns one monotone :class:`~repro.bmc.unroll
.UnrolledModule` and one persistent :class:`~repro.sat.solver.SatSolver`,
and answers every ``(formulas, bound, loop_start)`` query against them:

* time frames 0..k are encoded **once** — deeper bounds only append the new
  frame's clauses (the solver syncs appended clauses before each call, so
  frames 0..k-1 are never re-Tseitined, and all learned clauses about them
  survive),
* each ``(k, l)`` lasso closure is guarded by an *activation literal* that
  is asserted as a solver assumption, never as a unit — so the closures of
  all previously explored loop positions stay in the clause database,
  switched off,
* each spec-conjunct tuple gets a namespaced LTL encoding whose root
  literals are also passed as assumptions, letting several conjuncts that
  share a slice reuse one solver (and each other's learned clauses).

This mirrors the assumption-based incremental interface of modern SAT-based
model checkers.  It is the only BMC search in the package:
:func:`repro.bmc.engine.find_run_bmc` always runs on a session.  The
fresh-solver-per-query search it replaced is a test oracle
(``tests/properties/bmc_reference.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ltl.ast import Formula
from ..rtl.netlist import Module
from ..sat.cnf import Literal
from ..sat.solver import SatResult, SatSolver
from .ltl_bmc import LTLBoundedEncoder
from .unroll import UnrolledModule

__all__ = ["BMCSession"]


class BMCSession:
    """One solver + one unrolling, reused across bounds, loops and conjuncts.

    Not thread-safe: callers that pool sessions (the BMC engine) must hand a
    session to at most one query at a time.
    """

    def __init__(self, module: Module, free_atoms: Sequence[str] = ()):
        self.module = module
        self.free_atoms: Tuple[str, ...] = tuple(free_atoms)
        self.unrolled = UnrolledModule(module, free_atoms=free_atoms)
        self.unrolled.assert_initial_state()
        self.solver = SatSolver(self.unrolled.cnf)
        #: Total SAT queries answered by this session (across all callers).
        self.queries = 0
        self._loop_activations: Dict[Tuple[int, int], Literal] = {}
        self._roots: Dict[Tuple[Formula, int, int], Literal] = {}

    @property
    def depth(self) -> int:
        return self.unrolled.depth

    # -- encoding --------------------------------------------------------------
    def _loop_activation(self, bound: int, loop_start: int) -> Literal:
        """The activation literal guarding the ``(bound, loop_start)`` closure."""
        key = (bound, loop_start)
        activation = self._loop_activations.get(key)
        if activation is None:
            activation = self.unrolled.encoder.variable_literal(
                f"_act_k{bound}_l{loop_start}"
            )
            self.unrolled.guarded_loop_constraint(bound, loop_start, activation)
            self._loop_activations[key] = activation
        return activation

    def _root_literals(
        self, formulas: Tuple[Formula, ...], bound: int, loop_start: int
    ) -> List[Literal]:
        """Assumption literals forcing every formula on the ``(k, l)`` lasso.

        Memoised per *formula* (by structural equality), not per conjunct
        tuple: different spec conjuncts on one slice typically share most of
        their formulas, and shared formulas must not be re-encoded.
        """
        roots: List[Literal] = []
        ltl: Optional[LTLBoundedEncoder] = None
        for formula in formulas:
            key = (formula, bound, loop_start)
            root = self._roots.get(key)
            if root is None:
                if ltl is None:
                    ltl = LTLBoundedEncoder(self.unrolled.encoder, bound, loop_start)
                root = ltl.formula_literal(formula)
                self._roots[key] = root
            roots.append(root)
        return roots

    # -- solving ----------------------------------------------------------------
    def query(
        self, formulas: Sequence[Formula], bound: int, loop_start: int
    ) -> Tuple[SatResult, int]:
        """Decide one ``(k, l)`` lasso query; returns (result, reused clauses).

        The second component counts clauses that were already attached to the
        solver before this query contributed anything — the work incremental
        solving avoided re-encoding.
        """
        self.unrolled.extend_to(bound)
        assumptions: List[Literal] = [self._loop_activation(bound, loop_start)]
        assumptions.extend(self._root_literals(tuple(formulas), bound, loop_start))
        reused = self.solver.attached_clauses
        result = self.solver.solve(assumptions=assumptions)
        self.queries += 1
        return result, reused

    def decode_witness(self, result: SatResult, bound: int) -> List[dict]:
        """Per-frame valuations of a satisfiable query's model."""
        return self.unrolled.decode_states(result.assignment, up_to=bound)

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
