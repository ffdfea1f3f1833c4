"""Propositional SAT substrate.

The bounded model checker (:mod:`repro.bmc`) reduces the primary coverage
question of Theorem 1 to propositional satisfiability of an unrolled
transition relation.  This package provides the pieces of that reduction:

* :mod:`repro.sat.cnf` — literals, clauses and CNF formulas over named
  boolean variables,
* :mod:`repro.sat.tseitin` — the Tseitin transformation from
  :class:`~repro.logic.boolexpr.BoolExpr` circuits to equisatisfiable CNF,
* :mod:`repro.sat.solver` — a conflict-driven clause-learning (CDCL) solver
  with two-watched-literal propagation, VSIDS-style branching and restarts,
  plus a brute-force reference solver used by the test-suite.
"""

from .cnf import CNF, Clause, Literal, VariablePool
from .solver import SatResult, SatSolver, solve, solve_brute_force
from .tseitin import TseitinEncoder, encode_constraint

__all__ = [
    "CNF",
    "Clause",
    "Literal",
    "VariablePool",
    "SatResult",
    "SatSolver",
    "solve",
    "solve_brute_force",
    "TseitinEncoder",
    "encode_constraint",
]
