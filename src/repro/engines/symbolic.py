"""The fully symbolic (BDD fixpoint) coverage engine.

Third leg of the engine registry: where the **explicit** engine enumerates
the product state space and the **bmc** engine unrolls it into SAT, this
engine represents the Kripke structure, the property automata and their
product as BDDs over interleaved current/next variable pairs and decides the
primary coverage question with an Emerson–Lei fair-SCC fixpoint
(:mod:`repro.mc.symbolic`).

Verdict strength matches the explicit engine — ``complete = True`` in both
directions: a *covered* verdict is a full fixpoint proof that no run
satisfies ``!A & R``, and a *not covered* verdict carries a concrete lasso
witness extracted from the symbolic fair cycle and replayed on the cycle
simulator before it is reported.  The trade-off is structural instead:
image computation scales with BDD size, not with the number of reachable
product states, so wide designs (many free environment signals) that drown
the explicit engine in state enumeration stay tractable symbolically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .coverage import CoverageEngine, RunResult, register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..problem import CompiledProblem

__all__ = ["SymbolicEngine"]


class SymbolicEngine(CoverageEngine):
    """BDD fixpoint engine (complete, witness-checked)."""

    name = "symbolic"
    complete = True

    def _find_run(self, problem: "CompiledProblem") -> RunResult:
        from ..mc.symbolic import find_run_symbolic

        result = find_run_symbolic(
            problem.module,
            problem.formulas,
            automata=problem.automata,
            extra_free=problem.free_signals,
        )
        return RunResult(
            satisfiable=result.satisfiable,
            complete=True,
            witness=result.witness,
            statistics=result.statistics,
        )


register_engine("symbolic", SymbolicEngine)
