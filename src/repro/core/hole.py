"""Coverage hole and uncovered architectural intent (Theorem 2, Definition 5).

Theorem 2: the unique weakest property over ``APR`` that closes the coverage
gap is::

    R_H  =  A | !(R & T_M)

Definition 5 asks for the analogous weakest property over the architectural
alphabet ``APA`` (the *uncovered architectural intent*).  ``R_H`` itself is
exact but — as the paper stresses in Section 4 — conveys little to a designer;
:mod:`repro.core.coverage` post-processes it into legible, structure-preserving
gap properties.  The functions here provide the exact objects and the checks
used to validate them (and to cross-check the legible output against them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..ltl.ast import Formula, Not, Or, conj
from ..ltl.rewrite import simplify
from .spec import CoverageProblem
from .tm import TMResult, build_tm_for_modules

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engines.coverage import CoverageEngine

__all__ = ["CoverageHole", "coverage_hole", "hole_closes_gap"]


@dataclass
class CoverageHole:
    """The exact coverage hole ``R_H = A | !(R & T_M)`` and its ingredients."""

    problem_name: str
    architectural: Formula
    rtl_conjunction: Formula
    tm_formula: Formula
    tm_results: List[TMResult]
    tm_build_seconds: float

    @property
    def formula(self) -> Formula:
        """``R_H`` exactly as characterised by Theorem 2."""
        return simplify(Or(self.architectural, Not(conj(self.rtl_conjunction, self.tm_formula))))


def coverage_hole(
    problem: CoverageProblem,
    *,
    architectural: Optional[Formula] = None,
) -> CoverageHole:
    """Compute the exact coverage hole of Theorem 2 for the problem."""
    problem.validate()
    target = architectural if architectural is not None else problem.architectural_conjunction()
    tm_formula, tm_results, tm_seconds = build_tm_for_modules(problem.concrete_modules)
    return CoverageHole(
        problem_name=problem.name,
        architectural=target,
        rtl_conjunction=problem.rtl_conjunction(),
        tm_formula=tm_formula,
        tm_results=tm_results,
        tm_build_seconds=tm_seconds,
    )


def hole_closes_gap(
    problem: CoverageProblem,
    hole: CoverageHole,
    engine: Optional["CoverageEngine"] = None,
) -> bool:
    """Sanity check of Theorem 2: ``(R & R_H) & !A`` must be false in ``M``.

    The check is performed compositionally.  A run admitted by ``R & R_H`` that
    refutes ``A`` must satisfy ``R & !A & !(R & T_M)`` (the ``A`` disjunct of
    ``R_H`` is killed by ``!A``), i.e. it must violate at least one conjunct of
    ``R & T_M``.  Violating an ``R`` conjunct contradicts ``R`` directly, so it
    suffices to show that, for every conjunct ``t`` of ``T_M``, no run of ``M``
    satisfies ``R & !A & !t``.  Each ``!t`` is either a negated initial-state
    cube or ``F(!step-relation)``, both of which have small monitors — avoiding
    a tableau over the (large) ``T_M`` formula itself.

    The queries run on ``engine`` (Algorithm 1 passes the engine of the
    analysis), or else on the default explicit-state engine.
    """
    from ..engines.coverage import get_engine
    from ..ltl.rewrite import conjuncts

    engine = engine or get_engine("explicit")
    module = problem.composed_module()
    base = [Not(hole.architectural)] + problem.all_rtl_formulas()
    for conjunct in conjuncts(hole.tm_formula):
        result = engine.find_run(module, base + [Not(conjunct)])
        if result.satisfiable:
            return False
    return True
