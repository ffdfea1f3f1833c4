"""The two extremes the paper's title places its method between.

*"What lies between design intent coverage and model checking?"* — the
methodology of this paper sits between two established points:

* **pure design intent coverage** (the authors' ICCAD 2004 work): the RTL
  specification is a set of properties only; coverage is a property-to-
  property question (`R ∧ ¬A` unsatisfiable) and concrete modules cannot
  contribute, so decompositions that rely on glue logic cannot be proved;
* **full model checking**: the architectural property is checked directly on
  the complete RTL of the parent module — the capacity-limited task the whole
  methodology is designed to avoid.

This module implements both baselines so the spectrum can be compared on the
bundled designs (the ``spectrum`` benchmark and example regenerate the
paper's motivating contrast: the Figure-2 decomposition is *not* provable by
pure intent coverage, *is* provable once the glue logic is admitted, and
agrees with the verdict of full model checking at a fraction of its state
space).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..engines.coverage import EngineVerdict
from ..ltl.ast import Formula, Not
from ..ltl.sat import is_satisfiable, satisfying_trace
from ..ltl.traces import LassoTrace
from ..mc.modelcheck import ModelCheckResult, check
from ..mc.product import ProductStatistics
from ..rtl.netlist import Module
from .primary import primary_coverage_check
from .spec import CoverageProblem

__all__ = [
    "PureIntentCoverageResult",
    "FullModelCheckResult",
    "SpectrumComparison",
    "pure_intent_coverage",
    "full_model_checking",
    "compare_spectrum",
]


@dataclass
class PureIntentCoverageResult:
    """Outcome of the ICCAD-2004-style property-only coverage check."""

    problem_name: str
    covered: bool
    witness: Optional[LassoTrace] = None
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.covered


@dataclass
class FullModelCheckResult:
    """Outcome of checking the architectural intent on the full RTL."""

    module_name: str
    holds: bool
    counterexample: Optional[LassoTrace] = None
    statistics: ProductStatistics = field(default_factory=ProductStatistics)
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


@dataclass
class SpectrumComparison:
    """The three points of the spectrum evaluated on one design."""

    problem_name: str
    pure: PureIntentCoverageResult
    hybrid: EngineVerdict
    full: Optional[FullModelCheckResult] = None

    def rows(self) -> List[dict]:
        """Table rows (method, verdict, seconds) for reports and benchmarks."""
        rows = [
            {
                "method": "pure intent coverage (ICCAD 2004)",
                "verdict": "covered" if self.pure.covered else "not proved",
                "seconds": self.pure.elapsed_seconds,
            },
            {
                "method": "intent coverage + RTL blocks (this paper)",
                "verdict": "covered" if self.hybrid.covered else "not covered",
                "seconds": self.hybrid.elapsed_seconds,
            },
        ]
        if self.full is not None:
            rows.append(
                {
                    "method": "full model checking",
                    "verdict": "holds" if self.full.holds else "fails",
                    "seconds": self.full.elapsed_seconds,
                }
            )
        return rows

    def describe(self) -> str:
        lines = [f"Spectrum comparison for {self.problem_name}:"]
        for row in self.rows():
            lines.append(f"  {row['method']:<42} {row['verdict']:<12} {row['seconds']:.3f}s")
        return "\n".join(lines)


def pure_intent_coverage(problem: CoverageProblem) -> PureIntentCoverageResult:
    """Coverage with properties only (concrete modules ignored).

    The RTL specification covers the architectural intent in the pure setting
    iff no word satisfies ``R ∧ ¬A``.  Because the concrete modules do not
    constrain the words, decompositions whose correctness depends on glue
    logic report "not proved" here — the limitation the paper lifts.
    """
    start = time.perf_counter()
    refutation = Not(problem.architectural_conjunction())
    query = [refutation] + problem.all_rtl_formulas()
    from ..ltl.rewrite import big_and

    formula = big_and(query)
    if not is_satisfiable(formula):
        return PureIntentCoverageResult(problem.name, True, None, time.perf_counter() - start)
    witness = satisfying_trace(formula)
    return PureIntentCoverageResult(problem.name, False, witness, time.perf_counter() - start)


def full_model_checking(
    problem: CoverageProblem,
    full_module: Module,
    *,
    assumptions: Sequence[Formula] = (),
) -> FullModelCheckResult:
    """Check the architectural intent directly on the complete RTL.

    ``full_module`` is the parent module ``M`` with *every* sub-module given
    as RTL (including those the coverage problem only describes with
    properties).  The problem's environment assumptions are applied unless an
    explicit ``assumptions`` sequence overrides them.
    """
    start = time.perf_counter()
    used_assumptions = list(assumptions) if assumptions else list(problem.assumptions)
    result: ModelCheckResult = check(
        full_module,
        problem.architectural_conjunction(),
        assumptions=used_assumptions,
    )
    elapsed = time.perf_counter() - start
    return FullModelCheckResult(
        module_name=full_module.name,
        holds=result.holds,
        counterexample=result.counterexample,
        statistics=result.statistics,
        elapsed_seconds=elapsed,
    )


def compare_spectrum(
    problem: CoverageProblem,
    full_module: Optional[Module] = None,
) -> SpectrumComparison:
    """Evaluate the design on every available point of the spectrum."""
    pure = pure_intent_coverage(problem)
    hybrid = primary_coverage_check(problem)
    full = full_model_checking(problem, full_module) if full_module is not None else None
    return SpectrumComparison(problem.name, pure, hybrid, full)
