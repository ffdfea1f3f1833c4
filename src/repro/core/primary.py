"""The primary coverage question (Theorem 1).

    The RTL specification (properties R and concrete modules M) covers the
    architectural intent A  iff  the temporal property ``!A & R`` is false
    in M.

Operationally: search for a run of the concrete modules that satisfies every
RTL property but refutes the architectural intent.  If such a run exists the
intent is *not* covered and the run is returned as a witness (the start of the
gap analysis); if no such run exists, coverage is proved.

The search itself is delegated to a :class:`~repro.engines.coverage.CoverageEngine`
selected via ``options`` (:class:`~repro.core.coverage.CoverageOptions`):
the complete explicit-state engine by default, the bounded SAT engine
(``engine="bmc"``), whose *covered* verdicts hold up to
``options.bmc_max_bound`` only (``PrimaryCoverageResult.complete`` records
the distinction), or the complete symbolic BDD fixpoint engine
(``engine="symbolic"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..engines.coverage import CoverageEngine, engine_from_options
from ..ltl.ast import Formula, Not
from ..ltl.traces import LassoTrace
from ..mc.product import ProductStatistics
from .spec import CoverageProblem

if TYPE_CHECKING:  # pragma: no cover - typing only (coverage imports primary)
    from .coverage import CoverageOptions

__all__ = ["PrimaryCoverageResult", "primary_coverage_check", "is_covered_with"]


@dataclass
class PrimaryCoverageResult:
    """Outcome of the primary coverage question for one problem."""

    problem_name: str
    covered: bool
    witness: Optional[LassoTrace] = None
    elapsed_seconds: float = 0.0
    statistics: ProductStatistics = field(default_factory=ProductStatistics)
    engine: str = "explicit"
    #: False when a *covered* verdict is only bounded (BMC below the diameter).
    complete: bool = True
    #: The member engine that produced the verdict (portfolio runs only).
    winner: Optional[str] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.covered


def primary_coverage_check(
    problem: CoverageProblem,
    *,
    architectural: Optional[Formula] = None,
    options: Optional["CoverageOptions"] = None,
    engine: Optional[CoverageEngine] = None,
) -> PrimaryCoverageResult:
    """Answer the primary coverage question for the problem.

    ``architectural`` restricts the check to a single architectural property
    (Algorithm 1 analyses the intent property by property); by default the
    conjunction of the whole intent is used.  ``options`` selects the engine
    (``options.engine``, default explicit-state) unless an ``engine``
    instance is passed.
    """
    problem.validate()
    engine = engine or engine_from_options(options)
    target = architectural if architectural is not None else problem.architectural_conjunction()
    formulas: List[Formula] = [Not(target)] + problem.all_rtl_formulas()
    start = time.perf_counter()
    # Witnesses feed the gap pipeline's term projection onto APR, so the
    # whole alphabet is kept observable in the (sliced) compiled problem.
    result = engine.find_run(
        problem.composed_module(), formulas, observe=sorted(problem.apr)
    )
    elapsed = time.perf_counter() - start
    statistics = result.statistics if isinstance(result.statistics, ProductStatistics) else ProductStatistics()
    covered = not result.satisfiable
    result_complete = getattr(result, "complete", None)
    if result_complete is None:
        result_complete = engine.complete
    return PrimaryCoverageResult(
        problem_name=problem.name,
        covered=covered,
        witness=result.witness,
        elapsed_seconds=elapsed,
        statistics=statistics,
        engine=engine.name,
        complete=result_complete or not covered,
        winner=getattr(result, "winner", None),
    )


def is_covered_with(
    problem: CoverageProblem,
    extra_properties: Sequence[Formula],
    *,
    architectural: Optional[Formula] = None,
    options: Optional["CoverageOptions"] = None,
) -> bool:
    """Theorem 1 with additional candidate properties added to the RTL spec.

    This is the closure check used by the gap-finding algorithm: a candidate
    gap property ``G`` closes the hole iff ``(R & G) & !A`` is false in ``M``.
    """
    engine = engine_from_options(options)
    return engine.is_covered_with(
        problem, list(extra_properties), architectural=architectural
    )
