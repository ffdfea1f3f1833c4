"""Algorithm 1: computing and representing the coverage gap.

``find_coverage_gap`` analyses one architectural property ``F_A`` against the
RTL specification (properties + concrete modules):

1. build ``T_M`` from the concrete modules and form the exact hole
   ``U = F_A | !(R & T_M)`` (Theorem 2),
2. answer the primary coverage question (Theorem 1); if covered, stop,
3. otherwise *unfold* the gap into bounded uncovered terms (witness runs
   projected onto ``APR`` — steps 2(a)/2(b)),
4. *push* the terms into the parse tree of ``F_A`` to locate the gap and the
   candidate new literals (step 2(c)),
5. *weaken* ``F_A`` with those literals, keep the weakest candidates that
   provably close the gap (step 2(d)), and verify closure with Theorem 1.

Each model-checking query is asked once: the witness enumeration starts from
the primary check's witness, and a reported gap property's closure verdict is
the one its selection already decided.

``analyze_problem`` runs the pipeline for every architectural property and
aggregates the phase timings in the shape of the paper's Table 1 (primary
coverage question time / ``T_M`` building time / gap finding time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..engines.coverage import EngineVerdict, engine_from_options
from ..ltl.ast import Formula
from ..obs import span
from ..ltl.printer import to_str
from .hole import CoverageHole, coverage_hole
from .primary import primary_coverage_check
from .push import PushResult, push_terms
from .spec import CoverageProblem
from .terms import UncoveredTerms, uncovered_terms
from .weaken import GapCandidate, generate_candidates, select_weakest

__all__ = [
    "CoverageOptions",
    "GapAnalysis",
    "CoverageReport",
    "find_coverage_gap",
    "analyze_problem",
]


@dataclass
class CoverageOptions:
    """Tunables of the gap-finding pipeline.

    ``engine`` selects the primary-coverage engine from the
    :mod:`repro.engines` registry: ``"explicit"`` (complete nested-DFS),
    ``"bmc"`` (bounded SAT up to ``bmc_max_bound``), ``"symbolic"``
    (complete BDD fixpoint — prefer it when the product state space is too
    wide for explicit enumeration), ``"portfolio"`` (all three
    concurrently, first decisive verdict wins) or ``"auto"`` (explicit when
    the query's automata have more than 28 states, bmc otherwise, with a
    complete fallback when bmc finds no witness).

    The analysis consults whatever decision-result cache is active
    (:mod:`repro.runner.cache`); install one around it with
    ``using_result_cache(cache_for_dir(...))``, or mask it with
    ``using_result_cache(None)``.
    """

    max_witnesses: int = 3
    unfold_depth: int = 5
    max_closure_checks: int = 20
    max_reported_gaps: int = 3
    engine: str = "explicit"
    bmc_max_bound: int = 12


@dataclass
class GapAnalysis:
    """Result of Algorithm 1 for a single architectural property."""

    property_formula: Formula
    covered: bool
    primary: EngineVerdict
    hole: Optional[CoverageHole] = None
    terms: Optional[UncoveredTerms] = None
    push: Optional[PushResult] = None
    gap_properties: List[GapCandidate] = field(default_factory=list)
    gap_verified: bool = False
    fallback_to_hole: bool = False
    tm_seconds: float = 0.0
    primary_seconds: float = 0.0
    gap_seconds: float = 0.0
    #: False when the positive verdicts above (covered / gap_verified) are
    #: bounded — i.e. produced by the BMC engine, which proves absence of a
    #: witness only up to ``CoverageOptions.bmc_max_bound``.
    complete: bool = True

    def describe(self) -> str:
        bounded = "" if self.complete else " (bounded: BMC engine, holds up to the bound only)"
        lines = [f"property: {to_str(self.property_formula)}"]
        if self.primary is not None and self.primary.winner:
            lines.append(
                f"  decided by: {self.primary.engine} (winner: {self.primary.winner})"
            )
        if self.covered:
            lines.append(
                f"  covered by the RTL specification (primary question negative){bounded}"
            )
            return "\n".join(lines)
        lines.append("  NOT covered; coverage gap:")
        if self.gap_properties:
            for candidate in self.gap_properties:
                lines.append(f"    {to_str(candidate.formula)}")
                lines.append(f"      ({candidate.description})")
            lines.append(f"  gap closure verified: {self.gap_verified}{bounded}")
        elif self.hole is not None:
            lines.append("    (no structure-preserving weakening found; exact hole reported)")
            lines.append(f"    {to_str(self.hole.formula)}")
            lines.append(f"  gap closure verified: {self.gap_verified}{bounded}")
        return "\n".join(lines)


@dataclass
class CoverageReport:
    """Aggregate result of a SpecMatcher run over a whole problem."""

    problem_name: str
    rtl_property_count: int
    analyses: List[GapAnalysis] = field(default_factory=list)
    primary_seconds: float = 0.0
    tm_seconds: float = 0.0
    gap_seconds: float = 0.0

    @property
    def covered(self) -> bool:
        return all(analysis.covered for analysis in self.analyses)

    def table1_row(self) -> Dict[str, object]:
        """The paper's Table 1 row for this run."""
        return {
            "circuit": self.problem_name,
            "rtl_properties": self.rtl_property_count,
            "primary_coverage_seconds": round(self.primary_seconds, 3),
            "tm_building_seconds": round(self.tm_seconds, 3),
            "gap_finding_seconds": round(self.gap_seconds, 3),
        }


def find_coverage_gap(
    problem: CoverageProblem,
    architectural: Formula,
    options: Optional[CoverageOptions] = None,
) -> GapAnalysis:
    """Run Algorithm 1 for a single architectural property.

    Every model-checking query of the run — the primary coverage question,
    witness enumeration and closure checks — goes through the engine
    selected by ``options``.
    """
    options = options or CoverageOptions()
    # Step 1: T_M and the exact hole.
    tm_start = time.perf_counter()
    with span("tm_build", problem=problem.name):
        hole = coverage_hole(problem, architectural=architectural)
    tm_seconds = time.perf_counter() - tm_start

    # Resolve the engine once per analysis: the primary check, the witness
    # enumeration and the closure checks all run on this instance.  An
    # engine may keep state between queries (BMC pools its incremental
    # solvers), so the enumeration, which starts from the primary witness,
    # continues on the engine that found it.
    engine = engine_from_options(options)

    # Step 2 guard: the primary coverage question for this property.
    with span("primary_check", problem=problem.name):
        primary = primary_coverage_check(problem, architectural=architectural, engine=engine)
    if primary.covered:
        return GapAnalysis(
            property_formula=architectural,
            covered=True,
            primary=primary,
            hole=hole,
            tm_seconds=tm_seconds,
            primary_seconds=primary.elapsed_seconds,
            complete=primary.complete,
        )

    gap_start = time.perf_counter()
    with span("gap_search", problem=problem.name):
        # Steps 2(a)/(b): uncovered terms from witness runs, projected onto
        # APR/APA.  The enumeration's first query is the primary question, so
        # it starts from the primary witness instead of asking it again.
        terms = uncovered_terms(
            problem,
            architectural=architectural,
            max_witnesses=options.max_witnesses,
            depth=options.unfold_depth,
            engine=engine,
            first_witness=primary.witness,
        )
        # Step 2(c): push the terms into the parse tree.
        push = push_terms(architectural, terms.terms)
        # Step 2(d): weaken and keep the weakest closing candidates.
        # Suggestions whose new literal is a signal *driven* by the concrete
        # modules are dropped when any other remains: such literals merely
        # restate the RTL and lead to candidates equivalent to the original
        # property.  Free signals (module inputs and the signals of the
        # property-specified sub-modules) are where genuine
        # environment/scenario restrictions live.
        module = problem.composed_module()
        driven = set(module.assigns) | set(module.registers)
        suggestions = [s for s in push.suggestions if s.literal_name not in driven]
        if not suggestions:
            suggestions = push.suggestions
        candidates = generate_candidates(architectural, suggestions)
        # Cheap necessary-condition filter before the expensive closure
        # checks: a candidate can only close the gap if every collected
        # witness run violates it (otherwise that witness remains admissible
        # after adding it).
        from ..ltl.traces import evaluate as evaluate_on_trace

        filtered = [
            candidate
            for candidate in candidates
            if all(not evaluate_on_trace(candidate.formula, witness) for witness in terms.witnesses)
        ]
        if filtered:
            candidates = filtered
        candidates = candidates[: options.max_closure_checks]

        def closes(candidate: Formula) -> bool:
            return engine.is_covered_with(problem, [candidate], architectural=architectural)

        gap_properties = select_weakest(
            architectural, candidates, closes, max_reported=options.max_reported_gaps
        )

        # With no closing weakening, fall back to the exact hole formula of
        # Theorem 2 (it closes by construction) and check that it does.
        fallback = not gap_properties
        if gap_properties:
            # select_weakest reports only candidates closes() accepted, and
            # Theorem 1 with a reported property added is exactly the query
            # closes() answered for it on this engine.
            gap_verified = True
        else:
            from .hole import hole_closes_gap

            gap_verified = hole_closes_gap(problem, hole, engine=engine)
    gap_seconds = time.perf_counter() - gap_start

    return GapAnalysis(
        property_formula=architectural,
        covered=False,
        primary=primary,
        hole=hole,
        terms=terms,
        push=push,
        gap_properties=gap_properties,
        gap_verified=gap_verified,
        fallback_to_hole=fallback,
        tm_seconds=tm_seconds,
        primary_seconds=primary.elapsed_seconds,
        gap_seconds=gap_seconds,
        # Closure checks are "no refuting run exists" queries: definitive on
        # the complete engine, bounded on BMC.
        complete=engine.complete,
    )


def analyze_problem(
    problem: CoverageProblem,
    options: Optional[CoverageOptions] = None,
) -> CoverageReport:
    """Run the full SpecMatcher pipeline on a coverage problem."""
    options = options or CoverageOptions()
    problem.validate()

    report = CoverageReport(
        problem_name=problem.name,
        rtl_property_count=problem.rtl_property_count,
    )
    for architectural in problem.architectural:
        analysis = find_coverage_gap(problem, architectural, options)
        report.analyses.append(analysis)
        report.primary_seconds += analysis.primary_seconds
        report.gap_seconds += analysis.gap_seconds
    # T_M is built once per problem in practice; report the maximum single
    # build time rather than the sum of identical rebuilds.
    if report.analyses:
        report.tm_seconds = max(analysis.tm_seconds for analysis in report.analyses)
    return report
