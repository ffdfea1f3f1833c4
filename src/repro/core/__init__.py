"""Design intent coverage with concrete RTL blocks — the paper's contribution."""

from .spec import CoverageProblem, SpecificationError
from .tm import TMResult, build_tm, build_tm_for_modules, boolexpr_to_formula
from .primary import primary_coverage_check
from .hole import CoverageHole, coverage_hole, hole_closes_gap
from .terms import UncoveredTerms, collect_gap_witnesses, uncovered_terms
from .push import AtomInstance, WeakeningSuggestion, PushResult, atom_instance_table, push_terms, render_push
from .weaken import GapCandidate, apply_weakening, generate_candidates, select_weakest
from .coverage import CoverageOptions, GapAnalysis, CoverageReport, find_coverage_gap, analyze_problem
from .report import format_report, format_table1, format_gap_analysis
from .specmatcher import SpecMatcher
from .spectrum import (
    FullModelCheckResult,
    PureIntentCoverageResult,
    SpectrumComparison,
    compare_spectrum,
    full_model_checking,
    pure_intent_coverage,
)

__all__ = [
    "CoverageProblem",
    "SpecificationError",
    "TMResult",
    "build_tm",
    "build_tm_for_modules",
    "boolexpr_to_formula",
    "primary_coverage_check",
    "CoverageHole",
    "coverage_hole",
    "hole_closes_gap",
    "UncoveredTerms",
    "collect_gap_witnesses",
    "uncovered_terms",
    "AtomInstance",
    "WeakeningSuggestion",
    "PushResult",
    "atom_instance_table",
    "push_terms",
    "render_push",
    "GapCandidate",
    "apply_weakening",
    "generate_candidates",
    "select_weakest",
    "CoverageOptions",
    "GapAnalysis",
    "CoverageReport",
    "find_coverage_gap",
    "analyze_problem",
    "format_report",
    "format_table1",
    "format_gap_analysis",
    "SpecMatcher",
    "PureIntentCoverageResult",
    "FullModelCheckResult",
    "SpectrumComparison",
    "pure_intent_coverage",
    "full_model_checking",
    "compare_spectrum",
]
