"""SpecMatcher: the top-level design-intent-coverage tool.

:class:`SpecMatcher` is the user-facing façade over the whole pipeline.
Typical use::

    from repro import SpecMatcher, parse

    matcher = SpecMatcher("MAL")
    matcher.add_architectural_property(parse("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))"))
    matcher.add_rtl_property(parse("G(r1 <-> X n1)"))
    matcher.add_rtl_property(parse("G((!r1 & r2) <-> X n2)"))
    matcher.add_concrete_module(m1)      # glue logic as RTL
    matcher.add_concrete_module(l1)      # cache access logic as RTL
    report = matcher.run()
    print(report.describe())

Properties can be supplied as :class:`~repro.ltl.ast.Formula` objects or as
strings (parsed with :func:`repro.ltl.parse`); concrete modules as
:class:`~repro.rtl.netlist.Module` objects or HDL text.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..engines.coverage import EngineVerdict
from ..ltl.ast import Formula
from ..ltl.parser import parse
from ..rtl.hdl import parse_module
from ..rtl.netlist import Module
from .coverage import CoverageOptions, CoverageReport, GapAnalysis, analyze_problem, find_coverage_gap
from .hole import CoverageHole, coverage_hole
from .primary import primary_coverage_check
from .spec import CoverageProblem

__all__ = ["SpecMatcher"]

FormulaLike = Union[Formula, str]
ModuleLike = Union[Module, str]


def _as_formula(value: FormulaLike) -> Formula:
    return parse(value) if isinstance(value, str) else value


def _as_module(value: ModuleLike) -> Module:
    return parse_module(value) if isinstance(value, str) else value


class SpecMatcher:
    """Design intent coverage with RTL blocks (the paper's tool, reimplemented)."""

    def __init__(self, name: str, options: Optional[CoverageOptions] = None):
        self.problem = CoverageProblem(name)
        self.options = options or CoverageOptions()

    # -- specification entry ---------------------------------------------------
    def add_architectural_property(self, formula: FormulaLike) -> "SpecMatcher":
        """Add a property of the architectural intent ``A``."""
        self.problem.add_architectural_property(_as_formula(formula))
        return self

    def add_rtl_property(self, formula: FormulaLike) -> "SpecMatcher":
        """Add a property of the RTL specification ``R``."""
        self.problem.add_rtl_property(_as_formula(formula))
        return self

    def add_rtl_properties(self, formulas: Sequence[FormulaLike]) -> "SpecMatcher":
        for formula in formulas:
            self.add_rtl_property(formula)
        return self

    def add_assumption(self, formula: FormulaLike) -> "SpecMatcher":
        """Add an environment assumption (fairness, input constraints)."""
        self.problem.add_assumption(_as_formula(formula))
        return self

    def add_concrete_module(self, module: ModuleLike) -> "SpecMatcher":
        """Add a concrete module (netlist object or HDL text)."""
        self.problem.add_concrete_module(_as_module(module))
        return self

    # -- queries -----------------------------------------------------------------
    def primary_coverage(self) -> EngineVerdict:
        """Theorem 1 only: is the architectural intent covered?

        Asked on the engine ``self.options`` selects, like :meth:`run`.
        """
        return primary_coverage_check(self.problem, options=self.options)

    def coverage_hole(self) -> CoverageHole:
        """Theorem 2: the exact (unreduced) coverage hole."""
        return coverage_hole(self.problem)

    def analyze_property(self, formula: FormulaLike) -> GapAnalysis:
        """Run Algorithm 1 for a single architectural property."""
        return find_coverage_gap(self.problem, _as_formula(formula), self.options)

    def run(self) -> CoverageReport:
        """Run the full pipeline on every architectural property."""
        return analyze_problem(self.problem, self.options)

    # -- convenience ----------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.problem.name

    def summary(self) -> str:
        return self.problem.summary()
