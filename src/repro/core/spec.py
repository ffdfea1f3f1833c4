"""Specification containers for the intent-coverage problem.

The paper's Section 2 sets up the problem as:

* an **architectural intent** ``A`` — a set of properties over the module
  ``M``'s interface (alphabet ``APA``),
* an **RTL specification** made of two parts: a set of properties ``R`` over
  some sub-modules (alphabet ``APR``) and the RTL of the remaining
  sub-modules (the *concrete modules*),
* **Assumption 1**: ``APA ⊆ APR`` (lower levels of the hierarchy inherit the
  interface signal names).

:class:`CoverageProblem` bundles these, computes the alphabets, validates
Assumption 1 and exposes the composed concrete model used by every
model-relative check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from ..ltl.ast import Formula, atoms_of, conj
from ..rtl.elaborate import compose
from ..rtl.netlist import Module

__all__ = ["CoverageProblem", "SpecificationError"]


class SpecificationError(ValueError):
    """Raised when a coverage problem is malformed (e.g. Assumption 1 fails)."""


@dataclass
class CoverageProblem:
    """An instance of the (new) design intent coverage problem.

    Parameters
    ----------
    name:
        Human-readable design name (used in reports and benchmark tables).
    architectural:
        The architectural intent ``A`` — one or more properties to cover.
    rtl_properties:
        The property part ``R`` of the RTL specification (properties of the
        sub-modules for which no RTL is supplied, e.g. the priority arbiter
        ``PrA`` in the paper's example).
    concrete_modules:
        The RTL part of the specification: glue logic and pre-verified blocks
        given as netlists (``M1`` and ``L1`` in the example).
    assumptions:
        Environment/fairness assumptions (e.g. "a cache lookup eventually
        hits").  They are treated exactly like RTL properties in every check
        but reported separately.
    """

    name: str
    architectural: List[Formula] = field(default_factory=list)
    rtl_properties: List[Formula] = field(default_factory=list)
    concrete_modules: List[Module] = field(default_factory=list)
    assumptions: List[Formula] = field(default_factory=list)
    _composed: Optional[Module] = field(default=None, repr=False, compare=False)

    # -- construction helpers -------------------------------------------------
    def add_architectural_property(self, formula: Formula) -> "CoverageProblem":
        self.architectural.append(formula)
        return self

    def add_rtl_property(self, formula: Formula) -> "CoverageProblem":
        self.rtl_properties.append(formula)
        return self

    def add_concrete_module(self, module: Module) -> "CoverageProblem":
        self.concrete_modules.append(module)
        self._composed = None
        return self

    def add_assumption(self, formula: Formula) -> "CoverageProblem":
        self.assumptions.append(formula)
        return self

    # -- alphabets ------------------------------------------------------------
    @property
    def apa(self) -> FrozenSet[str]:
        """``APA``: the signals the architectural intent is written over."""
        names: set = set()
        for formula in self.architectural:
            names |= set(atoms_of(formula))
        return frozenset(names)

    @property
    def apr(self) -> FrozenSet[str]:
        """``APR``: signals of the RTL properties plus the concrete modules' interfaces."""
        names: set = set()
        for formula in self.rtl_properties + self.assumptions:
            names |= set(atoms_of(formula))
        for module in self.concrete_modules:
            names |= set(module.interface_signals())
        return frozenset(names)

    @property
    def internal_signals(self) -> FrozenSet[str]:
        """Signals of the concrete modules that are not part of ``APR``.

        These are the "local RTL variables" the paper abstracts away with
        quantification in Algorithm 1 step 2(b).
        """
        names: set = set()
        for module in self.concrete_modules:
            names |= set(module.signals())
        return frozenset(names) - self.apr

    # -- model ------------------------------------------------------------------
    def composed_module(self) -> Module:
        """The concrete modules composed into one flat netlist ``M``.

        The composition is memoized: the gap pipeline asks for it on every
        query, and re-composing (plus re-validating) per query was pure
        per-query overhead.  :meth:`add_concrete_module` invalidates it.
        """
        if self._composed is not None:
            return self._composed
        if not self.concrete_modules:
            raise SpecificationError(
                f"coverage problem {self.name!r} has no concrete modules; "
                "use the pure intent-coverage flow (properties only) instead"
            )
        if len(self.concrete_modules) == 1:
            module = self.concrete_modules[0]
            module.validate(allow_undriven=True)
        else:
            module = compose(self.concrete_modules, name=f"{self.name}_concrete")
        self._composed = module
        return module

    def has_concrete_modules(self) -> bool:
        return bool(self.concrete_modules)

    # -- formulas -------------------------------------------------------------------
    def architectural_conjunction(self) -> Formula:
        """``A`` as a single conjunction."""
        return conj(*self.architectural)

    def rtl_conjunction(self) -> Formula:
        """``R`` with the assumptions as a single conjunction."""
        return conj(*self.all_rtl_formulas())

    def all_rtl_formulas(self) -> List[Formula]:
        """RTL properties and assumptions as a flat list (order preserved)."""
        return list(self.rtl_properties) + list(self.assumptions)

    @property
    def rtl_property_count(self) -> int:
        """Number of RTL properties (the "No. of RTL properties" column of Table 1)."""
        return len(self.rtl_properties) + len(self.assumptions)

    # -- validation --------------------------------------------------------------------
    def validate(self, *, require_assumption1: bool = True) -> None:
        """Check the problem is well-formed.

        Raises :class:`SpecificationError` when there is no architectural
        property, or when Assumption 1 (``APA ⊆ APR``) fails and
        ``require_assumption1`` is set.
        """
        if not self.architectural:
            raise SpecificationError(f"coverage problem {self.name!r} has no architectural intent")
        if not self.rtl_properties and not self.concrete_modules:
            raise SpecificationError(
                f"coverage problem {self.name!r} has neither RTL properties nor concrete modules"
            )
        if require_assumption1:
            missing = self.apa - self.apr
            if missing:
                raise SpecificationError(
                    f"Assumption 1 violated for {self.name!r}: architectural signals "
                    f"{sorted(missing)} do not appear in the RTL specification"
                )
        for module in self.concrete_modules:
            module.validate(allow_undriven=True)

    def summary(self) -> str:
        return (
            f"CoverageProblem({self.name}): {len(self.architectural)} architectural, "
            f"{len(self.rtl_properties)} RTL properties, {len(self.assumptions)} assumptions, "
            f"{len(self.concrete_modules)} concrete modules"
        )
