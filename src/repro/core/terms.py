"""Uncovered-term computation (Algorithm 1, steps 2(a) and 2(b)).

The coverage hole of Theorem 2 is exact but opaque.  The first step towards a
legible gap is to *unfold* it into bounded **uncovered terms**: finite
conjunctions of timed literals describing concrete scenarios that the RTL
specification admits but the architectural intent forbids (the paper's
``UM = { !r1 & X r2 & X X !hit & X d1, ... }``).

Two mechanisms are combined:

* **witness enumeration** — repeated existential model-checking queries
  (Theorem 1) produce distinct gap runs; each run's bounded prefix becomes a
  term.  New queries exclude the terms already found, so successive witnesses
  explore genuinely different scenarios.
* **quantification (step 2(b))** — the terms are projected onto ``APR``
  (dropping the concrete modules' internal signals, the paper's "local RTL
  variables") and, for the uncovered *architectural* intent, onto ``APA``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..engines.coverage import CoverageEngine, get_engine
from ..ltl.ast import Formula, Not
from ..ltl.traces import LassoTrace
from ..ltl.unfold import TemporalTerm, term_from_trace
from .spec import CoverageProblem

__all__ = ["UncoveredTerms", "collect_gap_witnesses", "uncovered_terms"]


@dataclass
class UncoveredTerms:
    """The result of the term-extraction phase."""

    witnesses: List[LassoTrace] = field(default_factory=list)
    terms: List[TemporalTerm] = field(default_factory=list)
    architectural_terms: List[TemporalTerm] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def is_empty(self) -> bool:
        return not self.terms


def collect_gap_witnesses(
    problem: CoverageProblem,
    *,
    architectural: Optional[Formula] = None,
    max_witnesses: int = 4,
    depth: int = 5,
    engine: Optional[CoverageEngine] = None,
    first_witness: Optional[LassoTrace] = None,
) -> List[LassoTrace]:
    """Enumerate distinct runs admitted by ``R`` + concrete modules but refuting ``A``.

    Each new query excludes the bounded prefixes of the witnesses found so
    far, so the enumeration keeps producing genuinely different scenarios
    until either no further run exists or ``max_witnesses`` is reached.
    The existential queries run on ``engine`` (any registered engine
    returns the same witness-lasso shape), or else on the explicit-state
    engine.

    ``first_witness`` is an answer to the first query, which has no
    exclusions and is therefore the primary coverage question itself.
    Algorithm 1 passes the witness its primary check found on the same
    ``engine``, so the enumeration only queries for the second and later
    witnesses, and finds the ones it would have found after asking the first
    query itself.  ``None`` asks the first query too.
    """
    engine = engine or get_engine("explicit")
    target = architectural if architectural is not None else problem.architectural_conjunction()
    base_formulas: List[Formula] = [Not(target)] + problem.all_rtl_formulas()
    module = problem.composed_module()
    apr = sorted(problem.apr)

    witnesses: List[LassoTrace] = []
    exclusions: List[Formula] = []
    while len(witnesses) < max_witnesses:
        if not witnesses and first_witness is not None:
            witness = first_witness
        else:
            # Witness prefixes are projected onto APR below; the compiled
            # problem must keep the whole alphabet observable even when the
            # query's formulas only read part of it (the cone-of-influence
            # slice would otherwise drop signals the terms need).
            result = engine.find_run(module, base_formulas + exclusions, observe=apr)
            if not result.satisfiable or result.witness is None:
                break
            witness = result.witness
        witnesses.append(witness)
        observed = term_from_trace(witness, depth, apr).strip_trailing_empty()
        if observed.is_trivial():
            break
        exclusions.append(Not(observed.to_formula()))
    return witnesses


def uncovered_terms(
    problem: CoverageProblem,
    *,
    architectural: Optional[Formula] = None,
    max_witnesses: int = 4,
    depth: int = 5,
    engine: Optional[CoverageEngine] = None,
    first_witness: Optional[LassoTrace] = None,
) -> UncoveredTerms:
    """Steps 2(a)+(b) of Algorithm 1: bounded uncovered terms over ``APR`` and ``APA``.

    ``engine`` and ``first_witness`` pass through to the witness
    enumeration (:func:`collect_gap_witnesses`).
    """
    start = time.perf_counter()
    witnesses = collect_gap_witnesses(
        problem,
        architectural=architectural,
        max_witnesses=max_witnesses,
        depth=depth,
        engine=engine,
        first_witness=first_witness,
    )
    apr = problem.apr
    apa = problem.apa
    terms: List[TemporalTerm] = []
    architectural_terms: List[TemporalTerm] = []
    for witness in witnesses:
        full_term = term_from_trace(witness, depth)
        term_apr = full_term.project(apr).strip_trailing_empty()
        term_apa = full_term.project(apa).strip_trailing_empty()
        if not term_apr.is_trivial() and term_apr not in terms:
            terms.append(term_apr)
        if not term_apa.is_trivial() and term_apa not in architectural_terms:
            architectural_terms.append(term_apa)
    return UncoveredTerms(
        witnesses=witnesses,
        terms=terms,
        architectural_terms=architectural_terms,
        elapsed_seconds=time.perf_counter() - start,
    )
