"""repro — design intent coverage with concrete RTL blocks (SpecMatcher).

A from-scratch Python reproduction of

    S. Das, P. Basu, P. Dasgupta, P. P. Chakrabarti,
    "What lies between design intent coverage and model checking?",
    DATE 2006.

The package layers are:

* :mod:`repro.logic` — boolean expressions, cubes/covers, BDDs,
* :mod:`repro.ltl` — LTL formulas, parser, Büchi automata, decision procedures,
* :mod:`repro.sat` — CNF, Tseitin transformation and a CDCL SAT solver,
* :mod:`repro.rtl` — netlists, a tiny HDL, simulation, FSM extraction, Kripke
  structures,
* :mod:`repro.mc` — explicit-state LTL model checking,
* :mod:`repro.bmc` — SAT-based bounded model checking and k-induction,
* :mod:`repro.sva` — a bounded SVA property front-end desugaring to LTL,
* :mod:`repro.problem` — the compiled :class:`CoverageProblem` IR:
  cone-of-influence slice, memoized property automata, free/observed signal
  partition and structural fingerprint, built once per query shape and
  consumed by every engine,
* :mod:`repro.engines` — the coverage engines (explicit / bmc / symbolic /
  portfolio / auto) behind one string-keyed registry,
* :mod:`repro.core` — the paper's contribution: the intent-coverage problem,
  the ``T_M`` construction, the primary coverage question (Theorem 1), the
  coverage hole (Theorem 2), the gap-presentation Algorithm 1 and the
  spectrum baselines (pure intent coverage, full model checking),
* :mod:`repro.runner` — the batch coverage-suite subsystem: sharded parallel
  execution over a process pool plus a persistent structurally-keyed
  decision-result cache,
* :mod:`repro.designs` — the paper's example designs, the Table-1 suite and
  seeded random design/spec generators.

Quick start::

    from repro.designs import build_mal_with_gap
    from repro.core import analyze_problem

    report = analyze_problem(build_mal_with_gap())
    print(report.describe())
"""

from .ltl import parse, Formula, LassoTrace
from .rtl import Module, parse_module, compose, simulate, Stimulus
from .mc import check, find_run
from .problem import CompiledProblem, compile_problem
from .engines import get_engine
from .core import (
    CoverageProblem,
    CoverageOptions,
    CoverageReport,
    GapAnalysis,
    SpecMatcher,
    analyze_problem,
    find_coverage_gap,
    primary_coverage_check,
    coverage_hole,
    build_tm,
    format_report,
    format_table1,
)
from .runner import ResultCache, expand_jobs, run_suite, using_result_cache

__version__ = "1.0.0"

__all__ = [
    "parse",
    "Formula",
    "LassoTrace",
    "Module",
    "parse_module",
    "compose",
    "simulate",
    "Stimulus",
    "check",
    "find_run",
    "CompiledProblem",
    "compile_problem",
    "get_engine",
    "CoverageProblem",
    "CoverageOptions",
    "CoverageReport",
    "GapAnalysis",
    "SpecMatcher",
    "analyze_problem",
    "find_coverage_gap",
    "primary_coverage_check",
    "coverage_hole",
    "build_tm",
    "format_report",
    "format_table1",
    "ResultCache",
    "expand_jobs",
    "run_suite",
    "using_result_cache",
    "__version__",
]
