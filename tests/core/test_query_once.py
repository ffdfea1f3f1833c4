"""Algorithm 1 asks each distinct model-checking query once, and its reports stay put.

The witness enumeration's first query is the primary coverage question
itself, and verifying a reported gap property's closure is the query that
selected it.  Both are answered once: the enumeration starts from the
primary witness, and the closure verdict is reused.  Two spellings of one
weakened candidate share a canonical key (:func:`repro.ltl.rewrite.canonical`),
so they share one closure check and one set of implication checks.  The
pinned reports make a change in which witness a run finds show up as a
failure.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter

import pytest

import repro.core.weaken
from repro.core import CoverageOptions, collect_gap_witnesses, find_coverage_gap
from repro.core.primary import primary_coverage_check
from repro.designs import CATALOG
from repro.designs.random import RandomDesignSpec, random_problem
from repro.engines.coverage import CoverageEngine, engine_from_options
from repro.ltl.printer import to_str
from repro.obs import add_sink, remove_sink
from repro.runner.cache import query_key, using_result_cache

#: The reduced Algorithm-1 options of the benchmark's ``gap_analysis`` workload.
GAP_OPTIONS = dict(max_witnesses=2, unfold_depth=3, max_closure_checks=2, bmc_max_bound=6)
CELLS = [
    ("paper_example", "explicit"),
    ("paper_example", "bmc"),
    ("mal_fig4", "explicit"),
    ("mal_fig4", "bmc"),
]

_REPORT = """\
property: G (!wait & r1 & X (r1 U r2) -> X (!d2 U d1))
  NOT covered; coverage gap:
    G (!wait & (r1 & !g1) & X (r1 U r2) -> X (!d2 U d1))
      (strengthen instance 'r1' at offset 0 with !g1)
  gap closure verified: True"""
_BOUNDED = " (bounded: BMC engine, holds up to the bound only)"
_PREFIX = "!d1 & !d2 & r1 & {r2} & !wait & X !d1 & X !d2 & X {r1_1} & X r2 & X wait & X X !d1 & "
#: Each analysis's report, and the APA terms of its two witnesses (these
#: change when a different witness is found, even where the report does not).
EXPECTED = {
    ("paper_example", "explicit"): (_REPORT, [
        _PREFIX.format(r2="!r2", r1_1="!r1") + "X X !d2 & X X !r1 & X X !r2 & X X wait",
        _PREFIX.format(r2="!r2", r1_1="r1") + "X X !d2 & X X !r1 & X X !r2 & X X wait",
    ]),
    ("paper_example", "bmc"): (_REPORT + _BOUNDED, [
        # Both witnesses project onto this one APA term.
        _PREFIX.format(r2="r2", r1_1="!r1") + "X X d2 & X X r1 & X X r2 & X X wait",
    ]),
    ("mal_fig4", "explicit"): (_REPORT, [
        _PREFIX.format(r2="!r2", r1_1="!r1") + "X X d2 & X X !r1 & X X !r2 & X X wait",
        _PREFIX.format(r2="!r2", r1_1="!r1") + "X X d2 & X X !r1 & X X r2 & X X wait",
    ]),
    ("mal_fig4", "bmc"): (_REPORT + _BOUNDED, [
        _PREFIX.format(r2="r2", r1_1="!r1") + "X X d2 & X X r1 & X X !r2 & X X wait",
        _PREFIX.format(r2="r2", r1_1="!r1") + "X X d2 & X X r1 & X X r2 & X X wait",
    ]),
}


def _options(engine: str) -> CoverageOptions:
    return CoverageOptions(engine=engine, **GAP_OPTIONS)


@pytest.fixture(autouse=True)
def no_result_cache():
    """No result cache: a repeated query must reach the engine to be counted."""
    with using_result_cache(None):
        yield


@pytest.fixture
def decided(monkeypatch):
    """Result-cache keys of the queries the engines decide, in order."""
    keys = []
    original = CoverageEngine._instrumented_run

    def recording(self, problem):
        # The key CoverageEngine.find_run stores this query under.
        keys.append(query_key(
            "engine-run",
            problem.module,
            problem.formulas,
            engine=self.name,
            bound=self._cache_bound(),
            extra=problem.cache_extra() + self._cache_extra(),
        ))
        return original(self, problem)

    monkeypatch.setattr(CoverageEngine, "_instrumented_run", recording)
    return keys


@pytest.fixture
def calls(monkeypatch):
    """Closure checks and tableau implication checks an analysis makes."""
    counts = Counter()
    is_covered_with = CoverageEngine.is_covered_with
    ltl_implies = repro.core.weaken.ltl_implies

    def counted_closure(self, *args, **kwargs):
        counts["is_covered_with"] += 1
        return is_covered_with(self, *args, **kwargs)

    def counted_implication(antecedent, consequent):
        counts["ltl_implies"] += 1
        return ltl_implies(antecedent, consequent)

    monkeypatch.setattr(CoverageEngine, "is_covered_with", counted_closure)
    monkeypatch.setattr(repro.core.weaken, "ltl_implies", counted_implication)
    return counts


@pytest.fixture
def gap_search_attrs():
    """Attributes of each closed ``gap_search`` span."""
    attrs = []

    class Sink:
        def record(self, record):
            if record.name == "gap_search":
                attrs.append(record.attrs)

    sink = Sink()
    add_sink(sink)
    yield attrs
    remove_sink(sink)


@pytest.mark.parametrize("design,engine", CELLS)
def test_no_query_is_decided_twice_and_the_report_is_pinned(
    design, engine, decided, calls, gap_search_attrs
):
    problem = CATALOG[design].builder()
    analysis = find_coverage_gap(problem, problem.architectural[0], _options(engine))
    repeated = {key: n for key, n in Counter(decided).items() if n > 1}
    assert decided and not repeated, repeated
    # Both closure slots hold spellings of the reported property: one
    # closure check and the two implication checks of its first spelling
    # (2 and 6 when each spelling was asked on its own).
    assert calls == {"is_covered_with": 1, "ltl_implies": 2}
    assert [(a["closure_checks"], a["closure_reused"]) for a in gap_search_attrs] == [(1, 1)]
    report, apa_terms = EXPECTED[design, engine]
    assert analysis.describe() == report
    assert [to_str(term.to_formula()) for term in analysis.terms.architectural_terms] == apa_terms


@pytest.mark.parametrize("engine", ["explicit", "bmc"])
def test_exact_hole_report_shows_its_closure_check(engine):
    """random_s7_000 falls back to the exact hole; its closure was checked."""
    problem = random_problem(RandomDesignSpec(seed=7, index=0))
    analysis = find_coverage_gap(problem, problem.architectural[0], _options(engine))
    text = analysis.describe()
    assert "exact hole reported" in text
    assert "gap closure verified: True" in text


@pytest.mark.parametrize("engine", ["explicit", "bmc"])
def test_exact_hole_closure_runs_on_the_analysis_engine(engine, monkeypatch):
    """Every query of an analysis, the exact hole's closure checks included,
    runs on the one engine instance the analysis resolved (for bmc: on its
    pool of incremental solver sessions)."""
    problem = random_problem(RandomDesignSpec(seed=7, index=0))
    engines = []
    original = CoverageEngine._instrumented_run

    def recording(self, problem):
        engines.append(self)
        return original(self, problem)

    monkeypatch.setattr(CoverageEngine, "_instrumented_run", recording)
    analysis = find_coverage_gap(problem, problem.architectural[0], _options(engine))
    assert analysis.fallback_to_hole and analysis.gap_verified
    assert len({id(instance) for instance in engines}) == 1, engines


@pytest.mark.parametrize("design,engine", CELLS)
def test_seeded_enumeration_finds_the_unseeded_witnesses(design, engine):
    """Seeded with the primary witness, on the engine that found it (BMC's
    pooled solver then holds what asking the first query would leave)."""
    problem = CATALOG[design].builder()
    target = problem.architectural[0]
    options = _options(engine)
    seeded_engine = engine_from_options(options)
    primary = primary_coverage_check(problem, architectural=target, engine=seeded_engine)
    assert primary.witness is not None

    def enumerate_witnesses(engine, **seed):
        return collect_gap_witnesses(
            problem, architectural=target, max_witnesses=2, depth=3, engine=engine, **seed
        )

    unseeded = enumerate_witnesses(engine_from_options(options))
    assert len(unseeded) == 2
    assert unseeded[0] == primary.witness
    assert enumerate_witnesses(seeded_engine, first_witness=primary.witness) == unseeded


def test_seed_is_used_without_a_query_and_zero_witnesses_stay_zero(decided):
    problem = CATALOG["mal_fig4"].builder()
    target = problem.architectural[0]
    options = _options("explicit")
    witness = primary_coverage_check(problem, architectural=target, options=options).witness
    decided.clear()
    for count, expected in ((0, []), (1, [witness])):
        found = collect_gap_witnesses(
            problem, architectural=target, max_witnesses=count, depth=3,
            engine=engine_from_options(options), first_witness=witness,
        )
        assert found == expected
    assert decided == []


def test_gap_reports_identical_across_hash_seeds():
    """Formula hashes vary with PYTHONHASHSEED; the reports must not."""
    script = (
        "from repro.core import CoverageOptions, find_coverage_gap\n"
        "from repro.designs import CATALOG\n"
        "problem = CATALOG['mal_fig4'].builder()\n"
        "for engine in ('explicit', 'bmc'):\n"
        f"    options = CoverageOptions(engine=engine, **{GAP_OPTIONS!r})\n"
        "    analysis = find_coverage_gap(problem, problem.architectural[0], options)\n"
        "    print(analysis.describe())\n"
        "    print([str(term.to_formula()) for term in analysis.terms.terms])\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1, "gap reports depend on PYTHONHASHSEED"
