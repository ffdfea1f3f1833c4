"""Figure 4 / Example 2: the re-wired MAL has a coverage gap.

Benchmarks (a) the primary coverage question, which must report *not covered*
with a genuine witness run, and (b) the closure check of the reference gap
property — together these reproduce the qualitative content of Example 2.
"""

from repro.core import primary_coverage_check
from repro.designs import build_mal_with_gap, expected_gap_property
from repro.engines import get_engine
from repro.ltl import evaluate, implies


def test_fig4_primary_coverage_gap(benchmark):
    problem = build_mal_with_gap()
    result = benchmark(lambda: primary_coverage_check(problem))
    assert not result.covered
    witness = result.witness
    assert witness is not None
    # The witness is a real gap scenario: RTL spec satisfied, intent refuted.
    for formula in problem.all_rtl_formulas():
        assert evaluate(formula, witness)
    assert not evaluate(problem.architectural[0], witness)


def test_fig4_reference_gap_property_closes(benchmark):
    problem = build_mal_with_gap()
    gap = expected_gap_property()
    assert implies(problem.architectural[0], gap)
    engine = get_engine("explicit")
    closed = benchmark.pedantic(
        lambda: engine.is_covered_with(problem, [gap]), rounds=1, iterations=1
    )
    assert closed
