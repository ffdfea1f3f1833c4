"""Tests for report formatting helpers."""

from repro.core import (
    CoverageReport,
    GapAnalysis,
    format_gap_analysis,
    format_report,
    format_table1,
)
from repro.engines import EngineVerdict
from repro.ltl import parse


def _covered_analysis():
    formula = parse("G(a -> F b)")
    primary = EngineVerdict(problem_name="demo", engine="explicit", covered=True, complete=True)
    return GapAnalysis(
        property_formula=formula,
        covered=True,
        primary=primary,
        tm_seconds=0.01,
        primary_seconds=0.02,
    )


def test_format_gap_analysis_covered():
    text = format_gap_analysis(_covered_analysis())
    assert "covered by the RTL specification" in text
    assert "G (a -> F b)" in text


def test_format_report_and_table():
    report = CoverageReport(problem_name="demo", rtl_property_count=5)
    report.analyses.append(_covered_analysis())
    report.primary_seconds = 0.02
    report.tm_seconds = 0.01
    text = format_report(report)
    assert "SpecMatcher report: demo" in text
    assert "RTL properties           : 5" in text
    assert report.covered

    row = report.table1_row()
    assert row == {
        "circuit": "demo",
        "rtl_properties": 5,
        "primary_coverage_seconds": 0.02,
        "tm_building_seconds": 0.01,
        "gap_finding_seconds": 0.0,
    }
    table = format_table1([row])
    assert "Circuit" in table and "demo" in table


def test_format_table1_alignment_multiple_rows():
    rows = [
        {"circuit": "a", "rtl_properties": 1, "primary_coverage_seconds": 0.1,
         "tm_building_seconds": 0.2, "gap_finding_seconds": 0.3},
        {"circuit": "a-very-long-design-name", "rtl_properties": 29,
         "primary_coverage_seconds": 10.0, "tm_building_seconds": 9.0,
         "gap_finding_seconds": 22.0},
    ]
    table = format_table1(rows)
    lines = table.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines[2:])) <= 2
