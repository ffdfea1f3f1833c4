"""Tests for the built-in design library and the catalog."""

import pytest

from repro.core import primary_coverage_check
from repro.designs import (
    CATALOG,
    architectural_granted_master1,
    architectural_granted_master2,
    amba_rtl_properties,
    build_arbiter,
    build_cache_logic,
    build_full_mal_fig2,
    build_full_mal_fig4,
    build_mal,
    build_mal_table1,
    build_mal_with_gap,
    build_paper_example,
    build_pipeline_controller,
    build_pipeline_problem,
    design_names,
    expected_gap_property_master2,
    get_design,
    mal_rtl_properties,
    pipeline_rtl_properties,
    table1_designs,
)
from repro.ltl import evaluate, parse
from repro.mc import check
from repro.rtl import Stimulus, simulate


class TestMALDesign:
    def test_cache_logic_basic_behaviour(self):
        cache = build_cache_logic()
        assert check(cache, parse("G(d1 -> hit)")).holds
        assert check(cache, parse("G(g1 & !hit -> X wait)")).holds
        assert check(cache, parse("G(g1 & hit -> d1)")).holds
        # A pending miss is eventually served once hit arrives and the port is free.
        assert check(cache, parse("G((g1 & !hit) -> X(!g1 & !g2 & hit -> d1))")).holds

    def test_full_designs_simulate(self):
        for builder in (build_full_mal_fig2, build_full_mal_fig4):
            design = builder()
            trace = simulate(design, Stimulus.from_vectors(r1=[1, 0], r2=[0, 1], hit=[0, 1, 1]), 5)
            assert len(trace) == 5

    def test_property_counts_match_table1(self):
        assert len(mal_rtl_properties()) == 26
        assert build_mal_table1().rtl_property_count == 27  # 26 + 1 assumption
        assert build_paper_example().rtl_property_count == 3  # 2 + 1 assumption
        assert len(amba_rtl_properties()) == 29
        assert len(pipeline_rtl_properties()) == 12

    def test_mal_table1_padding_preserves_gap(self):
        # The padded 26-property specification must not change the verdict:
        # the Figure 4 wiring still has a coverage gap.
        assert not primary_coverage_check(build_mal_table1()).covered

    def test_mal_fig2_vs_fig4_verdicts(self):
        assert primary_coverage_check(build_mal()).covered
        assert not primary_coverage_check(build_mal_with_gap()).covered

    def test_paper_example_has_gap(self):
        assert not primary_coverage_check(build_paper_example()).covered


class TestAMBADesign:
    def test_arbiter_priority_and_mutual_exclusion(self):
        arbiter = build_arbiter()
        assert check(arbiter, parse("G(!(hgrant1 & hgrant2))")).holds
        assert check(arbiter, parse("G(hready & hbusreq1 -> X hgrant1)")).holds
        assert check(arbiter, parse("G(hready & hbusreq2 & !hbusreq1 -> X hgrant2)")).holds
        assert check(arbiter, parse("G(!hready -> (X hgrant1 <-> hgrant1))")).holds
        assert check(arbiter, parse("hgrant1 & !hgrant2")).holds

    def test_rtl_properties_hold_on_arbiter(self):
        # Arbiter-interface properties are sound w.r.t. the arbiter RTL (the
        # master/slave properties and the boundary-liveness restatements
        # constrain free signals, not the arbiter itself).
        arbiter = build_arbiter()
        for formula in amba_rtl_properties()[8:-2]:
            result = check(arbiter, formula)
            assert result.holds, f"arbiter property violated: {formula}"

    def test_master1_liveness_covered_master2_not(self, amba_problem):
        covered = primary_coverage_check(amba_problem, architectural=architectural_granted_master1())
        starving = primary_coverage_check(amba_problem, architectural=architectural_granted_master2())
        assert covered.covered
        assert not starving.covered
        # The witness is a genuine starvation scenario: master 1 keeps requesting.
        witness = starving.witness
        assert evaluate(parse("F G !hgrant2"), witness)

    def test_expected_gap_property_closes_starvation_gap(self, amba_problem):
        from repro.engines import get_engine

        assert get_engine("explicit").is_covered_with(
            amba_problem,
            [expected_gap_property_master2()],
            architectural=architectural_granted_master2(),
        )


class TestPipelineDesign:
    def test_controller_basic_flow(self):
        controller = build_pipeline_controller()
        assert check(controller, parse("G(done -> v2)")).holds
        assert check(controller, parse("G(done -> accept)")).holds
        assert check(controller, parse("!v1 & !v2")).holds

    def test_completion_covered(self, pipeline_problem):
        assert primary_coverage_check(pipeline_problem).covered

    def test_completion_not_covered_without_fairness(self):
        problem = build_pipeline_problem()
        problem.rtl_properties = [
            formula for formula in problem.rtl_properties if "F" not in str(formula)
        ]
        assert not primary_coverage_check(problem).covered


class TestCatalog:
    def test_catalog_names(self):
        assert set(design_names()) == set(CATALOG)
        assert "mal_fig2" in design_names()
        with pytest.raises(KeyError):
            get_design("nonexistent")

    def test_table1_rows_in_paper_order(self):
        rows = table1_designs()
        assert [entry.table1_row for entry in rows] == [
            "Memory Arb. Logic",
            "Intel Design",
            "ARM AMBA AHB",
            "Paper Ex. (Fig 1)",
        ]

    def test_expected_verdicts_match_primary_check(self):
        for name in ("mal_fig2", "intel_like"):
            entry = get_design(name)
            assert primary_coverage_check(entry.builder()).covered == entry.expected_covered
