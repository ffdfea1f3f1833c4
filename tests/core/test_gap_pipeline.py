"""Tests for the gap-finding pipeline: terms, push, weaken, Algorithm 1."""

import pytest

from repro.core import (
    CoverageOptions,
    analyze_problem,
    apply_weakening,
    atom_instance_table,
    collect_gap_witnesses,
    find_coverage_gap,
    format_report,
    format_table1,
    generate_candidates,
    push_terms,
    render_push,
    select_weakest,
    uncovered_terms,
)
from repro.core.push import WeakeningSuggestion
from repro.core.weaken import MAX_CANDIDATES
from repro.designs import expected_gap_property
from repro.ltl import TemporalTerm, equivalent, evaluate, implies, parse


class TestTermExtraction:
    def test_witnesses_are_distinct_gap_runs(self, mal_gap_problem):
        witnesses = collect_gap_witnesses(mal_gap_problem, max_witnesses=2, depth=4)
        assert 1 <= len(witnesses) <= 2
        intent = mal_gap_problem.architectural[0]
        for witness in witnesses:
            assert not evaluate(intent, witness)

    def test_uncovered_terms_project_alphabets(self, mal_gap_problem):
        result = uncovered_terms(mal_gap_problem, max_witnesses=2, depth=4)
        assert not result.is_empty()
        apr = mal_gap_problem.apr
        apa = mal_gap_problem.apa
        for term in result.terms:
            assert term.signals() <= apr
        for term in result.architectural_terms:
            assert term.signals() <= apa

    def test_covered_problem_has_no_witnesses(self, mal_covered_problem):
        witnesses = collect_gap_witnesses(mal_covered_problem, max_witnesses=2, depth=4)
        assert witnesses == []


class TestPush:
    def test_instance_table_of_paper_property(self):
        intent = parse("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))")
        instances = atom_instance_table(intent)
        names = [instance.name for instance in instances]
        assert names.count("r1") == 2
        # r2 sits inside the until (unbounded) at nominal offset 1, antecedent polarity.
        r2 = next(i for i in instances if i.name == "r2")
        assert r2.min_offset == 1
        assert r2.under_unbounded
        assert r2.polarity < 0
        # d1 is in the consequent with positive polarity.
        d1 = next(i for i in instances if i.name == "d1")
        assert d1.polarity > 0
        assert d1.under_unbounded

    def test_push_matches_and_new_literals(self):
        intent = parse("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))")
        term = TemporalTerm([{"r1": True, "wait": False}, {"r2": True, "hit": False}])
        result = push_terms(intent, [term])
        matched_names = {name for literals in result.matched.values() for _, name, _ in literals}
        assert {"r1", "wait", "r2"} <= matched_names
        assert (1, "hit", False) in result.new_literals
        # The new literal must generate at least one suggestion anchored at an
        # instance inside the unbounded until (the paper's target).
        assert any(
            s.literal_name == "hit" and s.instance.under_unbounded for s in result.suggestions
        )
        rendering = render_push(result)
        assert "hit" in rendering and "weakening suggestions" in rendering


class TestWeaken:
    def test_apply_weakening_antecedent(self):
        intent = parse("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))")
        instances = atom_instance_table(intent)
        r2 = next(i for i in instances if i.name == "r2")
        suggestion = WeakeningSuggestion(r2, "hit", False, 0)
        weakened = apply_weakening(intent, suggestion)
        assert equivalent(weakened, expected_gap_property())
        assert implies(intent, weakened)

    def test_apply_weakening_consequent_uses_disjunction(self):
        intent = parse("G(req -> F grant)")
        instances = atom_instance_table(intent)
        grant = next(i for i in instances if i.name == "grant")
        suggestion = WeakeningSuggestion(grant, "busy", True, 0)
        weakened = apply_weakening(intent, suggestion)
        assert equivalent(weakened, parse("G(req -> F (grant | busy))"))
        assert implies(intent, weakened)

    def test_generate_candidates_includes_both_polarities(self):
        intent = parse("G(req -> F grant)")
        instances = atom_instance_table(intent)
        grant = next(i for i in instances if i.name == "grant")
        suggestion = WeakeningSuggestion(grant, "busy", True, 0)
        candidates = generate_candidates(intent, [suggestion])
        texts = {str(c.formula) for c in candidates}
        assert len(candidates) == 2
        assert any("busy" in text for text in texts)

    def test_select_weakest_prefers_weaker_closing_candidate(self):
        intent = parse("G(req -> F grant)")
        instances = atom_instance_table(intent)
        grant = next(i for i in instances if i.name == "grant")
        req = next(i for i in instances if i.name == "req")
        weaker = generate_candidates(intent, [WeakeningSuggestion(grant, "other", True, 0)])
        stronger_like = generate_candidates(intent, [WeakeningSuggestion(req, "other", True, 0)])
        chosen = select_weakest(intent, weaker + stronger_like, closes_gap=lambda f: True)
        # Everything "closes"; only the maximally weak ones must survive.
        for candidate in chosen:
            assert implies(intent, candidate.formula)
            assert not equivalent(candidate.formula, intent)

    def test_generate_candidates_stops_at_max_candidates(self):
        intent = parse("G(req -> F grant)")
        grant = next(i for i in atom_instance_table(intent) if i.name == "grant")
        suggestions = [WeakeningSuggestion(grant, f"s{k}", True, 0) for k in range(30)]
        candidates = generate_candidates(intent, suggestions)
        # 60 distinct candidates exist (both polarities of 30 literals).
        assert MAX_CANDIDATES == 48
        assert len(candidates) == MAX_CANDIDATES
        assert len({c.formula for c in candidates}) == MAX_CANDIDATES

    def test_select_weakest_reports_as_many_as_the_options_default(self):
        intent = parse("G(req -> F grant)")
        grant = next(i for i in atom_instance_table(intent) if i.name == "grant")
        # Five pairwise-incomparable weakenings, all closing.
        candidates = generate_candidates(
            intent, [WeakeningSuggestion(grant, f"s{k}", True, 0) for k in range(5)]
        )[0::2]
        assert len(candidates) == 5
        chosen = select_weakest(intent, candidates, closes_gap=lambda f: True)
        assert len(chosen) == CoverageOptions().max_reported_gaps == 3
        assert chosen == candidates[:3]

    def test_select_weakest_asks_each_implication_once(self, monkeypatch):
        import repro.core.weaken as weaken

        asked = []

        def recording(antecedent, consequent):
            asked.append((antecedent, consequent))
            return implies(antecedent, consequent)

        monkeypatch.setattr(weaken, "ltl_implies", recording)
        intent = parse("G(req -> F grant)")
        grant = next(i for i in atom_instance_table(intent) if i.name == "grant")
        candidates = generate_candidates(
            intent, [WeakeningSuggestion(grant, f"s{k}", True, 0) for k in range(3)]
        )
        chosen = select_weakest(intent, candidates, closes_gap=lambda f: True)
        assert chosen
        # The dominance and dedup loops meet pairs the filter already asked.
        assert len(asked) == len(set(asked))
        assert len(asked) > 2 * len(candidates)


class TestOptions:
    def test_coverage_options_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(CoverageOptions)] == [
            "max_witnesses",
            "unfold_depth",
            "max_closure_checks",
            "max_reported_gaps",
            "engine",
            "bmc_max_bound",
        ]


class TestAlgorithm1:
    @pytest.mark.slow
    def test_amba_starvation_gap_analysis(self, amba_problem, fast_options):
        target = amba_problem.architectural[1]  # G(hbusreq2 -> F hgrant2)
        analysis = find_coverage_gap(amba_problem, target, fast_options)
        assert not analysis.covered
        assert analysis.terms is not None and analysis.terms.witnesses
        if analysis.gap_properties:
            assert analysis.gap_verified
            for candidate in analysis.gap_properties:
                assert implies(target, candidate.formula)
                assert not equivalent(candidate.formula, target)
        else:
            # Fallback: the exact hole must still close the gap.
            assert analysis.fallback_to_hole

    def test_covered_property_short_circuits(self, amba_problem, fast_options):
        target = amba_problem.architectural[0]
        analysis = find_coverage_gap(amba_problem, target, fast_options)
        assert analysis.covered
        assert analysis.gap_properties == []
        assert analysis.gap_seconds == 0.0

    @pytest.mark.slow
    def test_report_rendering(self, amba_problem, fast_options):
        report = analyze_problem(amba_problem, fast_options)
        assert report.rtl_property_count == 29
        assert not report.covered
        text = format_report(report)
        assert "SpecMatcher report" in text
        assert "gap finding" in text
        row = report.table1_row()
        assert row["circuit"] == amba_problem.name
        assert row["rtl_properties"] == 29
        table = format_table1([row])
        assert "ARM AMBA AHB" in table
