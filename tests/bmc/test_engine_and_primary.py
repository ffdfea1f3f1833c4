"""End-to-end BMC tests: engine search, cross-check with the explicit engine,
the primary coverage question on the BMC engine, and k-induction."""

import pytest

from repro.designs.mal import build_cache_logic, build_mal, build_mal_with_gap, build_paper_example
from repro.designs.simple_latch import build_simple_latch
from repro.logic.boolexpr import implies, not_, var
from repro.ltl.ast import Not
from repro.ltl.parser import parse
from repro.ltl.traces import evaluate
from repro.mc.modelcheck import check, find_run
from repro.rtl.netlist import Module
from repro.bmc.engine import bmc_free_atoms, find_run_bmc
from repro.bmc.incremental import BMCSession
from repro.bmc.induction import prove_invariant
from repro.engines import get_engine


def build_toggle() -> Module:
    module = Module("toggle")
    module.add_input("en")
    module.add_register("q", var("q") ^ var("en"), init=False)
    module.add_output("q")
    return module


class TestFindRunBMC:
    def test_witness_respects_the_module(self):
        # A run of the toggle where q eventually rises requires en to rise first.
        result = find_run_bmc(build_toggle(), [parse("F q")], max_bound=4)
        assert result.satisfiable
        trace = result.witness
        assert evaluate(parse("F q"), trace)
        rise = next(i for i in range(len(trace) + 2) if trace.value("q", i))
        assert trace.value("en", rise - 1) is True

    def test_module_constraints_exclude_impossible_runs(self):
        # q starts low and only changes when en is high: G(!en) & F q is impossible.
        result = find_run_bmc(build_toggle(), [parse("G !en"), parse("F q")], max_bound=5)
        assert not result.satisfiable

    def test_simple_latch_output_requires_both_inputs(self):
        latch = build_simple_latch()
        result = find_run_bmc(latch, [parse("F c")], max_bound=4)
        assert result.satisfiable
        trace = result.witness
        rise = next(i for i in range(len(trace) + 2) if trace.value("c", i))
        assert trace.value("a", rise - 1) and trace.value("b", rise - 1)

    def test_statistics_accumulate(self):
        # Unsatisfiable query: every bound is explored, one SAT call each.
        result = find_run_bmc(build_toggle(), [parse("G !en"), parse("F q")], max_bound=3)
        assert not result.satisfiable
        assert result.statistics.sat_calls == 4
        assert result.statistics.variables > 0
        assert "SAT calls" in result.summary()


class TestLinearSearch:
    """One SAT call per bound, and clauses per bound linear in the bound."""

    def test_covered_primary_query_asks_once_per_bound(self):
        verdict = get_engine("bmc", max_bound=12).check_primary(build_mal())
        assert verdict.covered
        assert verdict.statistics.sat_calls == 12 + 1

    def test_clauses_added_per_bound_grow_linearly(self):
        problem = build_mal()
        compiled = get_engine("bmc").compile(
            problem.composed_module(),
            [Not(problem.architectural_conjunction())] + problem.all_rtl_formulas(),
        )
        session = BMCSession(
            compiled.module,
            bmc_free_atoms(compiled.module, compiled.formulas, compiled.free_signals),
        )
        clauses = []
        for bound in range(13):
            result, _ = session.query(compiled.formulas, bound)
            assert not result.satisfiable
            clauses.append(session.unrolled.cnf.clause_count())
        added = {bound: clauses[bound] - clauses[bound - 1] for bound in (6, 12)}
        # Linear growth in k gives about 1.9 here; an encoding per (k, l)
        # lasso, quadratic in k, gives 4.45.
        assert added[12] <= 2.2 * added[6], added


class TestCheckBMC:
    """A universal check of ``p`` is a search for a run of ``Not(p)``."""

    def test_violated_property_yields_counterexample(self):
        result = find_run_bmc(build_toggle(), [Not(parse("G !q"))], max_bound=4)
        assert result.satisfiable
        assert evaluate(parse("F q"), result.witness)

    def test_property_with_assumption(self):
        # Under G(!en) the toggle never rises, so G !q has no counterexample.
        result = find_run_bmc(
            build_toggle(), [Not(parse("G !q")), parse("G !en")], max_bound=5
        )
        assert not result.satisfiable


class TestCrossCheckWithExplicitEngine:
    """The SAT-based and explicit-state engines must agree on small designs."""

    @pytest.mark.parametrize(
        "text",
        [
            "F c",
            "G !c",
            "G(c -> a)",        # false: c is registered from the previous cycle
            "G((a & b) -> X c)",
            "F G c",
            "G F c",
        ],
    )
    def test_simple_latch_existential_agreement(self, text):
        latch = build_simple_latch()
        formula = parse(text)
        explicit = find_run(latch, [formula])
        bounded = find_run_bmc(latch, [formula], max_bound=5)
        assert explicit.satisfiable == bounded.satisfiable

    @pytest.mark.parametrize(
        "text",
        [
            "G((a & b) -> X c)",
            "G(c -> !a)",
            "G F c",
        ],
    )
    def test_simple_latch_universal_agreement(self, text):
        latch = build_simple_latch()
        formula = parse(text)
        explicit = check(latch, formula)
        bounded = find_run_bmc(latch, [Not(formula)], max_bound=5)
        # A run of the negation (a counterexample) == explicit check failing.
        assert explicit.holds == (not bounded.satisfiable)

    def test_mal_glue_cache_agreement_on_gap_run(self):
        # The Figure 4 refuting scenario exists in the concrete modules alone.
        problem = build_mal_with_gap()
        module = problem.composed_module()
        formulas = [parse("!(G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1)))")]
        formulas += problem.all_rtl_formulas()
        explicit = find_run(module, formulas)
        bounded = find_run_bmc(module, formulas, max_bound=6)
        assert explicit.satisfiable
        assert bounded.satisfiable


class TestBMCPrimaryCoverage:
    """Theorem 1 on the BMC engine: a witness refutes, no witness is bounded."""

    def test_fig4_gap_found(self):
        verdict = get_engine("bmc", max_bound=6).check_primary(build_mal_with_gap())
        assert not verdict.covered
        # A refuting run is definitive even on the bounded engine.
        assert verdict.complete
        assert verdict.witness is not None
        assert "NOT covered" in verdict.summary()

    def test_fig2_covered_up_to_bound(self):
        verdict = get_engine("bmc", max_bound=4).check_primary(build_mal())
        # Covered up to the bound only: covered, but not a complete proof.
        assert verdict.covered and not verdict.complete
        assert verdict.bound == 4
        assert "covered up to bound 4" in verdict.summary()

    def test_paper_example_matches_explicit_verdict(self):
        problem = build_paper_example()
        explicit = get_engine("explicit").check_primary(problem)
        bounded = get_engine("bmc", max_bound=6).check_primary(problem)
        assert bounded.covered == explicit.covered
        if bounded.covered:
            assert not bounded.complete

    def test_witness_refutes_architectural_intent(self):
        problem = build_mal_with_gap()
        verdict = get_engine("bmc", max_bound=6).check_primary(problem)
        intent = problem.architectural_conjunction()
        assert not evaluate(intent, verdict.witness)
        for rtl_property in problem.all_rtl_formulas():
            assert evaluate(rtl_property, verdict.witness)


class TestKInduction:
    def test_mutual_exclusion_of_data_strobes(self):
        # The cache logic never answers both requesters in the same cycle.
        cache = build_cache_logic()
        result = prove_invariant(cache, parse("G !(d1 & d2)"), max_k=4)
        assert result.proved
        assert "proved" in result.summary()

    def test_violated_invariant_gives_reachable_counterexample(self):
        toggle = build_toggle()
        result = prove_invariant(toggle, parse("G !q"), max_k=4)
        assert result.violated
        assert result.counterexample is not None
        assert result.counterexample[-1]["q"] is True

    def test_combinational_module_invariant(self):
        glue = Module("and_glue")
        glue.add_input("a").add_input("b")
        glue.add_assign("y", var("a") & var("b"))
        glue.add_output("y")
        assert prove_invariant(glue, implies(var("y"), var("a")), max_k=2).proved
        assert prove_invariant(glue, implies(var("a"), var("y")), max_k=2).violated

    def test_boolexpr_and_formula_forms_agree(self):
        cache = build_cache_logic()
        formula_form = prove_invariant(cache, parse("G !(d1 & d2)"), max_k=4)
        expr_form = prove_invariant(cache, not_(var("d1") & var("d2")), max_k=4)
        assert formula_form.proved == expr_form.proved

    def test_temporal_formula_rejected(self):
        with pytest.raises(ValueError):
            prove_invariant(build_toggle(), parse("G F q"))

    def test_inconclusive_when_bound_too_small(self):
        # A 3-bit counter needs more than zero induction depth for this invariant.
        counter = Module("counter")
        bits = ["b0", "b1", "b2"]
        carry = None
        for name in bits:
            if carry is None:
                counter.add_register(name, not_(var(name)), init=False)
                carry = var(name)
            else:
                counter.add_register(name, var(name) ^ carry, init=False)
                carry = carry & var(name)
        counter.add_output("b2")
        # "the counter never reaches 7" is false but needs 7 steps to refute.
        result = prove_invariant(
            counter, not_(var("b0") & var("b1") & var("b2")), max_k=2
        )
        assert result.inconclusive or result.violated
