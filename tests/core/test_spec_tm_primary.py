"""Tests for the specification container, the T_M construction and Theorem 1."""

import pytest

from repro.core import (
    CoverageProblem,
    SpecificationError,
    build_tm,
    build_tm_for_modules,
    boolexpr_to_formula,
    primary_coverage_check,
)
from repro.designs import build_cache_logic, build_masking_glue_fig2, expected_gap_property, expected_tm_shape
from repro.engines import get_engine
from repro.logic.boolexpr import and_, not_, or_, var
from repro.ltl import equivalent, evaluate, parse
from repro.mc import check
from repro.rtl import Module


class TestCoverageProblem:
    def test_alphabets(self, mal_covered_problem):
        problem = mal_covered_problem
        assert problem.apa == frozenset({"wait", "r1", "r2", "d1", "d2"})
        assert problem.apa <= problem.apr
        assert "hit" in problem.apr
        # Internal pending bits are not part of APR.
        assert "p1" in problem.internal_signals

    def test_assumption1_validation(self):
        problem = CoverageProblem("bad")
        problem.add_architectural_property(parse("G(secret -> F out)"))
        problem.add_rtl_property(parse("G(a -> X out)"))
        module = Module("m")
        module.add_input("a")
        module.add_output("out")
        module.add_assign("out", var("a"))
        problem.add_concrete_module(module)
        with pytest.raises(SpecificationError):
            problem.validate()
        problem.validate(require_assumption1=False)

    def test_validation_requires_architectural_intent(self):
        problem = CoverageProblem("empty")
        with pytest.raises(SpecificationError):
            problem.validate()

    def test_composed_module_requires_concrete_modules(self):
        problem = CoverageProblem("no-rtl")
        problem.add_architectural_property(parse("G p"))
        problem.add_rtl_property(parse("G p"))
        with pytest.raises(SpecificationError):
            problem.composed_module()

    def test_counts_and_summary(self, mal_covered_problem):
        assert mal_covered_problem.rtl_property_count == 4  # 3 arbiter + 1 assumption
        assert "CoverageProblem" in mal_covered_problem.summary()


class TestTM:
    def test_boolexpr_to_formula(self):
        expr = or_(and_(var("a"), not_(var("b"))), var("c"))
        formula = boolexpr_to_formula(expr)
        assert equivalent(formula, parse("(a & !b) | c"))

    def test_simple_latch_tm_matches_example3(self, simple_latch):
        result = build_tm(simple_latch)
        assert not result.combinational
        assert result.fsm is not None and result.fsm.state_count() == 2
        assert equivalent(result.formula, expected_tm_shape())

    def test_combinational_tm_is_g_of_relation(self):
        glue = build_masking_glue_fig2()
        result = build_tm(glue)
        assert result.combinational
        assert equivalent(
            result.formula,
            parse("G(g1 <-> (n1 & !busy)) & G(g2 <-> (n2 & !busy))"),
        )

    def test_tm_exactly_characterises_the_module_runs(self, simple_latch):
        # Soundness: every run of the module satisfies T_M.
        result = build_tm(simple_latch)
        assert check(simple_latch, result.formula).holds
        # Exactness: T_M forbids behaviours the module cannot produce.
        bogus = parse("!c & X c & !(a & b)")  # c rises without a & b
        from repro.ltl import is_satisfiable, conj

        assert not is_satisfiable(conj(result.formula, bogus))

    def test_semantically_constant_nets_fold_to_constants(self):
        # A net function that is a contradiction (or tautology) in disguise
        # must fold to G(net <-> false) / G(net <-> true) instead of
        # dragging the full syntactic expression into T_M.
        module = Module("fold")
        module.add_input("x")
        module.add_input("y")
        module.add_output("never")
        module.add_output("always")
        module.add_assign("never", and_(or_(var("x"), var("y")), not_(var("x")), not_(var("y"))))
        # A tautology that does not constant-fold at construction time.
        module.add_assign("always", or_(var("x"), not_(and_(var("x"), var("y")))))
        result = build_tm(module)
        assert result.combinational
        assert equivalent(result.formula, parse("G(!never) & G(always)"))

    def test_tm_is_the_same_under_every_hash_seed(self):
        """Minimised guards list their cubes in a fixed order, so ``T_M`` (and
        every result-cache key built from it) does not vary by process."""
        import os
        import subprocess
        import sys

        # telemetry_bank is left out: its T_M is an Or chain too deep for the
        # recursive fingerprint.
        script = (
            "from repro.core import coverage_hole\n"
            "from repro.designs import CATALOG, build_mal_with_gap\n"
            "from repro.runner.cache import formula_fingerprint\n"
            "problems = [build_mal_with_gap()] + [\n"
            "    CATALOG[name].builder() for name in sorted(CATALOG) if name != 'telemetry_bank'\n"
            "]\n"
            "for problem in problems:\n"
            "    print(problem.name, formula_fingerprint(coverage_hole(problem).tm_formula))\n"
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
        assert len(outputs) == 1, "T_M depends on PYTHONHASHSEED"

    def test_tm_for_modules_conjunction(self):
        formula, results, elapsed = build_tm_for_modules(
            [build_masking_glue_fig2(), build_cache_logic()]
        )
        assert len(results) == 2
        assert elapsed >= 0
        from repro.ltl import conjuncts

        assert len(conjuncts(formula)) >= 2


class TestPrimaryCoverage:
    def test_mal_fig2_is_covered(self, mal_covered_problem):
        result = primary_coverage_check(mal_covered_problem)
        assert result.covered
        assert result.witness is None
        assert result.elapsed_seconds > 0

    def test_mal_fig4_is_not_covered(self, mal_gap_problem):
        result = primary_coverage_check(mal_gap_problem)
        assert not result.covered
        assert result.witness is not None
        # The witness satisfies every RTL property but violates the intent.
        for formula in mal_gap_problem.all_rtl_formulas():
            assert evaluate(formula, result.witness)
        assert not evaluate(mal_gap_problem.architectural_conjunction(), result.witness)

    def test_expected_gap_property_closes_the_fig4_gap(self, mal_gap_problem):
        engine = get_engine("explicit")
        assert engine.is_covered_with(mal_gap_problem, [expected_gap_property()])

    def test_architectural_property_itself_closes_the_gap(self, mal_gap_problem):
        engine = get_engine("explicit")
        assert engine.is_covered_with(mal_gap_problem, [mal_gap_problem.architectural[0]])

    def test_unrelated_property_does_not_close_the_gap(self, mal_gap_problem):
        engine = get_engine("explicit")
        assert not engine.is_covered_with(mal_gap_problem, [parse("G(d2 -> hit)")])
