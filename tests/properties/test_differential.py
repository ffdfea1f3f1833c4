"""Property-based differential tests: decisions and engines must agree.

Seeded random inputs (never the global RNG) make every case reproducible; the
generators come from :mod:`repro.designs.random`, the same ones the coverage
suite shards, so a disagreement found here is a disagreement the suite would
hit in production.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import CATALOG
from repro.designs.random import RandomDesignSpec, random_boolexpr, random_module, random_problem
from repro.engines import get_engine
from repro.logic.bdd import BDDManager
from repro.logic.boolexpr import (
    FALSE,
    TRUE,
    and_,
    enumerate_equivalent,
    enumerate_is_contradiction,
    enumerate_is_tautology,
    expr_equivalent,
    is_contradiction,
    is_tautology,
    not_,
    or_,
    var,
)
from repro.sat.solver import solve
from repro.sat.tseitin import encode_constraint

NAMES = ("a", "b", "c", "d", "e", "f")
#: Catalog designs whose concrete modules drive combinational nets.
_DESIGNS_WITH_NETS = [
    name
    for name in sorted(CATALOG)
    if any(module.assigns for module in CATALOG[name].builder().concrete_modules)
]


def _cases(seed: int, count: int, depth: int = 3):
    rng = random.Random(seed)
    return [random_boolexpr(rng, NAMES, depth) for _ in range(count)]


class TestBackendAgreement:
    """The BDD-decided predicates, and the models the BDD and SAT stacks
    give, must match exhaustive enumeration."""

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_tautology_and_contradiction_match_enumeration(self, seed):
        for expr in _cases(seed, 120):
            assert is_tautology(expr) == enumerate_is_tautology(expr), expr
            assert is_contradiction(expr) == enumerate_is_contradiction(expr), expr

    @pytest.mark.parametrize("seed", [404, 505])
    def test_equivalent_matches_enumeration(self, seed):
        cases = _cases(seed, 120)
        for left, right in zip(cases[0::2], cases[1::2]):
            assert expr_equivalent(left, right) == enumerate_equivalent(left, right), (left, right)
            # Metamorphic check: x is always equivalent to !!x, never to !x.
            assert expr_equivalent(left, not_(not_(left)))
            assert not expr_equivalent(left, not_(left))

    @pytest.mark.parametrize("seed", [606, 707])
    def test_models_actually_satisfy(self, seed):
        """A model read off the BDD's paths, and one from the CDCL solver
        over the Tseitin encoding (the SAT stack BMC runs on), satisfies the
        expression, and either exists exactly when enumeration finds one."""
        for expr in _cases(seed, 80):
            satisfiable = not enumerate_is_contradiction(expr)
            function = BDDManager(sorted(expr.variables())).from_expr(expr)
            cube = next(function.satisfying_cubes(), None)
            result = solve(encode_constraint(expr))
            assert (cube is not None) == result.satisfiable == satisfiable, expr
            if not satisfiable:
                continue
            path_model = {name: False for name in expr.variables()}
            path_model.update(dict(cube))
            assert expr.evaluate(path_model), f"BDD path model does not satisfy {expr}"
            sat_model = {name: result.value(name) for name in expr.variables()}
            assert expr.evaluate(sat_model), f"SAT model does not satisfy {expr}"

    @pytest.mark.parametrize("design", _DESIGNS_WITH_NETS)
    def test_tm_folds_match_enumeration(self, design):
        """``T_M`` constant folding, the pipeline's one propositional
        decision, folds every net of the design, and a disguised tautology
        and contradiction over each, as the truth table says."""
        from repro.core.tm import _fold_constant

        cases = _fold_cases(CATALOG[design].builder().concrete_modules)
        expected = [_table_fold(expr) for expr in cases]
        assert [_fold_constant(expr) for expr in cases] == expected
        # Catalog nets are not constant: only the disguised cases fold.
        assert expected[0::3] == cases[0::3]
        assert set(expected[1::3]) == {TRUE} and set(expected[2::3]) == {FALSE}

    @pytest.mark.parametrize("seed", [1, 7, 11, 42, 1001, 5311])
    def test_random_design_folds_match_enumeration(self, seed):
        """The same check on the nets of default-size random designs, whose
        random net functions may themselves be constant."""
        from repro.core.tm import _fold_constant

        modules = [random_module(RandomDesignSpec(seed=seed, index=index)) for index in range(3)]
        cases = _fold_cases(modules)
        assert cases
        assert [_fold_constant(expr) for expr in cases] == [_table_fold(expr) for expr in cases]
        assert set(_fold_constant(expr) for expr in cases[1::3]) == {TRUE}
        assert set(_fold_constant(expr) for expr in cases[2::3]) == {FALSE}


def _fold_cases(modules):
    """Every net of ``modules``, each followed by a disguised tautology and a
    disguised contradiction over it."""
    cases = []
    for module in modules:
        for net in module.assigns.values():
            literal = var(sorted(net.variables())[0]) if net.variables() else TRUE
            cases += [
                net,
                or_(and_(net, literal), not_(net), not_(literal)),
                and_(or_(net, literal), not_(net), not_(literal)),
            ]
    return cases


def _table_fold(expr):
    """The constant fold decided by the truth table."""
    if not expr.variables():
        return expr
    if enumerate_is_tautology(expr):
        return TRUE
    if enumerate_is_contradiction(expr):
        return FALSE
    return expr


def _primary_verdicts(problem, engine_name: str, bound: int):
    engine = get_engine(engine_name, max_bound=bound)
    return [
        engine.check_primary(problem, architectural=target)
        for target in problem.architectural
    ]


class TestEngineAgreement:
    """Explicit MC vs bounded MC vs symbolic BDD fixpoint on random designs.

    On these tiny designs the BMC bound exceeds every witness lasso, so all
    three engines must return the *same* verdict, and disagreement in any
    direction is a bug: a BMC witness is a concrete run (so explicit must find
    one too), an explicit witness is a lasso short enough for the bound, and
    the symbolic fixpoint proves/refutes exactly the explicit product's
    emptiness.
    """

    @pytest.mark.parametrize("seed", [11, 23, 37, 53])
    def test_all_three_engines_agree_on_random_designs(self, seed):
        for index in range(3):
            problem = random_problem(RandomDesignSpec(seed=seed, index=index))
            explicit = _primary_verdicts(problem, "explicit", bound=12)
            bmc = _primary_verdicts(problem, "bmc", bound=12)
            symbolic = _primary_verdicts(problem, "symbolic", bound=12)
            for reference, bounded, fixpoint in zip(explicit, bmc, symbolic):
                assert reference.covered == bounded.covered == fixpoint.covered, (
                    f"engine disagreement on {problem.name}: "
                    f"explicit={reference.covered} bmc={bounded.covered} "
                    f"symbolic={fixpoint.covered}"
                )
                if not bounded.covered:
                    assert bounded.witness is not None
                if not fixpoint.covered:
                    # Symbolic witnesses are replayed on the simulator before
                    # they are reported; a missing one is an engine bug.
                    assert fixpoint.witness is not None
                    assert fixpoint.complete

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [71, 89])
    def test_agreement_on_larger_random_designs(self, seed):
        spec = RandomDesignSpec(
            seed=seed, index=0, inputs=3, registers=3, wires=2, rtl_properties=4
        )
        problem = random_problem(spec)
        explicit = _primary_verdicts(problem, "explicit", bound=16)
        bmc = _primary_verdicts(problem, "bmc", bound=16)
        for left, right in zip(explicit, bmc):
            assert left.covered == right.covered

    @pytest.mark.parametrize("seed", [11, 23])
    def test_witnesses_refute_the_intent(self, seed):
        """Any engine's witness must satisfy R and refute A on direct evaluation."""
        from repro.ltl.traces import evaluate

        for engine_name in ("explicit", "bmc", "symbolic"):
            for index in range(3):
                problem = random_problem(RandomDesignSpec(seed=seed, index=index))
                for target, verdict in zip(
                    problem.architectural,
                    _primary_verdicts(problem, engine_name, bound=12),
                ):
                    if verdict.covered or verdict.witness is None:
                        continue
                    assert not evaluate(target, verdict.witness)
                    for formula in problem.all_rtl_formulas():
                        assert evaluate(formula, verdict.witness)
