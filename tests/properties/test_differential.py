"""Property-based differential tests: backends and engines must agree.

Seeded random inputs (never the global RNG) make every case reproducible; the
generators come from :mod:`repro.designs.random`, the same ones the coverage
suite shards, so a disagreement found here is a disagreement the suite would
hit in production.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import CATALOG
from repro.designs.random import RandomDesignSpec, random_boolexpr, random_problem
from repro.engines import AutoBackend, BddBackend, SatBackend, TruthTableBackend, get_engine
from repro.logic.boolexpr import FALSE, TRUE, and_, not_, or_, var

BACKENDS = (TruthTableBackend(), BddBackend(), SatBackend())
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
    """table / bdd / sat must decide identically on random BoolExprs."""

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_is_sat_and_is_tautology_agree(self, seed):
        for expr in _cases(seed, 120):
            sat_votes = [backend.is_sat(expr) for backend in BACKENDS]
            taut_votes = [backend.is_tautology(expr) for backend in BACKENDS]
            assert len(set(sat_votes)) == 1, f"is_sat disagreement on {expr}"
            assert len(set(taut_votes)) == 1, f"is_tautology disagreement on {expr}"

    @pytest.mark.parametrize("seed", [404, 505])
    def test_equivalent_agrees(self, seed):
        cases = _cases(seed, 120)
        for left, right in zip(cases[0::2], cases[1::2]):
            votes = [backend.equivalent(left, right) for backend in BACKENDS]
            assert len(set(votes)) == 1, f"equivalent disagreement on {left} / {right}"
            # Metamorphic check: x is always equivalent to !!x, never to !x.
            assert all(backend.equivalent(left, not_(not_(left))) for backend in BACKENDS)
            negated = not_(left)
            assert not any(backend.equivalent(left, negated) for backend in BACKENDS)

    @pytest.mark.parametrize("seed", [606, 707])
    def test_models_actually_satisfy(self, seed):
        for expr in _cases(seed, 80):
            for backend in BACKENDS:
                model = backend.model(expr)
                if model is None:
                    assert not backend.is_sat(expr)
                else:
                    full = {name: False for name in expr.variables()}
                    full.update(model)
                    assert expr.evaluate(full), f"{backend.name} model does not satisfy {expr}"

    @pytest.mark.parametrize("design", _DESIGNS_WITH_NETS)
    def test_tm_folds_agree_across_backends(self, design, monkeypatch):
        """``T_M`` constant folding, the pipeline's one use of the
        propositional policy, folds every net of the design, and a disguised
        tautology and contradiction over each, the same under every delegate
        (the rest of ``T_M`` construction never asks a backend)."""
        from repro.core.tm import _fold_constant
        from repro.engines import prop

        cases, expected = [], []
        for module in CATALOG[design].builder().concrete_modules:
            for net in module.assigns.values():
                cases.append(net)
                expected.append(net)
                literal = var(sorted(net.variables())[0]) if net.variables() else TRUE
                cases += [
                    or_(and_(net, literal), not_(net), not_(literal)),
                    and_(or_(net, literal), not_(net), not_(literal)),
                ]
                expected += [TRUE, FALSE]
        # Catalog nets are not constant: only the disguised cases fold.
        assert [_fold_constant(expr) for expr in cases] == expected
        for backend in BACKENDS:
            monkeypatch.setattr(prop, "AUTO", backend)
            assert [_fold_constant(expr) for expr in cases] == expected, backend.name

    def test_auto_matches_the_concrete_backends(self):
        auto = AutoBackend()
        table = TruthTableBackend()
        for expr in _cases(808, 100):
            assert auto.is_sat(expr) == table.is_sat(expr)
            assert auto.is_tautology(expr) == table.is_tautology(expr)


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
