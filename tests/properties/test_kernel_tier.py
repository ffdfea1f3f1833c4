"""Differential properties of the raw-speed kernel tier.

Each fast kernel is pinned to a slow reference on the design catalog plus
seeded random designs:

* incremental (assumption-based) BMC vs a fresh-solver-per-query search
  (``bmc_reference.py`` beside this file),
* the memoised bitset product vs a plain dict/list product loop
  (``product_reference.py`` beside this file), on the query sets Algorithm 1
  asks — ``R``, ``R + A``, ``[!A] + R`` with a witness exclusion and a
  weakened candidate,
* the bitset emptiness sweep vs Tarjan's SCC algorithm
  (``emptiness_reference.py`` beside this file), on those products and on
  sparsely numbered tableaux of catalog and seeded random formulas,
* the BDD kernel's one-pass ``exists``/``forall``/``and_exists``/``rename``
  vs per-variable references (``bdd_reference.py`` beside this file), on
  random functions and on the symbolic engine's images and preimages.

Seeded RNGs only — every failure here is reproducible by seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from bdd_reference import (
    reference_exists,
    reference_forall,
    reference_image,
    reference_preimage,
    reference_rename,
)
from bmc_reference import reference_find_run_bmc
from emptiness_reference import reference_accepting_lasso
from product_reference import reference_product
from repro.bmc.engine import find_run_bmc
from repro.core import generate_candidates, primary_coverage_check, push_terms
from repro.designs import CATALOG
from repro.designs.random import (
    RandomDesignSpec,
    random_boolexpr,
    random_formula,
    random_problem,
)
from repro.engines import get_engine
from repro.logic import BDDError, BDDManager
from repro.ltl.ast import Not
from repro.ltl.tableau import ltl_to_gba
from repro.ltl.traces import evaluate
from repro.ltl.unfold import term_from_trace
from repro.mc.modelcheck import build_kripke
from repro.mc.product import kripke_automata_product
from repro.mc.symbolic import SymbolicProduct
from repro.problem import compiled_automata
from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver, solve

CATALOG_CASES = ("mal_fig2", "mal_fig4", "paper_example", "telemetry_bank")
RANDOM_SPECS = [RandomDesignSpec(seed=91, index=i) for i in range(4)]


def _problems():
    for name in CATALOG_CASES:
        yield name, CATALOG[name].builder()
    for spec in RANDOM_SPECS:
        yield spec.name, random_problem(spec)


def _query_sets(problem):
    """BMC/product query formula sets of one problem: RTL + each conjunct."""
    rtl = list(problem.rtl_properties)
    yield rtl
    for target in problem.architectural:
        yield rtl + [target]


def _algorithm1_query_sets(problem):
    """The product queries Algorithm 1 asks about each architectural conjunct.

    ``[!A] + R`` is the primary question.  When it has a witness, the witness
    enumeration's next query adds the exclusion of the witness's depth-3
    ``APR`` term, and a closure check adds a weakened candidate instead.
    Their GPVW tableaux (45-63 states) are the nondeterministic automata the
    product's successor memo serves.
    """
    for target in problem.architectural:
        primary = [Not(target)] + problem.all_rtl_formulas()
        yield primary
        witness = primary_coverage_check(problem, architectural=target).witness
        if witness is None:
            continue
        term = term_from_trace(witness, 3, sorted(problem.apr)).strip_trailing_empty()
        if term.is_trivial():
            continue
        yield primary + [Not(term.to_formula())]
        candidates = generate_candidates(target, push_terms(target, [term]).suggestions)
        if candidates:
            yield primary + [candidates[0].formula]


class TestIncrementalBmcEquivalence:
    """One persistent solver across bounds == fresh solver per query."""

    @pytest.mark.parametrize("name", CATALOG_CASES)
    def test_catalog_verdicts_and_witnesses(self, name):
        problem = CATALOG[name].builder()
        module = problem.composed_module()
        for formulas in _query_sets(problem):
            fast = find_run_bmc(module, formulas, max_bound=6)
            slow = reference_find_run_bmc(module, formulas, max_bound=6)
            assert fast.satisfiable == slow.satisfiable, formulas
            if fast.satisfiable:
                # Witnesses need not be equal; each must satisfy the query.
                for formula in formulas:
                    assert evaluate(formula, fast.witness), (name, formula)
                    assert evaluate(formula, slow.witness), (name, formula)

    def test_random_designs_agree(self):
        for spec in RANDOM_SPECS:
            problem = random_problem(spec)
            module = problem.composed_module()
            for formulas in _query_sets(problem):
                fast = find_run_bmc(module, formulas, max_bound=5)
                slow = reference_find_run_bmc(module, formulas, max_bound=5)
                assert fast.satisfiable == slow.satisfiable, (spec.name, formulas)
                if fast.satisfiable:
                    for formula in formulas:
                        assert evaluate(formula, fast.witness), (spec.name, formula)

    def test_reuse_counters_populated(self):
        """A multi-bound incremental search must actually reuse the solver."""
        from repro.ltl.ast import F, G, atom

        problem = CATALOG["telemetry_bank"].builder()
        module = problem.composed_module()
        # Unsatisfiable query: the search must ask every bound, so the
        # across-bound reuse counters have to move.
        signal = module.state_signals()[0]
        formulas = [G(atom(signal)), F(Not(atom(signal)))]
        result = find_run_bmc(module, formulas, max_bound=4)
        assert not result.satisfiable
        stats = result.statistics
        assert stats.bounds_incremental > 0
        assert stats.solver_reused > 0
        assert stats.clauses_reused > 0
        # One SAT query per bound, against one per (bound, loop start) for
        # the fresh-solver reference, which must keep all three at zero.
        assert stats.sat_calls == 4 + 1
        reference = reference_find_run_bmc(module, formulas, max_bound=4)
        assert not reference.satisfiable
        assert reference.statistics.bounds_incremental == 0
        assert reference.statistics.solver_reused == 0
        assert reference.statistics.clauses_reused == 0
        assert reference.statistics.sat_calls == 1 + 2 + 3 + 4 + 5

    def test_incremental_solver_matches_fresh_solves(self):
        """add_clause + solve(assumptions) == fresh solver on the same CNF."""
        rng = random.Random(1311)
        for _ in range(25):
            names = [f"v{i}" for i in range(rng.randint(4, 7))]
            cnf = CNF()
            for name in names:
                cnf.pool.variable(name)
            incremental = SatSolver(cnf)
            for round_ in range(4):
                for _ in range(rng.randint(2, 5)):
                    clause = [
                        cnf.pool.literal(rng.choice(names), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 3))
                    ]
                    incremental.add_clause(*clause)
                assumptions = [
                    cnf.pool.literal(rng.choice(names), rng.random() < 0.5)
                    for _ in range(rng.randint(0, 2))
                ]
                got = incremental.solve(assumptions=assumptions)
                want = solve(cnf, assumptions)  # fresh solver, same formula
                assert got.satisfiable == want.satisfiable, (
                    cnf.clauses, assumptions, round_,
                )
                if got.satisfiable:
                    model = got.assignment
                    assert cnf.evaluate_names(model) is True, (model, round_)
                    for literal in assumptions:
                        name = cnf.pool.name_of(literal.variable)
                        assert model[name] == literal.positive, (model, literal)

    def test_verdicts_stable_across_hash_seeds(self):
        """Incremental BMC must not depend on set/dict iteration order."""
        script = (
            "import json\n"
            "from repro.bmc.engine import find_run_bmc\n"
            "from repro.designs import CATALOG\n"
            "out = {}\n"
            "for name in ('mal_fig2', 'telemetry_bank'):\n"
            "    problem = CATALOG[name].builder()\n"
            "    module = problem.composed_module()\n"
            "    formulas = list(problem.rtl_properties)\n"
            "    result = find_run_bmc(module, formulas, max_bound=4)\n"
            "    out[name] = [result.satisfiable, result.bound, result.loop_start]\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = set()
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1, "incremental BMC depends on PYTHONHASHSEED"


class TestBitsetProductDifferential:
    """The product construction must be byte-identical to the dict/list
    reference, and the bitset emptiness sweep must agree with Tarjan."""

    def _inputs(self, problem, formulas):
        kripke = build_kripke(problem.composed_module(), formulas)
        return kripke, list(compiled_automata(formulas))

    def _assert_matches_reference(self, problem, formulas, name):
        kripke, automata = self._inputs(problem, formulas)
        fast = kripke_automata_product(kripke, automata)
        slow = reference_product(kripke, automata)
        assert list(fast.labels) == list(slow.labels), name  # insertion order
        assert fast.labels == slow.labels, name
        assert fast.initial == slow.initial, name
        assert fast.transitions == slow.transitions, name
        assert fast.acceptance == slow.acceptance, name
        assert fast.annotations == slow.annotations, name
        assert fast.accepting_lasso() == slow.accepting_lasso(), name
        return automata

    def test_products_identical(self):
        for name, problem in _problems():
            for formulas in _query_sets(problem):
                self._assert_matches_reference(problem, formulas, name)

    def test_algorithm1_products_identical(self):
        largest = 0
        for name, problem in _problems():
            for formulas in _algorithm1_query_sets(problem):
                automata = self._assert_matches_reference(problem, formulas, (name, formulas))
                largest = max([largest] + [automaton.state_count() for automaton in automata])
        # The exclusion and candidate tableaux must actually be exercised.
        assert largest >= 45, largest

    def test_emptiness_agrees_and_lassos_are_valid(self):
        checked = sparse = 0
        for name, automaton in self._emptiness_cases():
            fast = automaton.accepting_lasso()
            slow = reference_accepting_lasso(automaton)
            assert (fast is None) == (slow is None), name
            for lasso in (fast, slow):
                if lasso is not None:
                    _assert_valid_lasso(automaton, lasso, name)
            # Both assemble the lasso inside the fair SCC they found; in the
            # same SCC, the sorted renumbering of a sparse automaton must
            # make the same tie-breaks as Tarjan's path over state names.
            if fast is not None and set(fast.loop) & set(slow.loop):
                assert fast == slow, name
            checked += 1
            sparse += not _densely_numbered(automaton)
        # The tableaux must actually exercise the renumbering path.
        assert sparse >= 20, (sparse, checked)

    def _emptiness_cases(self):
        """Products of the query sets, then tableaux of single formulas.

        The tableau numbers states by its node counter, so its automata are
        the sparsely numbered ones: every catalog RTL property, every negated
        architectural property and seeded random formulas.
        """
        for name, problem in _problems():
            for formulas in _query_sets(problem):
                yield name, kripke_automata_product(*self._inputs(problem, formulas))
        for name in sorted(CATALOG):
            problem = CATALOG[name].builder()
            for formula in problem.rtl_properties:
                yield (name, str(formula)), ltl_to_gba(formula)
            for formula in problem.architectural:
                yield (name, str(Not(formula))), ltl_to_gba(Not(formula))
        rng = random.Random(1907)
        for index in range(200):
            formula = random_formula(rng, ["p", "q", "r"], rng.randint(2, 6))
            yield ("random", index, str(formula)), ltl_to_gba(formula)


def _densely_numbered(automaton) -> bool:
    count = len(automaton.labels)
    return all(0 <= state < count for state in automaton.labels)


def _assert_valid_lasso(automaton, lasso, name):
    """The stem starts at an initial state, every step is a transition, and
    the loop meets every acceptance set."""
    assert lasso.loop, (name, lasso)
    first = lasso.stem[0] if lasso.stem else lasso.loop[0]
    assert first in automaton.initial, (name, lasso)
    states = list(lasso.states()) + [lasso.loop[0]]
    for source, target in zip(states, states[1:]):
        assert target in automaton.transitions.get(source, set()), (name, lasso)
    for accept_set in automaton.acceptance:
        assert accept_set & set(lasso.loop), (name, lasso)


class TestBddKernelReference:
    """The one-pass BDD operations return the very root their per-variable
    references build in the same manager."""

    CURRENT = [f"v{i}" for i in range(5)]
    INTERLEAVED = [name for v in CURRENT for name in (v, v + "#n")]

    def _cases(self, seed, count=40):
        """``count`` (rng, manager) cases per variable order: the interleaved
        ``v``/``v#n`` order of the symbolic engine, then a scrambled one."""
        rng = random.Random(seed)
        scrambled = list(self.INTERLEAVED)
        rng.shuffle(scrambled)
        for order in (self.INTERLEAVED, scrambled):
            manager = BDDManager(order)
            for _ in range(count):
                yield rng, manager

    def _function(self, rng, manager, names):
        """A random function of at least three of ``names``."""
        while True:
            function = manager.from_expr(random_boolexpr(rng, names, rng.randint(3, 6)))
            if len(function.support()) >= 3:
                return function

    def test_exists_and_forall_match_reference(self):
        for rng, manager in self._cases(2203):
            function = self._function(rng, manager, self.INTERLEAVED)
            names = rng.sample(self.INTERLEAVED, rng.randint(0, 6))
            assert function.exists(names).root == reference_exists(function, names).root, names
            assert function.forall(names).root == reference_forall(function, names).root, names

    def test_and_exists_matches_reference(self):
        for rng, manager in self._cases(2207):
            left = self._function(rng, manager, self.INTERLEAVED)
            right = self._function(rng, manager, self.INTERLEAVED)
            names = rng.sample(self.INTERLEAVED, rng.randint(0, 6))
            want = reference_exists(left & right, names).root
            assert left.and_exists(right, names).root == want, names
            assert right.and_exists(left, names).root == want, names

    def test_rename_matches_reference(self):
        to_next = {v: v + "#n" for v in self.CURRENT}
        to_current = {v + "#n": v for v in self.CURRENT}
        for rng, manager in self._cases(2213):
            now = self._function(rng, manager, self.CURRENT)
            primed = self._function(rng, manager, list(to_current))
            # Current <-> next shifts: order-preserving in the interleaved
            # order, not in the scrambled one.
            for function, mapping in ((now, to_next), (primed, to_current)):
                assert function.rename(mapping).root == reference_rename(function, mapping).root
            # A permutation onto the other half never keeps the order.
            targets = list(to_current)
            rng.shuffle(targets)
            mapping = dict(zip(self.CURRENT, targets))
            assert now.rename(mapping).root == reference_rename(now, mapping).root, mapping

    def test_rename_onto_undeclared_variables_matches_reference(self):
        for seed, (rng, manager) in enumerate(self._cases(2221, count=10)):
            function = self._function(rng, manager, self.CURRENT)
            fresh = [f"w{seed}_{i}" for i in range(len(self.CURRENT))]
            rng.shuffle(fresh)
            mapping = dict(zip(self.CURRENT, fresh))
            renamed = function.rename(mapping)  # declares the targets it needs
            assert renamed.root == reference_rename(function, mapping).root, mapping
            assert renamed.support() == {mapping[name] for name in function.support()}

    def test_rename_rejects_what_the_reference_rejects(self):
        manager = BDDManager(self.INTERLEAVED)
        function = manager.var("v0") & manager.var("v1")
        for mapping in ({"v0": "v1"}, {"v0": "v1", "v1": "v0"}, {"v0": "v2", "v1": "v2"}):
            for rename in (function.rename, lambda m: reference_rename(function, m)):
                with pytest.raises(BDDError):
                    rename(mapping)
        with pytest.raises(BDDError):
            function.and_exists(manager.true(), ["undeclared"])

    @pytest.mark.parametrize(
        "name", sorted(set(CATALOG) - {"amba_ahb", "mal_table1"})
    )
    def test_symbolic_images_match_reference(self, name):
        problem = CATALOG[name].builder()
        compiled = get_engine("symbolic").compile(
            problem.composed_module(),
            [Not(problem.architectural_conjunction())] + problem.all_rtl_formulas(),
        )
        product = SymbolicProduct(
            compiled.module,
            compiled.formulas,
            automata=compiled.automata,
            extra_free=compiled.free_signals,
        )
        for states in (product.initial, product.reachable()):
            assert product.image(states) == reference_image(product, states), name
            assert product.preimage(states) == reference_preimage(product, states), name
