"""Round-trip fuzzing: LTL parse/print and circuit -> CNF -> named model.

``parse(to_str(f)) == f`` is the contract that makes every printed report
re-ingestable; a SAT model read back by signal name must satisfy the circuit
that was encoded, which is how BMC turns a model into a witness trace.  Both
are exercised on seeded random instances far beyond the hand-written fixtures.
"""

from __future__ import annotations

import random

import pytest

from repro.designs.random import random_boolexpr, random_formula
from repro.logic.boolexpr import minterms
from repro.ltl.ast import (
    FALSE,
    TRUE,
    Iff,
    Implies,
    Next,
    Not,
    Release,
    WeakUntil,
    atom,
)
from repro.ltl.parser import parse
from repro.ltl.printer import to_str
from repro.sat.solver import SatSolver, solve
from repro.sat.tseitin import encode_constraint

NAMES = ("req", "ack", "g1", "busy", "hit", "w0")


class TestLtlRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_parse_print_round_trip_random(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            formula = random_formula(rng, NAMES, depth=4)
            printed = to_str(formula)
            assert parse(printed) == formula, printed

    def test_round_trip_covers_every_operator(self):
        """Operators the random grammar rarely or never emits."""
        a, b = atom("a"), atom("b")
        for formula in (
            TRUE,
            FALSE,
            Iff(a, b),
            Implies(Iff(a, b), Release(a, b)),
            WeakUntil(a, Iff(b, FALSE)),
            Not(Next(Release(a, WeakUntil(b, a)))),
            Iff(Implies(a, b), Implies(b, a)),
        ):
            assert parse(to_str(formula)) == formula

    @pytest.mark.parametrize("seed", [5, 6])
    def test_printed_text_is_stable(self, seed):
        """print(parse(print(f))) is a fixed point (idempotent rendering)."""
        rng = random.Random(seed)
        for _ in range(100):
            formula = random_formula(rng, NAMES, depth=4)
            printed = to_str(formula)
            assert to_str(parse(printed)) == printed


class TestSatModelRoundTrip:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_named_model_satisfies_the_circuit(self, seed):
        rng = random.Random(seed)
        satisfiable = 0
        for _ in range(25):
            expr = random_boolexpr(rng, NAMES, depth=4)
            result = solve(encode_constraint(expr))
            assert result.satisfiable == any(True for _ in minterms(expr)), expr
            if result.satisfiable:
                satisfiable += 1
                inputs = {name: result.value(name) for name in expr.variables()}
                assert expr.evaluate(inputs), expr
        assert satisfiable > 0

    def test_blocking_clauses_enumerate_every_model(self):
        """Excluding each named model in turn, on one incremental solver,
        visits exactly the circuit's models."""
        rng = random.Random(99)
        for _ in range(15):
            expr = random_boolexpr(rng, NAMES[:4], depth=3)
            names = sorted(expr.variables())
            cnf = encode_constraint(expr)
            solver = SatSolver(cnf)
            found = set()
            while True:
                result = solver.solve()
                if not result.satisfiable:
                    break
                model = tuple(result.value(name) for name in names)
                assert model not in found, expr
                found.add(model)
                solver.add_clause(
                    *(cnf.pool.literal(name, not value) for name, value in zip(names, model))
                )
            expected = {tuple(m[name] for name in names) for m in minterms(expr, names)}
            assert found == expected, expr
