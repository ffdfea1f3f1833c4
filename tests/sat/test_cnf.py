"""Unit tests for the CNF containers (literals, clauses, variable pool)."""

import random

import pytest

from repro.designs.random import random_boolexpr
from repro.logic.boolexpr import is_contradiction
from repro.sat.cnf import CNF, Clause, CNFError, Literal, VariablePool
from repro.sat.solver import solve
from repro.sat.tseitin import encode_constraint


class TestLiteral:
    def test_negation_flips_polarity(self):
        lit = Literal(3, True)
        assert -lit == Literal(3, False)
        assert -(-lit) == lit

    def test_int_conversion_matches_dimacs_convention(self):
        assert int(Literal(5, True)) == 5
        assert int(Literal(5, False)) == -5

    def test_non_positive_variable_rejected(self):
        with pytest.raises(CNFError):
            Literal(0, True)
        with pytest.raises(CNFError):
            Literal(-2, True)

    def test_evaluate_partial_assignment(self):
        lit = Literal(2, False)
        assert lit.evaluate({}) is None
        assert lit.evaluate({2: True}) is False
        assert lit.evaluate({2: False}) is True


class TestClause:
    def test_tautology_detection(self):
        clause = Clause.of(Literal(1), Literal(2), Literal(1, False))
        assert clause.is_tautology()
        assert not Clause.of(Literal(1), Literal(2)).is_tautology()

    def test_simplified_removes_duplicates(self):
        clause = Clause.of(Literal(1), Literal(1), Literal(2))
        assert clause.simplified().literals == (Literal(1), Literal(2))

    def test_unit_and_empty(self):
        assert Clause.of(Literal(1)).is_unit()
        assert Clause.of().is_empty()

    def test_evaluate_three_valued(self):
        clause = Clause.of(Literal(1), Literal(2, False))
        assert clause.evaluate({1: True}) is True
        assert clause.evaluate({1: False}) is None
        assert clause.evaluate({1: False, 2: True}) is False

    def test_variables_sorted_unique(self):
        clause = Clause.of(Literal(3), Literal(1, False), Literal(3, False))
        assert clause.variables() == (1, 3)


class TestVariablePool:
    def test_same_name_same_index(self):
        pool = VariablePool()
        assert pool.variable("a") == pool.variable("a")
        assert pool.variable("a") != pool.variable("b")

    def test_name_round_trip(self):
        pool = VariablePool()
        index = pool.variable("wait@3")
        assert pool.name_of(index) == "wait@3"
        assert pool.index_of("wait@3") == index

    def test_fresh_variables_are_distinct(self):
        pool = VariablePool()
        assert pool.fresh() != pool.fresh()

    def test_fresh_variable_never_aliases_a_named_one(self):
        pool = VariablePool()
        taken = pool.variable("_t2")
        assert pool.fresh() != taken
        # A signal asked for after a fresh variable took its name gets its own.
        anonymous = pool.fresh()
        label = pool.name_of(anonymous)
        named = pool.variable(label)
        assert named != anonymous
        assert pool.index_of(label) == named
        assert pool.name_of(anonymous) != label

    def test_tseitin_gates_on_signals_named_like_gates(self):
        """Circuits over signals that share the gate-variable prefix encode
        correctly: the solver agrees with the BDD, and every model satisfies
        the circuit."""
        names = ("_t3", "_t4", "_t5", "a")
        rng = random.Random(20261019)
        for _ in range(600):
            expr = random_boolexpr(rng, names, 3)
            result = solve(encode_constraint(expr))
            assert result.satisfiable != is_contradiction(expr), expr
            if result.satisfiable:
                model = {name: result.assignment.get(name, False) for name in names}
                assert expr.evaluate(model), (expr, model)

    def test_unknown_lookups_raise(self):
        pool = VariablePool()
        with pytest.raises(CNFError):
            pool.name_of(1)
        with pytest.raises(CNFError):
            pool.index_of("missing")

    def test_empty_name_rejected(self):
        with pytest.raises(CNFError):
            VariablePool().variable("")

    def test_decode_translates_indices(self):
        pool = VariablePool()
        a, b = pool.variable("a"), pool.variable("b")
        assert pool.decode({a: True, b: False}) == {"a": True, "b": False}


class TestCNF:
    def test_add_clause_drops_tautologies(self):
        cnf = CNF()
        a = cnf.pool.literal("a")
        cnf.add_clause(a, -a)
        assert cnf.clause_count() == 0

    def test_assume_adds_unit(self):
        cnf = CNF()
        cnf.assume("x", False)
        assert cnf.clause_count() == 1
        assert cnf.clauses[0].is_unit()
        assert int(cnf.clauses[0].literals[0]) < 0

    def test_evaluate_names(self):
        cnf = CNF()
        a, b = cnf.pool.literal("a"), cnf.pool.literal("b")
        cnf.add_clause(a, b)
        cnf.add_clause(-a, b)
        assert cnf.evaluate_names({"a": True, "b": True}) is True
        assert cnf.evaluate_names({"a": True, "b": False}) is False
        assert cnf.evaluate_names({"a": True}) is None

    def test_copy_shares_pool_but_not_clauses(self):
        cnf = CNF()
        a = cnf.pool.literal("a")
        cnf.add_clause(a)
        duplicate = cnf.copy()
        duplicate.add_clause(-a)
        assert cnf.clause_count() == 1
        assert duplicate.clause_count() == 2
        assert duplicate.pool is cnf.pool

    def test_counts_and_summary(self):
        cnf = CNF()
        a, b = cnf.pool.literal("a"), cnf.pool.literal("b")
        cnf.add_clause(a, b)
        cnf.add_clause(-b)
        assert cnf.variable_count() == 2
        assert cnf.clause_count() == 2
        assert cnf.literal_count() == 3
        assert "2 variables" in cnf.summary()
