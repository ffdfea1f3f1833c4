"""Tests for the CDCL solver, including hypothesis cross-checks against brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF, Literal
from repro.sat.solver import SatSolver, solve, solve_brute_force


def _cnf_from_ints(clauses):
    """Build a CNF over variables named v1..vn from lists of signed integers."""
    cnf = CNF()
    highest = max((abs(v) for clause in clauses for v in clause), default=0)
    for index in range(1, highest + 1):
        cnf.pool.variable(f"v{index}")
    for clause in clauses:
        cnf.add_clause(*(Literal(abs(v), v > 0) for v in clause))
    return cnf


def _check_model(cnf, result):
    assignment = {
        cnf.pool.index_of(name): value for name, value in result.assignment.items()
    }
    assert cnf.evaluate(assignment) is True


class TestBasicQueries:
    def test_empty_formula_is_sat(self):
        assert solve(CNF()).satisfiable

    def test_single_unit(self):
        cnf = _cnf_from_ints([[1]])
        result = solve(cnf)
        assert result.satisfiable
        assert result.value("v1") is True

    def test_contradictory_units(self):
        cnf = _cnf_from_ints([[1], [-1]])
        assert not solve(cnf).satisfiable

    def test_requires_propagation_chain(self):
        # 1 -> 2 -> 3 -> 4, with 1 forced true and 4 forced false: UNSAT.
        cnf = _cnf_from_ints([[1], [-1, 2], [-2, 3], [-3, 4], [-4]])
        assert not solve(cnf).satisfiable

    def test_simple_satisfiable_3sat(self):
        cnf = _cnf_from_ints([[1, 2, 3], [-1, -2], [-1, -3], [-2, -3]])
        result = solve(cnf)
        assert result.satisfiable
        _check_model(cnf, result)

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole: p1h1, p2h1, not both.
        cnf = _cnf_from_ints([[1], [2], [-1, -2]])
        assert not solve(cnf).satisfiable

    def test_xor_chain_parity_unsat(self):
        # x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 has odd total parity: UNSAT.
        clauses = []
        for a, b in [(1, 2), (2, 3), (1, 3)]:
            clauses += [[a, b], [-a, -b]]
        assert not solve(_cnf_from_ints(clauses)).satisfiable

    def test_xor_chain_parity_sat(self):
        # x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0 is consistent.
        clauses = [[1, 2], [-1, -2], [2, 3], [-2, -3], [1, -3], [-1, 3]]
        result = solve(_cnf_from_ints(clauses))
        assert result.satisfiable


class TestAssumptions:
    def test_assumption_restricts_models(self):
        cnf = _cnf_from_ints([[1, 2]])
        result = SatSolver(cnf).solve(assumptions=[Literal(1, False)])
        assert result.satisfiable
        assert result.value("v2") is True

    def test_conflicting_assumption(self):
        cnf = _cnf_from_ints([[1]])
        result = SatSolver(cnf).solve(assumptions=[Literal(1, False)])
        assert not result.satisfiable

    def test_assumptions_between_them_unsat(self):
        cnf = _cnf_from_ints([[1, 2]])
        result = SatSolver(cnf).solve(
            assumptions=[Literal(1, False), Literal(2, False)]
        )
        assert not result.satisfiable


class TestIncremental:
    def test_assumptions_are_retracted_after_solve(self):
        solver = SatSolver(_cnf_from_ints([[1, 2]]))
        assert not solver.solve(assumptions=[Literal(1, False), Literal(2, False)]).satisfiable
        result = solver.solve()
        assert result.satisfiable
        assert result.value("v1") or result.value("v2")

    def test_clause_added_between_solves_takes_effect(self):
        cnf = _cnf_from_ints([[1, 2]])
        solver = SatSolver(cnf)
        assert solver.solve().satisfiable
        solver.add_clause(Literal(1, False))
        result = solver.solve()
        assert result.satisfiable and result.value("v2") is True
        solver.add_clause(Literal(2, False))
        assert not solver.solve().satisfiable
        assert cnf.clause_count() == 3


class TestPigeonhole:
    def _pigeonhole(self, pigeons, holes):
        """PHP(p, h): p pigeons into h holes, variable (p-1)*holes + h."""
        def var(p, h):
            return p * holes + h + 1

        clauses = []
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return _cnf_from_ints(clauses)

    def test_php_4_3_unsat(self):
        assert not solve(self._pigeonhole(4, 3)).satisfiable

    def test_php_3_3_sat(self):
        result = solve(self._pigeonhole(3, 3))
        assert result.satisfiable

    def test_php_5_4_unsat_with_learning(self):
        result = solve(self._pigeonhole(5, 4))
        assert not result.satisfiable
        assert result.conflicts > 0


class TestLubySequence:
    def test_first_fifteen_values(self):
        from repro.sat.solver import _luby

        assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_zero_index_rejected(self):
        from repro.sat.solver import _luby

        with pytest.raises(ValueError):
            _luby(0)


class TestStatistics:
    def test_statistics_populated(self):
        cnf = _cnf_from_ints([[1, 2, 3], [-1, 2], [-2, 3], [-3, 1], [-1, -2, -3]])
        result = solve(cnf)
        assert result.decisions >= 0
        assert result.propagations > 0
        assert "SAT" in result.summary() or "UNSAT" in result.summary()


# -- property-based cross-check against brute force ---------------------------

_literal = st.integers(min_value=1, max_value=6).flatmap(
    lambda v: st.sampled_from([v, -v])
)
_clause = st.lists(_literal, min_size=1, max_size=4)
_formula = st.lists(_clause, min_size=1, max_size=12)


@settings(max_examples=120, deadline=None)
@given(_formula)
def test_cdcl_agrees_with_brute_force(clauses):
    cnf = _cnf_from_ints(clauses)
    reference = solve_brute_force(cnf.copy())
    result = solve(_cnf_from_ints(clauses))
    assert result.satisfiable == reference.satisfiable
    if result.satisfiable:
        _check_model(_cnf_from_ints(clauses), result)


@settings(max_examples=60, deadline=None)
@given(_formula, st.dictionaries(st.integers(min_value=1, max_value=6), st.booleans(), max_size=3))
def test_cdcl_respects_assumptions(clauses, assumption_map):
    cnf = _cnf_from_ints(clauses)
    assumptions = [Literal(v, polarity) for v, polarity in assumption_map.items()]
    result = SatSolver(cnf).solve(assumptions=assumptions)
    # Reference: add assumptions as unit clauses and brute force.
    reference_cnf = _cnf_from_ints(clauses)
    for v, polarity in assumption_map.items():
        reference_cnf.add_clause(Literal(v, polarity))
    reference = solve_brute_force(reference_cnf)
    assert result.satisfiable == reference.satisfiable
