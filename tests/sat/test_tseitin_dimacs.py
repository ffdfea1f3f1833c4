"""Tests for the Tseitin transformation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.boolexpr import and_, const, iff, implies, mux, not_, or_, var, xor
from repro.sat.solver import solve
from repro.sat.tseitin import TseitinEncoder, encode_constraint

a, b, c, d = var("a"), var("b"), var("c"), var("d")


def _models_of_expr(expr, names):
    """Set of satisfying assignments of a BoolExpr (projection on names).

    Enumeration runs over the *full* support of the expression (plus any
    requested names outside it) and projects onto ``names``, so a projection
    onto a strict subset of the support is well-defined.
    """
    from repro.logic.boolexpr import all_assignments

    support = sorted(set(expr.variables()) | set(names))
    return {
        tuple(assignment[name] for name in names)
        for assignment in all_assignments(support)
        if expr.evaluate(assignment)
    }


def _models_of_cnf(cnf, names):
    """Satisfying assignments of a CNF projected onto the named variables."""
    models = set()
    # Enumerate by brute force over *all* CNF variables, project onto names.
    variables = list(range(1, cnf.variable_count() + 1))
    import itertools

    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if cnf.evaluate(assignment) is True:
            decoded = cnf.pool.decode(assignment)
            key = tuple(decoded.get(name, False) for name in names)
            models.add(key)
    return models


class TestTseitinCorrectness:
    @pytest.mark.parametrize(
        "expr, names",
        [
            (and_(a, b), ["a", "b"]),
            (or_(a, b, c), ["a", "b", "c"]),
            (xor(a, b), ["a", "b"]),
            (xor(a, b, c), ["a", "b", "c"]),
            (implies(a, b), ["a", "b"]),
            (iff(a, b), ["a", "b"]),
            (not_(and_(a, or_(b, not_(c)))), ["a", "b", "c"]),
            (mux(a, b, c), ["a", "b", "c"]),
            (and_(or_(a, b), or_(not_(a), c), or_(not_(b), not_(c))), ["a", "b", "c"]),
        ],
    )
    def test_constraint_preserves_models(self, expr, names):
        cnf = encode_constraint(expr)
        assert _models_of_cnf(cnf, names) == _models_of_expr(expr, names)

    def test_constants(self):
        assert solve(encode_constraint(const(True))).satisfiable
        assert not solve(encode_constraint(const(False))).satisfiable

    def test_negated_constraint(self):
        cnf = encode_constraint(and_(a, b), value=False)
        models = _models_of_cnf(cnf, ["a", "b"])
        assert models == {(False, False), (False, True), (True, False)}

    def test_encode_circuit_returns_root_literal(self):
        encoder = TseitinEncoder()
        root = encoder.literal_for(or_(a, b))
        encoder.cnf.add_unit(-root)
        models = _models_of_cnf(encoder.cnf, ["a", "b"])
        assert models == {(False, False)}

    def test_rename_substitutes_variable_names(self):
        encoder = TseitinEncoder()
        encoder.assert_expr(and_(a, b), rename={"a": "a@1", "b": "b@1"})
        names = encoder.cnf.pool.names()
        assert "a@1" in names and "b@1" in names and "a" not in names

    def test_assert_equal(self):
        encoder = TseitinEncoder()
        encoder.assert_equal(var("x"), not_(var("y")))
        models = _models_of_cnf(encoder.cnf, ["x", "y"])
        assert models == {(True, False), (False, True)}

    def test_structural_sharing_reuses_cache(self):
        shared = and_(a, b)
        expr = or_(shared, not_(shared))
        encoder = TseitinEncoder()
        encoder.assert_expr(expr)
        # One AND gate, one OR-equivalent gate: far fewer than a non-shared encoding.
        assert encoder.cnf.variable_count() <= 6

    def test_linear_size(self):
        # A balanced tree of 64 ANDs stays linear in CNF size.
        leaves = [var(f"x{i}") for i in range(64)]
        expr = and_(*leaves)
        cnf = encode_constraint(expr)
        assert cnf.clause_count() <= 3 * 64 + 10


# -- property-based: Tseitin encoding is equisatisfiable with the circuit -----

_names = ["a", "b", "c", "d"]


def _expr_strategy():
    leaves = st.sampled_from([var(name) for name in _names] + [const(True), const(False)])

    def extend(children):
        return st.one_of(
            st.tuples(children).map(lambda t: not_(t[0])),
            st.tuples(children, children).map(lambda t: and_(*t)),
            st.tuples(children, children).map(lambda t: or_(*t)),
            st.tuples(children, children).map(lambda t: xor(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(_expr_strategy())
def test_tseitin_equisatisfiable(expr):
    cnf = encode_constraint(expr)
    from repro.logic.boolexpr import is_contradiction

    assert solve(cnf).satisfiable == (not is_contradiction(expr))


@settings(max_examples=60, deadline=None)
@given(_expr_strategy())
def test_tseitin_projected_models_match(expr):
    names = sorted(expr.variables())
    if len(names) > 3:
        names = names[:3]
    cnf = encode_constraint(expr)
    if cnf.variable_count() > 14:
        return  # keep the brute-force projection cheap
    # Tseitin gate variables are functionally determined by the circuit
    # inputs, so projecting the CNF models onto any subset of the circuit
    # variables yields exactly the projected models of the expression.
    assert _models_of_cnf(cnf, names) == _models_of_expr(expr, names)
    # Exact equality on the full variable set of the expression:
    full_names = sorted(expr.variables())
    if full_names and cnf.variable_count() <= 14:
        assert _models_of_cnf(cnf, full_names) == _models_of_expr(expr, full_names)
