"""Unit tests for the BDD-decided propositional predicates and the hash-consed kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import boolexpr
from repro.logic.boolexpr import (
    FALSE,
    TRUE,
    and_,
    const,
    enumerate_equivalent,
    enumerate_is_contradiction,
    enumerate_is_tautology,
    expr_equivalent,
    implies,
    intern_stats,
    is_contradiction,
    is_tautology,
    not_,
    or_,
    var,
    xor,
)
from repro.obs import metrics

a, b, c, d = var("a"), var("b"), var("c"), var("d")


class TestDecisions:
    def test_tautology_and_contradiction(self):
        assert is_tautology(or_(a, not_(a)))
        assert not is_tautology(a)
        assert is_contradiction(and_(a, not_(a)))
        assert not is_contradiction(and_(a, b))
        assert is_tautology(TRUE)
        assert is_contradiction(FALSE)

    def test_equivalence(self):
        assert expr_equivalent(not_(and_(a, b)), or_(not_(a), not_(b)))
        assert expr_equivalent(implies(a, b), or_(not_(a), b))
        assert not expr_equivalent(a, b)
        assert expr_equivalent(xor(a, b), or_(and_(a, not_(b)), and_(not_(a), b)))

    def test_each_decision_counts_one_bdd_query(self):
        before = metrics().counter("prop.bdd.queries")
        is_tautology(or_(a, b))
        is_contradiction(and_(a, b))
        expr_equivalent(a, b)
        expr_equivalent(a, a)  # the same node: decided without a BDD
        assert metrics().counter("prop.bdd.queries") == before + 3

    def test_wide_disguised_tautology_folds_without_enumerating(self, monkeypatch):
        from repro.core.tm import _fold_constant

        def no_enumeration(names):  # pragma: no cover - must not run
            raise AssertionError("a decision enumerated assignments")

        monkeypatch.setattr(boolexpr, "all_assignments", no_enumeration)
        # A 24-variable tautology that does not constant-fold at construction.
        last = 23
        wide = or_(*(var(f"w{i}") for i in range(last)), not_(and_(var("w0"), var(f"w{last}"))))
        assert wide is not TRUE
        assert len(wide.variables()) == 24
        assert is_tautology(wide)
        assert _fold_constant(wide) is TRUE
        assert _fold_constant(not_(wide)) is FALSE

    def test_wide_contradiction_and_equivalence_never_enumerate(self, monkeypatch):
        def no_enumeration(names):  # pragma: no cover - must not run
            raise AssertionError("a decision enumerated assignments")

        monkeypatch.setattr(boolexpr, "all_assignments", no_enumeration)
        wide = [var(f"w{i}") for i in range(24)]
        # A 24-variable contradiction that does not constant-fold at construction.
        clash = and_(*wide, not_(and_(wide[0], wide[-1])))
        assert clash is not FALSE
        assert is_contradiction(clash)
        assert not is_contradiction(and_(*wide))
        # De Morgan over 24 variables, and one literal flipped.
        assert expr_equivalent(not_(or_(*wide)), and_(*(not_(v) for v in wide)))
        assert not expr_equivalent(not_(or_(*wide)), and_(*(not_(v) for v in wide[:-1]), wide[-1]))


class TestHashConsing:
    def test_construction_interns(self):
        assert var("hc_x") is var("hc_x")
        assert and_(a, b) is and_(a, b)
        assert not_(and_(a, b)) is not_(and_(a, b))
        assert const(True) is TRUE and const(False) is FALSE

    def test_equality_is_identity(self):
        left = or_(and_(a, b), c)
        right = or_(and_(a, b), c)
        assert left is right and left == right
        assert hash(left) == hash(right)

    def test_variables_memoised_object(self):
        expr = and_(a, or_(b, c))
        assert expr.variables() is expr.variables()

    def test_cofactor_memoised(self):
        expr = or_(and_(a, b), and_(not_(a), c))
        assert expr.cofactor("a", True) is expr.cofactor("a", True)
        assert expr.cofactor("a", True) is b
        assert expr.cofactor("a", False) is c

    def test_substitute_shares_across_dag(self):
        shared = and_(a, b)
        expr = or_(shared, not_(shared))
        substituted = expr.substitute({"a": c})
        assert substituted is or_(and_(c, b), not_(and_(c, b)))

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            a.name = "other"

    def test_intern_stats_counts_nodes(self):
        stats = intern_stats()
        assert stats["unique_nodes"] > 0
        fresh = var("hc_fresh_node")  # held live: the unique table is weak
        assert intern_stats()["unique_nodes"] == stats["unique_nodes"] + 1
        assert var("hc_fresh_node") is fresh


# -- property-based: the BDD decisions agree with enumeration -----------------

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

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(), _expr_strategy())
def test_decisions_match_enumeration(left, right):
    assert is_tautology(left) == enumerate_is_tautology(left)
    assert is_contradiction(left) == enumerate_is_contradiction(left)
    assert expr_equivalent(left, right) == enumerate_equivalent(left, right)
