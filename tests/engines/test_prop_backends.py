"""Unit tests for the propositional decision backends and the hash-consed kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import prop
from repro.engines.prop import (
    BDD_CUTOFF,
    TABLE_CUTOFF,
    AutoBackend,
    BddBackend,
    SatBackend,
    TruthTableBackend,
)
from repro.logic.boolexpr import (
    FALSE,
    TRUE,
    and_,
    const,
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

a, b, c, d = var("a"), var("b"), var("c"), var("d")

ALL_BACKENDS = [
    pytest.param(cls, id=cls.name) for cls in (TruthTableBackend, BddBackend, SatBackend, AutoBackend)
]


class TestBackendSemantics:
    @pytest.mark.parametrize("backend_class", ALL_BACKENDS)
    def test_tautology_and_contradiction(self, backend_class):
        backend = backend_class()
        assert backend.is_tautology(or_(a, not_(a)))
        assert not backend.is_tautology(a)
        assert not backend.is_sat(and_(a, not_(a)))
        assert backend.is_sat(and_(a, b))
        assert backend.is_tautology(TRUE)
        assert not backend.is_sat(FALSE)

    @pytest.mark.parametrize("backend_class", ALL_BACKENDS)
    def test_equivalence(self, backend_class):
        backend = backend_class()
        assert backend.equivalent(not_(and_(a, b)), or_(not_(a), not_(b)))
        assert backend.equivalent(implies(a, b), or_(not_(a), b))
        assert not backend.equivalent(a, b)
        assert backend.equivalent(xor(a, b), or_(and_(a, not_(b)), and_(not_(a), b)))

    @pytest.mark.parametrize("backend_class", ALL_BACKENDS)
    def test_model_satisfies_expression(self, backend_class):
        backend = backend_class()
        expr = and_(or_(a, b), or_(not_(a), c), not_(d))
        model = backend.model(expr)
        assert model is not None
        assert set(model) == set(expr.variables())
        assert expr.evaluate(model)
        assert backend.model(and_(a, not_(a))) is None

    def test_module_predicates_dispatch_to_auto_policy(self, monkeypatch):
        assert isinstance(prop.AUTO, AutoBackend)

        class Recording(AutoBackend):
            def __init__(self):
                super().__init__()
                self.calls = []

            def is_tautology(self, expr):
                self.calls.append("is_tautology")
                return super().is_tautology(expr)

            def equivalent(self, left, right):
                self.calls.append("equivalent")
                return super().equivalent(left, right)

            def is_sat(self, expr):
                self.calls.append("is_sat")
                return super().is_sat(expr)

        recorder = Recording()
        monkeypatch.setattr(prop, "AUTO", recorder)
        assert is_tautology(or_(a, not_(a)))
        assert expr_equivalent(a, a)
        assert is_contradiction(and_(a, not_(a)))
        assert recorder.calls == ["is_tautology", "equivalent", "is_sat"]


class TestAutoPolicy:
    def test_pick_by_variable_count(self):
        auto = AutoBackend()
        assert isinstance(auto.pick(0), TruthTableBackend)
        assert isinstance(auto.pick(TABLE_CUTOFF - 1), TruthTableBackend)
        assert isinstance(auto.pick(TABLE_CUTOFF), BddBackend)
        assert isinstance(auto.pick(BDD_CUTOFF), BddBackend)
        assert isinstance(auto.pick(BDD_CUTOFF + 1), SatBackend)

    def test_wide_query_never_enumerates(self):
        class Exploding(TruthTableBackend):
            def is_tautology(self, expr):  # pragma: no cover - must not run
                raise AssertionError("truth-table backend used above the cutoff")

        auto = AutoBackend()
        auto._table = Exploding()
        # A TABLE_CUTOFF-variable tautology that does not constant-fold at
        # construction.
        last = TABLE_CUTOFF - 1
        wide = or_(*(var(f"v{i}") for i in range(last)), not_(and_(var("v0"), var(f"v{last}"))))
        assert len(wide.variables()) == TABLE_CUTOFF
        assert auto.is_tautology(wide)


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


# -- property-based: all backends agree on random expressions -----------------

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
def test_backends_agree(left, right):
    reference = TruthTableBackend()
    expected_taut = reference.is_tautology(left)
    expected_sat = reference.is_sat(left)
    expected_equiv = reference.equivalent(left, right)
    for backend in (BddBackend(), SatBackend(), AutoBackend()):
        assert backend.is_tautology(left) == expected_taut
        assert backend.is_sat(left) == expected_sat
        assert backend.equivalent(left, right) == expected_equiv
        model = backend.model(left)
        assert (model is not None) == expected_sat
        if model is not None:
            assert left.evaluate(model)
