"""Unit tests for the BDD manager."""

import pytest

from repro.logic import BDDError, BDDManager
from repro.logic.boolexpr import and_, not_, or_, var
from repro.logic.cube import Cube


@pytest.fixture()
def manager():
    return BDDManager(["a", "b", "c"])


class TestBasics:
    def test_constants(self, manager):
        assert manager.true().is_true()
        assert manager.false().is_false()
        assert not manager.var("a").is_true()

    def test_canonicity(self, manager):
        a, b = manager.var("a"), manager.var("b")
        left = (a & b) | (a & ~b)
        assert left.equivalent(a)
        assert left.root == a.root

    def test_de_morgan(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (~(a & b)).equivalent(~a | ~b)

    def test_xor_and_iff(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a ^ b).equivalent(~(a.iff(b)))

    def test_mixing_managers_raises(self, manager):
        other = BDDManager(["a"])
        with pytest.raises(BDDError):
            manager.var("a") & other.var("a")

    def test_from_expr(self, manager):
        expr = or_(and_(var("a"), var("b")), not_(var("c")))
        node = manager.from_expr(expr)
        assert node.evaluate({"a": True, "b": True, "c": True})
        assert node.evaluate({"a": False, "b": False, "c": False})
        assert not node.evaluate({"a": False, "b": True, "c": True})

    def test_from_cube(self, manager):
        node = manager.from_cube(Cube({"a": True, "b": False}))
        assert node.evaluate({"a": True, "b": False})
        assert not node.evaluate({"a": True, "b": True})


class TestOperations:
    def test_restrict(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a & b
        assert function.restrict({"a": True}).equivalent(b)
        assert function.restrict({"a": False}).is_false()

    def test_restrict_by_undeclared_variable_is_identity(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a | b
        assert function.restrict({"z": True}) == function
        assert function.restrict({"z": False, "a": False}).equivalent(b)
        # Several variables at once: one cofactor each, in any order.
        assert (a & b & manager.var("c")).restrict({"c": True, "a": True}).equivalent(b)

    def test_exists(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a & b).exists(["a"]).equivalent(b)
        assert (a & ~a).exists(["a"]).is_false()

    def test_forall(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a | b).forall(["a"]).equivalent(b)
        assert (a | ~a).forall(["a"]).is_true()

    def test_quantification_over_empty_variable_set_is_identity(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = (a & b) | ~a
        assert function.exists([]).root == function.root
        assert function.forall([]).root == function.root

    def test_quantification_over_absent_variable_is_identity(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a & b
        assert function.exists(["c"]).root == function.root
        assert function.forall(["c"]).root == function.root

    def test_support(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a & b).support() == frozenset({"a", "b"})
        assert ((a & b) | (a & ~b)).support() == frozenset({"a"})

    def test_ite(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        assert a.ite(b, c).equivalent((a & b) | (~a & c))

    def test_rename(self, manager):
        manager.declare("d")
        a, b = manager.var("a"), manager.var("b")
        renamed = (a & b).rename({"a": "d"})
        assert renamed.equivalent(manager.var("d") & b)

    def test_rename_declares_fresh_targets(self, manager):
        a = manager.var("a")
        renamed = a.rename({"a": "z"})
        assert renamed.support() == frozenset({"z"})

    def test_rename_ignores_identity_and_absent_variables(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a & b
        assert function.rename({}).root == function.root
        assert function.rename({"a": "a"}).root == function.root
        assert function.rename({"c": "d"}).root == function.root

    def test_rename_onto_existing_variable_raises(self, manager):
        a, b = manager.var("a"), manager.var("b")
        with pytest.raises(BDDError):
            (a & b).rename({"a": "b"})
        # Simultaneous swaps are collisions too: both targets stay in support.
        with pytest.raises(BDDError):
            (a & b).rename({"a": "b", "b": "a"})

    def test_rename_onto_duplicate_target_raises(self, manager):
        manager.declare("d")
        a, b = manager.var("a"), manager.var("b")
        with pytest.raises(BDDError):
            (a & b).rename({"a": "d", "b": "d"})

    def test_count_solutions(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a | b).count_solutions(["a", "b"]) == 3
        assert manager.true().count_solutions(["a", "b"]) == 4

    def test_satisfying_cubes_are_disjoint_and_cover(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        function = (a & b) | c
        cubes = list(function.satisfying_cubes())
        # Each cube satisfies the function; together they cover all solutions.
        solutions = set()
        for cube in cubes:
            for assignment in function.satisfying_assignments(["a", "b", "c"]):
                if cube.satisfied_by(assignment):
                    solutions.add(tuple(sorted(assignment.items())))
        expected = {
            tuple(sorted(assignment.items()))
            for assignment in function.satisfying_assignments(["a", "b", "c"])
        }
        assert solutions == expected

    def test_to_expr_roundtrip(self, manager):
        expr = or_(and_(var("a"), not_(var("b"))), var("c"))
        node = manager.from_expr(expr)
        back = manager.from_expr(node.to_expr())
        assert node.equivalent(back)

    def test_node_count_grows(self):
        manager = BDDManager()
        before = manager.node_count()
        function = manager.from_expr(and_(var("x"), var("y"), var("z")))
        assert manager.node_count() > before
        assert not function.is_false()
