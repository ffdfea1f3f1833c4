"""Propositional decision backends.

One protocol — :class:`PropBackend` — with three implementations plus the
size-directed ``auto`` policy that delegates to them:

``table``
    Exhaustive truth-table enumeration (the original reference semantics of
    :mod:`repro.logic.boolexpr`).  Exact and simple, but ``O(2^n)``.
``bdd``
    Reduced ordered BDDs via :class:`~repro.logic.bdd.BDDManager`.  Validity
    and equivalence become root-pointer comparisons after construction.
``sat``
    Tseitin encoding (:mod:`repro.sat.tseitin`) plus the CDCL solver
    (:mod:`repro.sat.solver`).  Equivalence is an UNSAT check on the XOR of
    the two sides.
``auto``
    Picks by support size: enumeration below :data:`TABLE_CUTOFF` variables,
    BDDs up to :data:`BDD_CUTOFF`, SAT beyond.

The module-level predicates of :mod:`repro.logic.boolexpr`
(``is_tautology`` / ``expr_equivalent`` / ``is_contradiction``), and through
them the constant folds of ``T_M`` construction (:mod:`repro.core.tm`), are
decided by the one :data:`AUTO` policy instance.  Every backend decides these
queries exactly, so the choice of delegate affects only their cost; the
concrete backends stay as the policy's delegates and as the differential
tests' references.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

from ..logic.boolexpr import (
    BoolExpr,
    all_assignments,
    enumerate_equivalent,
    enumerate_is_contradiction,
    enumerate_is_tautology,
    not_,
    xor,
)

__all__ = [
    "PropBackend",
    "TruthTableBackend",
    "BddBackend",
    "SatBackend",
    "AutoBackend",
    "TABLE_CUTOFF",
    "BDD_CUTOFF",
    "AUTO",
]

Assignment = Dict[str, bool]

#: ``auto`` enumerates truth tables only below this many support variables.
TABLE_CUTOFF = 8
#: ``auto`` uses BDDs up to this many support variables, SAT beyond.
BDD_CUTOFF = 24


@runtime_checkable
class PropBackend(Protocol):
    """A decision procedure for propositional queries over :class:`BoolExpr`."""

    name: str

    def is_sat(self, expr: BoolExpr) -> bool:
        """Does some assignment satisfy ``expr``?"""
        ...

    def is_tautology(self, expr: BoolExpr) -> bool:
        """Does every assignment satisfy ``expr``?"""
        ...

    def equivalent(self, left: BoolExpr, right: BoolExpr) -> bool:
        """Do ``left`` and ``right`` agree under every assignment?"""
        ...

    def model(self, expr: BoolExpr) -> Optional[Assignment]:
        """A satisfying assignment over the support of ``expr``, or ``None``."""
        ...


class _BackendBase:
    """Default derivations shared by the concrete backends."""

    name = "?"

    def _count_query(self) -> None:
        from ..obs import metrics

        metrics().inc(f"prop.{self.name}.queries")

    def is_sat(self, expr: BoolExpr) -> bool:
        raise NotImplementedError

    def model(self, expr: BoolExpr) -> Optional[Assignment]:
        raise NotImplementedError

    def is_tautology(self, expr: BoolExpr) -> bool:
        return not self.is_sat(not_(expr))

    def equivalent(self, left: BoolExpr, right: BoolExpr) -> bool:
        if left is right:
            return True
        return not self.is_sat(xor(left, right))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class TruthTableBackend(_BackendBase):
    """Reference backend: exhaustive enumeration over the support."""

    name = "table"

    def is_sat(self, expr: BoolExpr) -> bool:
        self._count_query()
        return not enumerate_is_contradiction(expr)

    def is_tautology(self, expr: BoolExpr) -> bool:
        self._count_query()
        return enumerate_is_tautology(expr)

    def equivalent(self, left: BoolExpr, right: BoolExpr) -> bool:
        if left is right:
            return True
        self._count_query()
        return enumerate_equivalent(left, right)

    def model(self, expr: BoolExpr) -> Optional[Assignment]:
        self._count_query()
        for assignment in all_assignments(sorted(expr.variables())):
            if expr.evaluate(assignment):
                return assignment
        return None


class BddBackend(_BackendBase):
    """Canonical backend: build an ROBDD and inspect the root."""

    name = "bdd"

    def _build(self, expr: BoolExpr):
        from ..logic.bdd import BDDManager

        self._count_query()
        manager = BDDManager(sorted(expr.variables()))
        return manager.from_expr(expr)

    def is_sat(self, expr: BoolExpr) -> bool:
        return not self._build(expr).is_false()

    def is_tautology(self, expr: BoolExpr) -> bool:
        return self._build(expr).is_true()

    def equivalent(self, left: BoolExpr, right: BoolExpr) -> bool:
        if left is right:
            return True
        from ..logic.bdd import BDDManager

        self._count_query()
        manager = BDDManager(sorted(left.variables() | right.variables()))
        return manager.from_expr(left).root == manager.from_expr(right).root

    def model(self, expr: BoolExpr) -> Optional[Assignment]:
        node = self._build(expr)
        for cube in node.satisfying_cubes():
            assignment = {name: False for name in expr.variables()}
            assignment.update(dict(cube))
            return assignment
        return None


class SatBackend(_BackendBase):
    """Refutation backend: Tseitin encoding + CDCL search."""

    name = "sat"

    def _solve(self, expr: BoolExpr):
        from ..sat.solver import solve
        from ..sat.tseitin import encode_constraint

        self._count_query()
        return solve(encode_constraint(expr))

    def is_sat(self, expr: BoolExpr) -> bool:
        return self._solve(expr).satisfiable

    def model(self, expr: BoolExpr) -> Optional[Assignment]:
        result = self._solve(expr)
        if not result.satisfiable:
            return None
        return {name: result.value(name) for name in expr.variables()}


class AutoBackend(_BackendBase):
    """Support-size policy: table for tiny, BDD for medium, SAT for large.

    Truth tables strictly below :data:`TABLE_CUTOFF` variables, BDDs up to
    :data:`BDD_CUTOFF`, SAT beyond.
    """

    name = "auto"

    def __init__(self):
        self._table = TruthTableBackend()
        self._bdd = BddBackend()
        self._sat = SatBackend()

    def pick(self, variable_count: int) -> PropBackend:
        """The delegate backend for a query over ``variable_count`` variables."""
        if variable_count < TABLE_CUTOFF:
            return self._table
        if variable_count <= BDD_CUTOFF:
            return self._bdd
        return self._sat

    def is_sat(self, expr: BoolExpr) -> bool:
        return self.pick(len(expr.variables())).is_sat(expr)

    def is_tautology(self, expr: BoolExpr) -> bool:
        return self.pick(len(expr.variables())).is_tautology(expr)

    def equivalent(self, left: BoolExpr, right: BoolExpr) -> bool:
        if left is right:
            return True
        joint = len(left.variables() | right.variables())
        return self.pick(joint).equivalent(left, right)

    def model(self, expr: BoolExpr) -> Optional[Assignment]:
        return self.pick(len(expr.variables())).model(expr)


#: The policy instance behind the :mod:`repro.logic.boolexpr` predicates.
AUTO = AutoBackend()
