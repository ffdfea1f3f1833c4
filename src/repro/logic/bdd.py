"""A compact reduced ordered binary decision diagram (ROBDD) package.

The BDD manager provides canonical boolean function representation used by:

* :mod:`repro.rtl.fsm` for reachability and transition-relation reasoning,
* :mod:`repro.core.tm` to minimise state labels before printing ``T_M``,
* equivalence checks between combinational blocks and their specifications.

The implementation is a classic hash-consed ITE-based manager with
complement-free nodes (both branches stored explicitly), existential and
universal quantification, restriction, satisfying-assignment enumeration and
conversion back to :class:`~repro.logic.boolexpr.BoolExpr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .boolexpr import (
    AndExpr,
    BoolExpr,
    Const,
    NotExpr,
    OrExpr,
    Var,
    XorExpr,
    and_,
    or_,
)
from .cube import Cube, Cover

__all__ = ["BDD", "BDDManager", "BDDError"]


class BDDError(Exception):
    """Raised for invalid BDD operations (unknown variables, manager mixing)."""


@dataclass(frozen=True)
class _Node:
    """Internal decision node: branch on ``level`` (index into variable order)."""

    level: int
    low: int
    high: int


class BDDManager:
    """Owns the node table and variable order for a family of BDDs."""

    FALSE = 0
    TRUE = 1

    def __init__(self, variables: Sequence[str] = ()):
        self._order: List[str] = []
        self._level: Dict[str, int] = {}
        # Node table: index -> (level, low, high).  0/1 are terminals.
        self._nodes: List[Optional[_Node]] = [None, None]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        for name in variables:
            self.declare(name)

    # -- variable management -------------------------------------------------
    def declare(self, name: str) -> None:
        """Declare a variable; order of declaration is the BDD variable order."""
        if name in self._level:
            return
        self._level[name] = len(self._order)
        self._order.append(name)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def level_of(self, name: str) -> int:
        try:
            return self._level[name]
        except KeyError as exc:
            raise BDDError(f"variable {name!r} not declared in BDD manager") from exc

    # -- node construction ----------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(_Node(level, low, high))
            # Track the process-wide node peak, sampled every 4096 nodes so
            # the hot construction path stays one bitmask test per node.
            if not (node & 0xFFF):
                from ..obs import metrics

                metrics().gauge_max("bdd.nodes", node)
            self._unique[key] = node
        return node

    def true(self) -> "BDD":
        return BDD(self, self.TRUE)

    def false(self) -> "BDD":
        return BDD(self, self.FALSE)

    def var(self, name: str) -> "BDD":
        self.declare(name)
        return BDD(self, self._mk(self.level_of(name), self.FALSE, self.TRUE))

    def nvar(self, name: str) -> "BDD":
        self.declare(name)
        return BDD(self, self._mk(self.level_of(name), self.TRUE, self.FALSE))

    # -- core ITE -------------------------------------------------------------
    def _top_level(self, *roots: int) -> int:
        levels = [self._nodes[r].level for r in roots if r > 1]
        return min(levels) if levels else len(self._order)

    def _cofactors(self, root: int, level: int) -> Tuple[int, int]:
        if root <= 1:
            return root, root
        node = self._nodes[root]
        if node.level == level:
            return node.low, node.high
        return root, root

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = self._top_level(f, g, h)
        f_low, f_high = self._cofactors(f, level)
        g_low, g_high = self._cofactors(g, level)
        h_low, h_high = self._cofactors(h, level)
        low = self._ite(f_low, g_low, h_low)
        high = self._ite(f_high, g_high, h_high)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    # -- conversions ------------------------------------------------------------
    def from_expr(self, expr: BoolExpr) -> "BDD":
        """Build a BDD from a boolean expression, declaring variables on the fly."""
        if isinstance(expr, Const):
            return self.true() if expr.value else self.false()
        if isinstance(expr, Var):
            return self.var(expr.name)
        if isinstance(expr, NotExpr):
            return ~self.from_expr(expr.operand)
        if isinstance(expr, AndExpr):
            result = self.true()
            for operand in expr.operands:
                result = result & self.from_expr(operand)
            return result
        if isinstance(expr, OrExpr):
            result = self.false()
            for operand in expr.operands:
                result = result | self.from_expr(operand)
            return result
        if isinstance(expr, XorExpr):
            result = self.false()
            for operand in expr.operands:
                result = result ^ self.from_expr(operand)
            return result
        raise BDDError(f"cannot convert expression of type {type(expr).__name__}")

    def from_cube(self, cube: Cube) -> "BDD":
        result = self.true()
        for name, value in cube:
            result = result & (self.var(name) if value else self.nvar(name))
        return result

    def node_count(self) -> int:
        """Number of decision nodes allocated by the manager."""
        return len(self._nodes) - 2


class BDD:
    """A boolean function: a root index inside a :class:`BDDManager`."""

    __slots__ = ("manager", "root")

    def __init__(self, manager: BDDManager, root: int):
        self.manager = manager
        self.root = root

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BDD)
            and other.manager is self.manager
            and other.root == self.root
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.root))

    def _check(self, other: "BDD") -> None:
        if other.manager is not self.manager:
            raise BDDError("cannot combine BDDs from different managers")

    # -- boolean algebra --------------------------------------------------------
    def __and__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager._ite(self.root, other.root, BDDManager.FALSE))

    def __or__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager._ite(self.root, BDDManager.TRUE, other.root))

    def __xor__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager._ite(self.root, (~other).root, other.root))

    def __invert__(self) -> "BDD":
        return BDD(self.manager, self.manager._ite(self.root, BDDManager.FALSE, BDDManager.TRUE))

    def implies(self, other: "BDD") -> "BDD":
        return (~self) | other

    def iff(self, other: "BDD") -> "BDD":
        return ~(self ^ other)

    def ite(self, when_true: "BDD", when_false: "BDD") -> "BDD":
        self._check(when_true)
        self._check(when_false)
        return BDD(self.manager, self.manager._ite(self.root, when_true.root, when_false.root))

    # -- predicates ---------------------------------------------------------------
    def is_true(self) -> bool:
        return self.root == BDDManager.TRUE

    def is_false(self) -> bool:
        return self.root == BDDManager.FALSE

    def equivalent(self, other: "BDD") -> bool:
        self._check(other)
        return self.root == other.root

    # -- structure ----------------------------------------------------------------
    def support(self) -> frozenset:
        """Set of variable names the function actually depends on."""
        names = set()
        seen = set()
        stack = [self.root]
        while stack:
            root = stack.pop()
            if root <= 1 or root in seen:
                continue
            seen.add(root)
            node = self.manager._nodes[root]
            names.add(self.manager.variables[node.level])
            stack.append(node.low)
            stack.append(node.high)
        return frozenset(names)

    # -- evaluation / quantification -----------------------------------------------
    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        root = self.root
        while root > 1:
            node = self.manager._nodes[root]
            name = self.manager.variables[node.level]
            root = node.high if assignment.get(name, False) else node.low
        return root == BDDManager.TRUE

    def restrict(self, assignment: Mapping[str, bool]) -> "BDD":
        """Cofactor with respect to a partial assignment.

        A variable the manager never declared cannot occur in the function,
        so it leaves the function unchanged.
        """
        root = self.root
        for name, value in assignment.items():
            if name in self.manager._level:
                root = self._cofactor_root(root, name, value)
        return BDD(self.manager, root)

    def _cofactor_root(self, root: int, name: str, value: bool) -> int:
        level = self.manager.level_of(name)
        cache: Dict[int, int] = {}

        def walk(node_root: int) -> int:
            if node_root <= 1:
                return node_root
            cached = cache.get(node_root)
            if cached is not None:
                return cached
            node = self.manager._nodes[node_root]
            if node.level == level:
                result = node.high if value else node.low
            elif node.level > level:
                result = node_root
            else:
                result = self.manager._mk(node.level, walk(node.low), walk(node.high))
            cache[node_root] = result
            return result

        return walk(root)

    def exists(self, names: Iterable[str]) -> "BDD":
        """Existential quantification over the given variables."""
        result = self
        for name in names:
            low = BDD(self.manager, self._cofactor_root(result.root, name, False))
            high = BDD(self.manager, self._cofactor_root(result.root, name, True))
            result = low | high
        return result

    def forall(self, names: Iterable[str]) -> "BDD":
        """Universal quantification over the given variables."""
        result = self
        for name in names:
            low = BDD(self.manager, self._cofactor_root(result.root, name, False))
            high = BDD(self.manager, self._cofactor_root(result.root, name, True))
            result = low & high
        return result

    def rename(self, mapping: Mapping[str, str]) -> "BDD":
        """Rename variables (compose with the identity on other variables).

        The renaming must be injective on the function's support and no
        target may already occur in it (so simultaneous swaps are rejected):
        renaming onto an existing variable silently merges two distinct
        dimensions of the function, which is never what a transition-relation
        shift wants, so it raises :class:`BDDError` instead.  Each pair is
        applied as the relational composition ``∃ old. f ∧ (new ↔ old)`` —
        linear passes over the DAG, never a round-trip through cube covers.
        """
        support = self.support()
        relevant = {
            old: new for old, new in mapping.items() if old != new and old in support
        }
        if not relevant:
            return self
        targets = list(relevant.values())
        if len(set(targets)) != len(targets):
            raise BDDError("rename maps two variables onto the same target")
        for new in targets:
            if new in support:
                raise BDDError(
                    f"rename target {new!r} already occurs in the function's support"
                )
        result = self
        for old, new in relevant.items():
            literal = self.manager.var(new)
            old_literal = self.manager.var(old)
            result = (result & literal.iff(old_literal)).exists([old])
        return result

    # -- enumeration ------------------------------------------------------------------
    def satisfying_cubes(self) -> Iterator[Cube]:
        """Yield disjoint cubes (one per BDD path to TRUE) covering the function."""

        def walk(root: int, partial: Dict[str, bool]) -> Iterator[Cube]:
            if root == BDDManager.FALSE:
                return
            if root == BDDManager.TRUE:
                yield Cube(dict(partial))
                return
            node = self.manager._nodes[root]
            name = self.manager.variables[node.level]
            partial[name] = False
            yield from walk(node.low, partial)
            partial[name] = True
            yield from walk(node.high, partial)
            del partial[name]

        yield from walk(self.root, {})

    def satisfying_assignments(self, names: Sequence[str]) -> Iterator[Dict[str, bool]]:
        """Yield all total assignments over ``names`` satisfying the function."""
        names = list(names)
        from .boolexpr import all_assignments

        for assignment in all_assignments(names):
            if self.evaluate(assignment):
                yield assignment

    def count_solutions(self, names: Sequence[str]) -> int:
        """Number of satisfying assignments over ``names``."""
        return sum(1 for _ in self.satisfying_assignments(names))

    # -- conversions --------------------------------------------------------------------
    def to_cover(self, minimize: bool = True) -> Cover:
        """Return a cube cover of the function (optionally QM-minimised)."""
        cover = Cover(list(self.satisfying_cubes()))
        if not minimize or cover.is_false() or cover.is_true():
            return cover
        from .cube import minimize_cover

        names = sorted(self.support())
        return minimize_cover(cover, names)

    def to_expr(self, minimize: bool = True) -> BoolExpr:
        """Convert back to a boolean expression (sum of cubes)."""
        if self.is_true():
            return and_()
        if self.is_false():
            return or_()
        return self.to_cover(minimize=minimize).to_expr()
