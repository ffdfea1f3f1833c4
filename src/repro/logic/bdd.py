"""A compact reduced ordered binary decision diagram (ROBDD) package.

The BDD manager provides canonical boolean function representation used by:

* :mod:`repro.mc.symbolic`, whose images are relational products
  (:meth:`BDD.and_exists`) over a partitioned transition relation,
* :mod:`repro.core.tm` to fold ``T_M``'s constant nets, and the
  :mod:`repro.logic.boolexpr` validity and equivalence predicates,
* equivalence checks between combinational blocks and their specifications.

The implementation is a classic hash-consed ITE-based manager with
complement-free nodes (both branches stored explicitly).  Each node is the
``(level, low, high)`` tuple that is also its unique-table key; the two
terminals sit at a sentinel level below every variable.  The relational
product ``∃ names. f ∧ g`` (Burch, Clarke & Long's AndAbstract) and renaming
are each one memoised pass over the DAG; quantifying a set of variables is
the relational product with TRUE (``∀`` is its dual, ``¬∃¬``).
Restriction, satisfying-assignment enumeration and conversion back to
:class:`~repro.logic.boolexpr.BoolExpr` complete the package.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

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


#: Level of the two terminals: below every variable, so the top level of any
#: set of roots is the ``min`` of their levels.
_TERMINAL_LEVEL = 1 << 62


class BDDManager:
    """Owns the node table and variable order for a family of BDDs."""

    FALSE = 0
    TRUE = 1

    def __init__(self, variables: Sequence[str] = ()):
        self._order: List[str] = []
        self._level: Dict[str, int] = {}
        # Node table: index -> (level, low, high), the node's unique-table
        # key.  0/1 are the terminals, at the sentinel level.
        self._nodes: List[Tuple[int, int, int]] = [
            (_TERMINAL_LEVEL, self.FALSE, self.FALSE),
            (_TERMINAL_LEVEL, self.TRUE, self.TRUE),
        ]
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

    def _levels_of(self, names: Iterable[str]) -> frozenset:
        return frozenset(self.level_of(name) for name in names)

    # -- node construction ----------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
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
        nodes = self._nodes
        f_level, f_low, f_high = nodes[f]
        g_level, g_low, g_high = nodes[g]
        h_level, h_low, h_high = nodes[h]
        level = min(f_level, g_level, h_level)
        if f_level != level:
            f_low = f_high = f
        if g_level != level:
            g_low = g_high = g
        if h_level != level:
            h_low = h_high = h
        low = self._ite(f_low, g_low, h_low)
        high = self._ite(f_high, g_high, h_high)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    # -- one-pass relational product and rename ---------------------------------
    def _and_exists(self, f: int, g: int, levels: AbstractSet[int]) -> int:
        """``∃ levels. f ∧ g`` without building ``f ∧ g`` (AndAbstract)."""
        nodes = self._nodes
        false, true = self.FALSE, self.TRUE
        deepest = max(levels, default=-1)
        memo: Dict[Tuple[int, int], int] = {}

        def walk(f: int, g: int) -> int:
            if f > g:
                f, g = g, f
            if f == false:
                return false
            if f == true:
                f = g
            key = (f, g)
            result = memo.get(key)
            if result is not None:
                return result
            f_level, f_low, f_high = nodes[f]
            g_level, g_low, g_high = nodes[g]
            if f_level < g_level:
                level, g_low, g_high = f_level, g, g
            elif g_level < f_level:
                level, f_low, f_high = g_level, f, f
            else:
                level = f_level
            if level > deepest:
                result = self._ite(f, g, false)
            else:
                low = walk(f_low, g_low)
                if level not in levels:
                    result = self._mk(level, low, walk(f_high, g_high))
                elif low == true:
                    result = true
                else:
                    result = self._ite(low, true, walk(f_high, g_high))
            memo[key] = result
            return result

        return walk(f, g)

    def _rename(self, root: int, level_map: Mapping[int, int]) -> int:
        """Map every node's level through ``level_map`` in one memoised pass.

        A node whose new level still sits above both rebuilt children is
        rebuilt in place; any other is rebuilt with ITE on its new variable,
        which keeps every injective renaming correct whatever the order.
        """
        nodes = self._nodes
        deepest = max(level_map)
        memo: Dict[int, int] = {}

        def walk(node: int) -> int:
            result = memo.get(node)
            if result is not None:
                return result
            level, low, high = nodes[node]
            if level > deepest:
                return node
            low = walk(low)
            high = walk(high)
            new = level_map.get(level, level)
            if new < nodes[low][0] and new < nodes[high][0]:
                result = self._mk(new, low, high)
            else:
                result = self._ite(self._mk(new, self.FALSE, self.TRUE), high, low)
            memo[node] = result
            return result

        return walk(root)

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
        nodes = self.manager._nodes
        levels = set()
        seen = set()
        stack = [self.root]
        while stack:
            root = stack.pop()
            if root <= 1 or root in seen:
                continue
            seen.add(root)
            level, low, high = nodes[root]
            levels.add(level)
            stack.append(low)
            stack.append(high)
        order = self.manager._order
        return frozenset(order[level] for level in levels)

    # -- evaluation / quantification -----------------------------------------------
    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        nodes = self.manager._nodes
        order = self.manager._order
        root = self.root
        while root > 1:
            level, low, high = nodes[root]
            root = high if assignment.get(order[level], False) else low
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
            cached = cache.get(node_root)
            if cached is not None:
                return cached
            node_level, low, high = self.manager._nodes[node_root]
            if node_level == level:
                result = high if value else low
            elif node_level > level:
                result = node_root
            else:
                result = self.manager._mk(node_level, walk(low), walk(high))
            cache[node_root] = result
            return result

        return walk(root)

    def exists(self, names: Iterable[str]) -> "BDD":
        """Existential quantification over the given variables (one pass)."""
        return self.and_exists(self.manager.true(), names)

    def forall(self, names: Iterable[str]) -> "BDD":
        """Universal quantification over the given variables: ``¬∃ names. ¬f``."""
        return ~(~self).exists(names)

    def and_exists(self, other: "BDD", names: Iterable[str]) -> "BDD":
        """The relational product ``(self & other).exists(names)``.

        One recursive pass that quantifies while it conjoins, so the
        conjunction itself is never built.
        """
        self._check(other)
        manager = self.manager
        return BDD(manager, manager._and_exists(self.root, other.root, manager._levels_of(names)))

    def rename(self, mapping: Mapping[str, str]) -> "BDD":
        """Rename variables (compose with the identity on other variables).

        The renaming must be injective on the function's support and no
        target may already occur in it (so simultaneous swaps are rejected):
        renaming onto an existing variable silently merges two distinct
        dimensions of the function, which is never what a transition-relation
        shift wants, so it raises :class:`BDDError` instead.  Undeclared
        targets are declared.  One memoised pass maps each node's level
        through the renaming; a renaming that keeps the variable order (every
        current↔next shift of an interleaved order) rebuilds each node in
        place.
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
        manager = self.manager
        for new in targets:
            manager.declare(new)
        level_map = {manager.level_of(old): manager.level_of(new) for old, new in relevant.items()}
        return BDD(manager, manager._rename(self.root, level_map))

    # -- enumeration ------------------------------------------------------------------
    def satisfying_cubes(self) -> Iterator[Cube]:
        """Yield disjoint cubes (one per BDD path to TRUE) covering the function."""

        def walk(root: int, partial: Dict[str, bool]) -> Iterator[Cube]:
            if root == BDDManager.FALSE:
                return
            if root == BDDManager.TRUE:
                yield Cube(dict(partial))
                return
            level, low, high = self.manager._nodes[root]
            name = self.manager._order[level]
            partial[name] = False
            yield from walk(low, partial)
            partial[name] = True
            yield from walk(high, partial)
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
