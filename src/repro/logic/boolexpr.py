"""Boolean expression layer: a hash-consed boolean kernel.

Boolean expressions are the workhorse of the RTL substrate: combinational
assignments, latch next-state functions, FSM transition guards and state
labels are all :class:`BoolExpr` trees over named signals.

The representation is a small immutable AST (``Var``, ``Const``, ``NotExpr``,
``AndExpr``, ``OrExpr``, ``XorExpr``).  Nodes are **hash-consed**: every
constructor interns through a global unique table (exactly like the unique
table of the BDD manager in :mod:`repro.logic.bdd`), so structurally equal
expressions are the *same object*.  That makes equality checks and dictionary
lookups effectively O(1) on shared structure, turns expression trees into
DAGs, and lets ``variables()``, ``substitute()`` and ``cofactor()`` memoise
their results.

Convenience operators are provided (``&``, ``|``, ``^``, ``~``) together with
evaluation, substitution, cofactoring, constant-propagation simplification and
truth-table utilities.

Decision procedures (:func:`is_tautology`, :func:`is_contradiction`,
:func:`expr_equivalent`) each build one ROBDD (:mod:`repro.logic.bdd`) over
the support and read its root.  The exhaustive truth-table implementations
remain available as :func:`enumerate_is_tautology` etc., the reference the
tests compare the BDD answers against.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence, Tuple

__all__ = [
    "BoolExpr",
    "Var",
    "Const",
    "NotExpr",
    "AndExpr",
    "OrExpr",
    "XorExpr",
    "TRUE",
    "FALSE",
    "var",
    "const",
    "and_",
    "or_",
    "xor",
    "implies",
    "iff",
    "mux",
    "all_assignments",
    "truth_table",
    "expr_equivalent",
    "is_tautology",
    "is_contradiction",
    "minterms",
    "enumerate_is_tautology",
    "enumerate_is_contradiction",
    "enumerate_equivalent",
    "intern_stats",
]


# -- the unique table ---------------------------------------------------------
#
# One global table maps a structural key to the canonical node.  Keys hash the
# *children's identities* (children are themselves interned), so building a
# node costs O(arity) regardless of expression depth.  Values are held weakly
# (à la the classic hash-consing discipline): a node no longer reachable from
# user code is collected and its table entry — whose key tuple holds the only
# remaining strong references to the children — disappears with it, so the
# table tracks the live working set instead of growing monotonically.

_UNIQUE: "weakref.WeakValueDictionary[tuple, BoolExpr]" = weakref.WeakValueDictionary()

# Memoisation caches for the derived operations.  They are correct forever
# (expressions are immutable).  Unlike the unique table they hold *strong*
# references, so cached nodes (and their sub-DAGs) stay pinned until the size
# cap is hit, at which point the whole cache is dropped and memoisation
# restarts cold — a deliberate bounded-memory / recompute trade-off.
_COFACTOR_CACHE: Dict[Tuple["BoolExpr", str, bool], "BoolExpr"] = {}
_SIMPLIFY_CACHE: Dict["BoolExpr", "BoolExpr"] = {}
_CACHE_LIMIT = 1 << 17


def _cache_guard(cache: dict) -> None:
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()


def intern_stats() -> Dict[str, int]:
    """Sizes of the unique table and the memoisation caches (for tests/tuning)."""
    return {
        "unique_nodes": len(_UNIQUE),
        "cofactor_cache": len(_COFACTOR_CACHE),
        "simplify_cache": len(_SIMPLIFY_CACHE),
    }


class BoolExpr:
    """Base class of all boolean expression nodes.

    Instances are immutable, interned and hashable.  The operator overloads
    build new nodes with light constant folding (``x & TRUE`` returns ``x``).
    The ``_fingerprint`` slot caches
    :func:`repro.runner.cache.expr_fingerprint` on the node; it is set on
    first use, so it lives exactly as long as the (weakly interned) node.
    """

    __slots__ = ("_hash", "_vars", "_fingerprint", "__weakref__")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __hash__(self) -> int:
        return self._hash

    # Interned nodes are canonical: structural equality is object identity.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def __copy__(self) -> "BoolExpr":
        return self

    def __deepcopy__(self, memo) -> "BoolExpr":
        return self

    # -- operator overloads -------------------------------------------------
    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return and_(self, other)

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return or_(self, other)

    def __xor__(self, other: "BoolExpr") -> "BoolExpr":
        return xor(self, other)

    def __invert__(self) -> "BoolExpr":
        return not_(self)

    def __rshift__(self, other: "BoolExpr") -> "BoolExpr":
        """``a >> b`` builds the implication ``a -> b``."""
        return implies(self, other)

    # -- core API -----------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a total assignment of the expression's variables."""
        raise NotImplementedError

    def variables(self) -> FrozenSet[str]:
        """Return the set of variable names appearing in the expression (memoised)."""
        cached = self._vars
        if cached is None:
            cached = self._compute_variables()
            object.__setattr__(self, "_vars", cached)
        return cached

    def _compute_variables(self) -> FrozenSet[str]:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "BoolExpr"]) -> "BoolExpr":
        """Simultaneously substitute variables by expressions.

        Substitution runs over the shared DAG with a per-call memo, so a
        sub-expression occurring many times is rewritten once.
        """
        if not mapping:
            return self
        return _substitute(self, mapping, {})

    def _substitute(self, mapping: Mapping[str, "BoolExpr"], memo: dict) -> "BoolExpr":
        raise NotImplementedError

    def cofactor(self, name: str, value: bool) -> "BoolExpr":
        """Shannon cofactor: substitute ``name`` by a constant and simplify."""
        key = (self, name, bool(value))
        cached = _COFACTOR_CACHE.get(key)
        if cached is None:
            cached = self.substitute({name: const(value)}).simplify()
            _cache_guard(_COFACTOR_CACHE)
            _COFACTOR_CACHE[key] = cached
        return cached

    def simplify(self) -> "BoolExpr":
        """Constant propagation and local simplification (not canonical)."""
        return self

    # -- rendering ----------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - exercised via to_str tests
        return self.to_str()

    def to_str(self) -> str:
        raise NotImplementedError


def _substitute(expr: BoolExpr, mapping: Mapping[str, BoolExpr], memo: dict) -> BoolExpr:
    cached = memo.get(expr)
    if cached is None:
        cached = expr._substitute(mapping, memo)
        memo[expr] = cached
    return cached


def _intern(cls, payload, factory) -> "BoolExpr":
    key = (cls, payload)
    node = _UNIQUE.get(key)
    if node is None:
        node = factory(key)
        _UNIQUE[key] = node
    return node


def _new_node(cls, key) -> "BoolExpr":
    node = object.__new__(cls)
    object.__setattr__(node, "_hash", hash(key))
    object.__setattr__(node, "_vars", None)
    return node


class Var(BoolExpr):
    """A named boolean signal."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        def build(key):
            node = _new_node(cls, key)
            object.__setattr__(node, "name", name)
            return node

        return _intern(cls, name, build)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"

    def __reduce__(self):
        return (Var, (self.name,))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        try:
            return bool(assignment[self.name])
        except KeyError as exc:
            raise KeyError(f"no value for variable {self.name!r}") from exc

    def _compute_variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def _substitute(self, mapping: Mapping[str, BoolExpr], memo: dict) -> BoolExpr:
        return mapping.get(self.name, self)

    def to_str(self) -> str:
        return self.name


class Const(BoolExpr):
    """A boolean constant (``TRUE`` / ``FALSE``)."""

    __slots__ = ("value",)

    def __new__(cls, value: bool):
        value = bool(value)

        def build(key):
            node = _new_node(cls, key)
            object.__setattr__(node, "value", value)
            return node

        return _intern(cls, value, build)

    def __repr__(self) -> str:
        return f"Const(value={self.value!r})"

    def __reduce__(self):
        return (Const, (self.value,))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.value

    def _compute_variables(self) -> FrozenSet[str]:
        return frozenset()

    def _substitute(self, mapping: Mapping[str, BoolExpr], memo: dict) -> BoolExpr:
        return self

    def to_str(self) -> str:
        return "1" if self.value else "0"


class NotExpr(BoolExpr):
    """Logical negation."""

    __slots__ = ("operand",)

    def __new__(cls, operand: BoolExpr):
        def build(key):
            node = _new_node(cls, key)
            object.__setattr__(node, "operand", operand)
            return node

        return _intern(cls, operand, build)

    def __repr__(self) -> str:
        return f"NotExpr(operand={self.operand!r})"

    def __reduce__(self):
        return (NotExpr, (self.operand,))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def _compute_variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def _substitute(self, mapping: Mapping[str, BoolExpr], memo: dict) -> BoolExpr:
        return not_(_substitute(self.operand, mapping, memo))

    def simplify(self) -> BoolExpr:
        cached = _SIMPLIFY_CACHE.get(self)
        if cached is None:
            inner = self.operand.simplify()
            if isinstance(inner, Const):
                cached = const(not inner.value)
            elif isinstance(inner, NotExpr):
                cached = inner.operand
            else:
                cached = not_(inner)
            _cache_guard(_SIMPLIFY_CACHE)
            _SIMPLIFY_CACHE[self] = cached
        return cached

    def to_str(self) -> str:
        inner = self.operand
        if isinstance(inner, (Var, Const, NotExpr)):
            return f"!{inner.to_str()}"
        return f"!({inner.to_str()})"


class _NaryExpr(BoolExpr):
    """Shared implementation of associative n-ary connectives."""

    __slots__ = ("operands",)

    _symbol = "?"

    def __new__(cls, operands: Iterable[BoolExpr]):
        operands = tuple(operands)

        def build(key):
            node = _new_node(cls, key)
            object.__setattr__(node, "operands", operands)
            return node

        return _intern(cls, operands, build)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(operands={self.operands!r})"

    def __reduce__(self):
        return (type(self), (self.operands,))

    def _compute_variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for operand in self.operands:
            names = names | operand.variables()
        return names

    def to_str(self) -> str:
        parts = []
        for operand in self.operands:
            text = operand.to_str()
            if isinstance(operand, _NaryExpr):
                text = f"({text})"
            parts.append(text)
        return f" {self._symbol} ".join(parts)


class AndExpr(_NaryExpr):
    """N-ary conjunction."""

    __slots__ = ()

    _symbol = "&"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(operand.evaluate(assignment) for operand in self.operands)

    def _substitute(self, mapping: Mapping[str, BoolExpr], memo: dict) -> BoolExpr:
        return and_(*(_substitute(operand, mapping, memo) for operand in self.operands))

    def simplify(self) -> BoolExpr:
        cached = _SIMPLIFY_CACHE.get(self)
        if cached is None:
            cached = and_(*(operand.simplify() for operand in self.operands))
            _cache_guard(_SIMPLIFY_CACHE)
            _SIMPLIFY_CACHE[self] = cached
        return cached


class OrExpr(_NaryExpr):
    """N-ary disjunction."""

    __slots__ = ()

    _symbol = "|"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(operand.evaluate(assignment) for operand in self.operands)

    def _substitute(self, mapping: Mapping[str, BoolExpr], memo: dict) -> BoolExpr:
        return or_(*(_substitute(operand, mapping, memo) for operand in self.operands))

    def simplify(self) -> BoolExpr:
        cached = _SIMPLIFY_CACHE.get(self)
        if cached is None:
            cached = or_(*(operand.simplify() for operand in self.operands))
            _cache_guard(_SIMPLIFY_CACHE)
            _SIMPLIFY_CACHE[self] = cached
        return cached


class XorExpr(_NaryExpr):
    """N-ary exclusive-or (true when an odd number of operands are true)."""

    __slots__ = ()

    _symbol = "^"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return sum(1 for operand in self.operands if operand.evaluate(assignment)) % 2 == 1

    def _substitute(self, mapping: Mapping[str, BoolExpr], memo: dict) -> BoolExpr:
        return xor(*(_substitute(operand, mapping, memo) for operand in self.operands))

    def simplify(self) -> BoolExpr:
        cached = _SIMPLIFY_CACHE.get(self)
        if cached is None:
            cached = xor(*(operand.simplify() for operand in self.operands))
            _cache_guard(_SIMPLIFY_CACHE)
            _SIMPLIFY_CACHE[self] = cached
        return cached


TRUE = Const(True)
FALSE = Const(False)


def var(name: str) -> Var:
    """Create a variable node."""
    if not name:
        raise ValueError("variable name must be non-empty")
    return Var(name)


def const(value: bool) -> Const:
    """Create a constant node."""
    return TRUE if value else FALSE


def not_(operand: BoolExpr) -> BoolExpr:
    """Negation with double-negation and constant folding."""
    if isinstance(operand, Const):
        return const(not operand.value)
    if isinstance(operand, NotExpr):
        return operand.operand
    return NotExpr(operand)


def _flatten(cls, operands: Iterable[BoolExpr]) -> Iterator[BoolExpr]:
    for operand in operands:
        if isinstance(operand, cls):
            yield from operand.operands
        else:
            yield operand


def and_(*operands: BoolExpr) -> BoolExpr:
    """Conjunction with flattening, deduplication and constant folding."""
    flat = []
    seen = set()
    for operand in _flatten(AndExpr, operands):
        if isinstance(operand, Const):
            if not operand.value:
                return FALSE
            continue
        if operand in seen:
            continue
        seen.add(operand)
        flat.append(operand)
    for operand in flat:
        if not_(operand) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndExpr(tuple(flat))


def or_(*operands: BoolExpr) -> BoolExpr:
    """Disjunction with flattening, deduplication and constant folding."""
    flat = []
    seen = set()
    for operand in _flatten(OrExpr, operands):
        if isinstance(operand, Const):
            if operand.value:
                return TRUE
            continue
        if operand in seen:
            continue
        seen.add(operand)
        flat.append(operand)
    for operand in flat:
        if not_(operand) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrExpr(tuple(flat))


def xor(*operands: BoolExpr) -> BoolExpr:
    """Exclusive-or with constant folding and pair cancellation."""
    parity = False
    counts: Dict[BoolExpr, int] = {}
    order = []
    for operand in _flatten(XorExpr, operands):
        if isinstance(operand, Const):
            parity ^= operand.value
            continue
        if operand not in counts:
            counts[operand] = 0
            order.append(operand)
        counts[operand] += 1
    flat = [operand for operand in order if counts[operand] % 2 == 1]
    if not flat:
        return const(parity)
    expr: BoolExpr
    if len(flat) == 1:
        expr = flat[0]
    else:
        expr = XorExpr(tuple(flat))
    return not_(expr) if parity else expr


def implies(antecedent: BoolExpr, consequent: BoolExpr) -> BoolExpr:
    """Implication ``antecedent -> consequent`` as ``!a | b``."""
    return or_(not_(antecedent), consequent)


def iff(left: BoolExpr, right: BoolExpr) -> BoolExpr:
    """Biconditional ``left <-> right``."""
    return or_(and_(left, right), and_(not_(left), not_(right)))


def mux(select: BoolExpr, when_true: BoolExpr, when_false: BoolExpr) -> BoolExpr:
    """Two-way multiplexer ``select ? when_true : when_false``."""
    return or_(and_(select, when_true), and_(not_(select), when_false))


def all_assignments(names: Sequence[str]) -> Iterator[Dict[str, bool]]:
    """Iterate over all ``2**len(names)`` assignments in a stable order."""
    names = list(names)
    count = len(names)
    for bits in range(1 << count):
        yield {names[i]: bool((bits >> (count - 1 - i)) & 1) for i in range(count)}


def truth_table(expr: BoolExpr, names: Sequence[str] | None = None) -> Dict[Tuple[bool, ...], bool]:
    """Return the full truth table of ``expr`` keyed by input tuples."""
    if names is None:
        names = sorted(expr.variables())
    table = {}
    for assignment in all_assignments(list(names)):
        key = tuple(assignment[name] for name in names)
        table[key] = expr.evaluate(assignment)
    return table


# -- decision procedures ------------------------------------------------------
#
# The module-level predicates build one ROBDD over the support and read its
# root.  The ``enumerate_*`` functions are the exhaustive reference
# implementations.


def enumerate_equivalent(left: BoolExpr, right: BoolExpr) -> bool:
    """Semantic equivalence by exhaustive evaluation over the joint support."""
    names = sorted(left.variables() | right.variables())
    return all(
        left.evaluate(assignment) == right.evaluate(assignment)
        for assignment in all_assignments(names)
    )


def enumerate_is_tautology(expr: BoolExpr) -> bool:
    """True when the expression evaluates to true under every assignment."""
    names = sorted(expr.variables())
    return all(expr.evaluate(assignment) for assignment in all_assignments(names))


def enumerate_is_contradiction(expr: BoolExpr) -> bool:
    """True when the expression evaluates to false under every assignment."""
    names = sorted(expr.variables())
    return not any(expr.evaluate(assignment) for assignment in all_assignments(names))


def _bdd_manager(*exprs: BoolExpr):
    """A fresh BDD manager over the joint support of ``exprs``: one decision."""
    from ..obs import metrics
    from .bdd import BDDManager

    metrics().inc("prop.bdd.queries")
    return BDDManager(sorted(frozenset().union(*(expr.variables() for expr in exprs))))


def expr_equivalent(left: BoolExpr, right: BoolExpr) -> bool:
    """Semantic equivalence: both sides reduce to the same BDD root."""
    if left is right:
        return True
    manager = _bdd_manager(left, right)
    return manager.from_expr(left).root == manager.from_expr(right).root


def is_tautology(expr: BoolExpr) -> bool:
    """Validity: the expression's BDD is the TRUE terminal."""
    return _bdd_manager(expr).from_expr(expr).is_true()


def is_contradiction(expr: BoolExpr) -> bool:
    """Unsatisfiability: the expression's BDD is the FALSE terminal."""
    return _bdd_manager(expr).from_expr(expr).is_false()


def minterms(expr: BoolExpr, names: Sequence[str] | None = None) -> Iterator[Dict[str, bool]]:
    """Yield every satisfying assignment over ``names`` (defaults to support)."""
    if names is None:
        names = sorted(expr.variables())
    for assignment in all_assignments(list(names)):
        if expr.evaluate(assignment):
            yield assignment
