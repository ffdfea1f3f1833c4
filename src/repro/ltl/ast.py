"""LTL formula abstract syntax.

Formulas are immutable, hashable trees.  The node set covers the operators
used by the paper's specifications (Boolean connectives, ``X``, ``F``, ``G``,
strong until ``U``) plus release ``R`` and weak until ``W`` which are needed
for negation normal form and for expressing architectural properties without
liveness obligations.

Operator overloads make property construction read close to the paper:

>>> from repro.ltl import atom, G, X, U
>>> r1, n1 = atom("r1"), atom("n1")
>>> prop = G(r1 >> X(n1))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Tuple

__all__ = [
    "Formula",
    "Atom",
    "TrueFormula",
    "FalseFormula",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Next",
    "Eventually",
    "Always",
    "Until",
    "Release",
    "WeakUntil",
    "TRUE",
    "FALSE",
    "atom",
    "lit",
    "conj",
    "disj",
    "X",
    "F",
    "G",
    "U",
    "R",
    "W",
    "subformulas",
    "atoms_of",
    "atom_support",
    "formula_size",
    "temporal_depth",
    "is_boolean",
]


class Formula:
    """Base class for LTL formula nodes (immutable, hashable).

    Besides ``_hash``, two slots cache pure functions of the node on the
    node itself, set on first use and never at construction: ``_atoms``
    (:func:`atoms_of`) and ``_fingerprint``
    (:func:`repro.runner.cache.formula_fingerprint`).
    """

    __slots__ = ("_hash", "_atoms", "_fingerprint")

    def __hash__(self) -> int:
        # Computed once per node from the node class and its fields (whose
        # hashes are cached in turn), so And(a, b) and Or(a, b), or Not(a)
        # and G(a), hash apart.  The class *name* keeps the value a function
        # of PYTHONHASHSEED alone.
        try:
            return self._hash
        except AttributeError:
            pass
        fields = tuple(getattr(self, name) for name in self.__match_args__)
        value = hash((type(self).__name__,) + fields)
        object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        # Rebuild through the constructor: the default slot-state restore
        # would assign through the frozen ``__setattr__``, and the cached
        # ``_hash`` depends on this process's string hash seed, so it is
        # recomputed on first use, never carried over (nor is any other
        # cached slot).
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    # -- operator sugar -----------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    # -- traversal ----------------------------------------------------------
    def children(self) -> Tuple["Formula", ...]:
        return ()

    def __str__(self) -> str:
        from .printer import to_str

        return to_str(self)

    def __repr__(self) -> str:
        from .printer import to_str

        return f"{type(self).__name__}({to_str(self)!r})"


def _node(cls):
    """``dataclass(frozen=True)`` that keeps the cached :meth:`Formula.__hash__`.

    A frozen dataclass generates a hash of its field tuple unless the class
    defines ``__hash__`` itself; that one would ignore the node class and
    re-walk the whole subtree on every call.
    """
    cls.__hash__ = Formula.__hash__
    return dataclass(frozen=True, repr=False)(cls)


@_node
class Atom(Formula):
    """An atomic proposition: a named boolean signal."""

    name: str

    __slots__ = ("name",)


@_node
class TrueFormula(Formula):
    """The constant ``true``."""

    __slots__ = ()


@_node
class FalseFormula(Formula):
    """The constant ``false``."""

    __slots__ = ()


@_node
class Not(Formula):
    """Negation."""

    operand: Formula

    __slots__ = ("operand",)

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)


@_node
class _Binary(Formula):
    left: Formula
    right: Formula

    __slots__ = ("left", "right")

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)


class And(_Binary):
    """Conjunction."""

    __slots__ = ()


class Or(_Binary):
    """Disjunction."""

    __slots__ = ()


class Implies(_Binary):
    """Implication ``left -> right``."""

    __slots__ = ()


class Iff(_Binary):
    """Biconditional ``left <-> right``."""

    __slots__ = ()


@_node
class _Unary(Formula):
    operand: Formula

    __slots__ = ("operand",)

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)


class Next(_Unary):
    """``X p`` — ``p`` holds at the next position."""

    __slots__ = ()


class Eventually(_Unary):
    """``F p`` — ``p`` holds at some future (or current) position."""

    __slots__ = ()


class Always(_Unary):
    """``G p`` — ``p`` holds at every future (and current) position."""

    __slots__ = ()


class Until(_Binary):
    """``p U q`` — strong until: ``q`` eventually holds, ``p`` until then."""

    __slots__ = ()


class Release(_Binary):
    """``p R q`` — release, the dual of until."""

    __slots__ = ()


class WeakUntil(_Binary):
    """``p W q`` — weak until: ``p U q`` or ``G p``."""

    __slots__ = ()


TRUE = TrueFormula()
FALSE = FalseFormula()


def atom(name: str) -> Atom:
    """Create an atomic proposition."""
    if not name:
        raise ValueError("atom name must be non-empty")
    return Atom(name)


def lit(name: str, positive: bool = True) -> Formula:
    """Create a literal: an atom or its negation."""
    base = atom(name)
    return base if positive else Not(base)


def conj(*operands: Formula) -> Formula:
    """Conjunction of any number of formulas with simple constant folding."""
    flat = []
    for operand in operands:
        if isinstance(operand, TrueFormula):
            continue
        if isinstance(operand, FalseFormula):
            return FALSE
        flat.append(operand)
    if not flat:
        return TRUE
    result = flat[0]
    for operand in flat[1:]:
        result = And(result, operand)
    return result


def disj(*operands: Formula) -> Formula:
    """Disjunction of any number of formulas with simple constant folding."""
    flat = []
    for operand in operands:
        if isinstance(operand, FalseFormula):
            continue
        if isinstance(operand, TrueFormula):
            return TRUE
        flat.append(operand)
    if not flat:
        return FALSE
    result = flat[0]
    for operand in flat[1:]:
        result = Or(result, operand)
    return result


def X(operand: Formula) -> Formula:
    """Next operator (also accepts iterated application via ``Xn``)."""
    return Next(operand)


def Xn(operand: Formula, count: int) -> Formula:
    """Apply ``X`` ``count`` times."""
    result = operand
    for _ in range(count):
        result = Next(result)
    return result


def F(operand: Formula) -> Formula:
    """Eventually operator."""
    return Eventually(operand)


def G(operand: Formula) -> Formula:
    """Always operator."""
    return Always(operand)


def U(left: Formula, right: Formula) -> Formula:
    """Strong until."""
    return Until(left, right)


def R(left: Formula, right: Formula) -> Formula:
    """Release."""
    return Release(left, right)


def W(left: Formula, right: Formula) -> Formula:
    """Weak until."""
    return WeakUntil(left, right)


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield every subformula (including ``formula`` itself), post-order."""
    for child in formula.children():
        yield from subformulas(child)
    yield formula


def atoms_of(formula: Formula) -> FrozenSet[str]:
    """Return the set of atomic proposition names used by the formula.

    Cached on ``formula`` (only on it, not on its subformulas): asking a
    formula twice walks it once.
    """
    try:
        return formula._atoms
    except AttributeError:
        pass
    names = set()
    for sub in subformulas(formula):
        if isinstance(sub, Atom):
            names.add(sub.name)
    atoms = frozenset(names)
    object.__setattr__(formula, "_atoms", atoms)
    return atoms


def atom_support(formulas: Iterable[Formula]) -> FrozenSet[str]:
    """The joint atom support of a set of formulas.

    This is the seed of the cone-of-influence slice a compiled
    :class:`~repro.problem.CompiledProblem` takes of the design: a query over
    these formulas can only observe — and therefore only depend on — the
    drivers in the fan-in of this set.
    """
    names: set = set()
    for formula in formulas:
        names |= atoms_of(formula)
    return frozenset(names)


def formula_size(formula: Formula) -> int:
    """Number of nodes in the formula tree."""
    return sum(1 for _ in subformulas(formula))


def temporal_depth(formula: Formula) -> int:
    """Maximum nesting depth of temporal operators."""
    if isinstance(formula, (Next, Eventually, Always)):
        return 1 + temporal_depth(formula.operand)
    if isinstance(formula, (Until, Release, WeakUntil)):
        return 1 + max(temporal_depth(formula.left), temporal_depth(formula.right))
    children = formula.children()
    if not children:
        return 0
    return max(temporal_depth(child) for child in children)


def is_boolean(formula: Formula) -> bool:
    """True when the formula contains no temporal operators."""
    for sub in subformulas(formula):
        if isinstance(sub, (Next, Eventually, Always, Until, Release, WeakUntil)):
            return False
    return True


# Make Xn part of the public surface (declared after definition for clarity).
__all__.append("Xn")
