"""Formula rewriting: negation, NNF, simplification and substitution.

These transformations are the glue between the specification layer and the
automaton layer:

* :func:`negate` / :func:`nnf` prepare formulas for the tableau construction
  (which requires negation normal form),
* :func:`simplify` applies cheap semantics-preserving rules so that formulas
  produced mechanically (e.g. the coverage hole ``A | !(R & T_M)``) stay
  readable,
* :func:`canonical` gives one spelling of a formula, the key under which
  Algorithm 1 decides each distinct question once,
* :func:`substitute_atom_instance` replaces one *atom instance* inside a
  property, for the weakening heuristics of Algorithm 1.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    WeakUntil,
    conj,
)
from .printer import to_str

__all__ = [
    "negate",
    "nnf",
    "canonical",
    "simplify",
    "remove_derived_operators",
    "substitute_atom_instance",
    "conjuncts",
    "expanded_conjuncts",
    "has_complementary_conjuncts",
    "big_and",
]


def negate(formula: Formula) -> Formula:
    """Return the negation, pushing ``!`` one level when cheap."""
    if isinstance(formula, Not):
        return formula.operand
    if isinstance(formula, TrueFormula):
        return FALSE
    if isinstance(formula, FalseFormula):
        return TRUE
    return Not(formula)


def remove_derived_operators(formula: Formula) -> Formula:
    """Rewrite ``->``, ``<->``, ``F``, ``G`` and ``W`` into the core operators.

    The core set is ``{!, &, |, X, U, R}`` which is what the tableau
    construction consumes.
    """
    if isinstance(formula, (Atom, TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Not):
        return Not(remove_derived_operators(formula.operand))
    if isinstance(formula, And):
        return And(remove_derived_operators(formula.left), remove_derived_operators(formula.right))
    if isinstance(formula, Or):
        return Or(remove_derived_operators(formula.left), remove_derived_operators(formula.right))
    if isinstance(formula, Implies):
        return Or(
            Not(remove_derived_operators(formula.left)),
            remove_derived_operators(formula.right),
        )
    if isinstance(formula, Iff):
        left = remove_derived_operators(formula.left)
        right = remove_derived_operators(formula.right)
        return Or(And(left, right), And(Not(left), Not(right)))
    if isinstance(formula, Next):
        return Next(remove_derived_operators(formula.operand))
    if isinstance(formula, Eventually):
        return Until(TRUE, remove_derived_operators(formula.operand))
    if isinstance(formula, Always):
        return Release(FALSE, remove_derived_operators(formula.operand))
    if isinstance(formula, Until):
        return Until(remove_derived_operators(formula.left), remove_derived_operators(formula.right))
    if isinstance(formula, Release):
        return Release(remove_derived_operators(formula.left), remove_derived_operators(formula.right))
    if isinstance(formula, WeakUntil):
        left = remove_derived_operators(formula.left)
        right = remove_derived_operators(formula.right)
        # p W q  ==  q R (p | q)
        return Release(right, Or(left, right))
    raise TypeError(f"unknown formula type {type(formula).__name__}")


def nnf(formula: Formula) -> Formula:
    """Negation normal form over the core operators ``{&, |, X, U, R}``.

    Negations are pushed down to atoms; derived operators are eliminated.
    """
    return _nnf(remove_derived_operators(formula), positive=True)


def _nnf(formula: Formula, positive: bool) -> Formula:
    if isinstance(formula, Atom):
        return formula if positive else Not(formula)
    if isinstance(formula, TrueFormula):
        return TRUE if positive else FALSE
    if isinstance(formula, FalseFormula):
        return FALSE if positive else TRUE
    if isinstance(formula, Not):
        return _nnf(formula.operand, not positive)
    if isinstance(formula, And):
        left = _nnf(formula.left, positive)
        right = _nnf(formula.right, positive)
        return And(left, right) if positive else Or(left, right)
    if isinstance(formula, Or):
        left = _nnf(formula.left, positive)
        right = _nnf(formula.right, positive)
        return Or(left, right) if positive else And(left, right)
    if isinstance(formula, Next):
        return Next(_nnf(formula.operand, positive))
    if isinstance(formula, Until):
        left = _nnf(formula.left, positive)
        right = _nnf(formula.right, positive)
        return Until(left, right) if positive else Release(left, right)
    if isinstance(formula, Release):
        left = _nnf(formula.left, positive)
        right = _nnf(formula.right, positive)
        return Release(left, right) if positive else Until(left, right)
    raise TypeError(f"unexpected formula in NNF conversion: {type(formula).__name__}")


def canonical(formula: Formula) -> Formula:
    """One spelling per formula: :func:`nnf` with flat, sorted ``&``/``|`` chains.

    Every ``&`` and ``|`` chain of the NNF is flattened, duplicate operands
    are dropped and the rest are sorted by their printed text, so commuted,
    re-associated and repeated operands, and ``->``/``<->``/``F``/``G``/``W``
    against their core spellings, give one key.  Each rewrite keeps both the
    meaning and the atom set: equal keys are equivalent formulas with the
    same cone-of-influence slice, so any engine's verdict on one, a bounded
    BMC verdict included, is its verdict on the other.  The key never
    depends on ``PYTHONHASHSEED``.
    """
    return _canonical(nnf(formula))


def _canonical(formula: Formula) -> Formula:
    if isinstance(formula, (And, Or)):
        chain = type(formula)
        parts = {}
        for operand in _chain_operands(formula, chain):
            # A collapsed operand (``(a & b) | (a & b)`` is ``a & b``) may
            # itself continue the chain.
            for part in _chain_operands(_canonical(operand), chain):
                parts.setdefault(to_str(part), part)
        ordered = [parts[text] for text in sorted(parts)]
        result = ordered[0]
        for part in ordered[1:]:
            result = chain(result, part)
        return result
    if isinstance(formula, Next):
        return Next(_canonical(formula.operand))
    if isinstance(formula, (Until, Release)):
        return type(formula)(_canonical(formula.left), _canonical(formula.right))
    # Atoms, negated atoms and constants.
    return formula


def _chain_operands(formula: Formula, chain: type) -> Tuple[Formula, ...]:
    if isinstance(formula, chain):
        return _chain_operands(formula.left, chain) + _chain_operands(formula.right, chain)
    return (formula,)


def simplify(formula: Formula) -> Formula:
    """Apply cheap semantics-preserving simplification rules bottom-up.

    Rules include constant folding, idempotence (``p & p = p``), absorption of
    constants under temporal operators (``G true = true``), collapse of
    duplicated temporal operators (``G G p = G p``, ``F F p = F p``) and the
    standard until/release constant rules.
    """
    return _simplify(formula)


def _simplify(formula: Formula) -> Formula:
    if isinstance(formula, (Atom, TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Not):
        inner = _simplify(formula.operand)
        if isinstance(inner, TrueFormula):
            return FALSE
        if isinstance(inner, FalseFormula):
            return TRUE
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(formula, And):
        left = _simplify(formula.left)
        right = _simplify(formula.right)
        if isinstance(left, FalseFormula) or isinstance(right, FalseFormula):
            return FALSE
        if isinstance(left, TrueFormula):
            return right
        if isinstance(right, TrueFormula):
            return left
        if left == right:
            return left
        if left == negate(right) or right == negate(left):
            return FALSE
        return And(left, right)
    if isinstance(formula, Or):
        left = _simplify(formula.left)
        right = _simplify(formula.right)
        if isinstance(left, TrueFormula) or isinstance(right, TrueFormula):
            return TRUE
        if isinstance(left, FalseFormula):
            return right
        if isinstance(right, FalseFormula):
            return left
        if left == right:
            return left
        if left == negate(right) or right == negate(left):
            return TRUE
        return Or(left, right)
    if isinstance(formula, Implies):
        left = _simplify(formula.left)
        right = _simplify(formula.right)
        if isinstance(left, FalseFormula) or isinstance(right, TrueFormula):
            return TRUE
        if isinstance(left, TrueFormula):
            return right
        if isinstance(right, FalseFormula):
            return _simplify(Not(left))
        if left == right:
            return TRUE
        return Implies(left, right)
    if isinstance(formula, Iff):
        left = _simplify(formula.left)
        right = _simplify(formula.right)
        if isinstance(left, TrueFormula):
            return right
        if isinstance(right, TrueFormula):
            return left
        if isinstance(left, FalseFormula):
            return _simplify(Not(right))
        if isinstance(right, FalseFormula):
            return _simplify(Not(left))
        if left == right:
            return TRUE
        return Iff(left, right)
    if isinstance(formula, Next):
        inner = _simplify(formula.operand)
        if isinstance(inner, (TrueFormula, FalseFormula)):
            return inner
        return Next(inner)
    if isinstance(formula, Eventually):
        inner = _simplify(formula.operand)
        if isinstance(inner, (TrueFormula, FalseFormula)):
            return inner
        if isinstance(inner, Eventually):
            return inner
        return Eventually(inner)
    if isinstance(formula, Always):
        inner = _simplify(formula.operand)
        if isinstance(inner, (TrueFormula, FalseFormula)):
            return inner
        if isinstance(inner, Always):
            return inner
        return Always(inner)
    if isinstance(formula, Until):
        left = _simplify(formula.left)
        right = _simplify(formula.right)
        if isinstance(right, TrueFormula):
            return TRUE
        if isinstance(right, FalseFormula):
            return FALSE
        if isinstance(left, FalseFormula):
            return right
        if isinstance(left, TrueFormula):
            return Eventually(right)
        if left == right:
            return left
        return Until(left, right)
    if isinstance(formula, Release):
        left = _simplify(formula.left)
        right = _simplify(formula.right)
        if isinstance(right, TrueFormula):
            return TRUE
        if isinstance(right, FalseFormula):
            return FALSE
        if isinstance(left, TrueFormula):
            return right
        if isinstance(left, FalseFormula):
            return Always(right)
        if left == right:
            return left
        return Release(left, right)
    if isinstance(formula, WeakUntil):
        left = _simplify(formula.left)
        right = _simplify(formula.right)
        if isinstance(right, TrueFormula):
            return TRUE
        if isinstance(left, FalseFormula):
            return right
        if isinstance(left, TrueFormula):
            return TRUE
        if isinstance(right, FalseFormula):
            return Always(left)
        if left == right:
            return left
        return WeakUntil(left, right)
    raise TypeError(f"unknown formula type {type(formula).__name__}")


def substitute_atom_instance(
    formula: Formula, path: Tuple[int, ...], replacement: Formula
) -> Formula:
    """Replace the single atom instance addressed by ``path`` with ``replacement``."""
    if not path:
        if not isinstance(formula, Atom):
            raise ValueError("path does not address an atom instance")
        return replacement
    children = list(formula.children())
    index = path[0]
    if index >= len(children):
        raise ValueError("invalid path for formula")
    new_child = substitute_atom_instance(children[index], path[1:], replacement)
    return _rebuild(formula, index, new_child)


def _rebuild(formula: Formula, index: int, new_child: Formula) -> Formula:
    if isinstance(formula, Not):
        return Not(new_child)
    if isinstance(formula, (Next, Eventually, Always)):
        return type(formula)(new_child)
    if isinstance(formula, (And, Or, Implies, Iff, Until, Release, WeakUntil)):
        if index == 0:
            return type(formula)(new_child, formula.right)
        return type(formula)(formula.left, new_child)
    raise TypeError(f"cannot rebuild formula of type {type(formula).__name__}")


def conjuncts(formula: Formula) -> Tuple[Formula, ...]:
    """Flatten nested conjunctions into a tuple of conjuncts."""
    if isinstance(formula, And):
        return conjuncts(formula.left) + conjuncts(formula.right)
    if isinstance(formula, TrueFormula):
        return ()
    return (formula,)


def expanded_conjuncts(formula: Formula) -> Tuple[Formula, ...]:
    """Conjuncts after pushing negation through the top-level boolean structure.

    Nested conjunctions are flattened and, additionally, negations are
    distributed over the boolean connectives at the top of the tree
    (``¬(p ∨ q)`` → ``¬p, ¬q``; ``¬¬p`` → ``p``; ``¬(p → q)`` → ``p, ¬q``).
    Temporal operators are never entered, so the result is a cheap, purely
    syntactic decomposition.  Used by the satisfiability front-end to split a
    query into many small conjuncts and to spot contradictions (a formula and
    its negation among the conjuncts) before any automaton is built.
    """
    if isinstance(formula, And):
        return expanded_conjuncts(formula.left) + expanded_conjuncts(formula.right)
    if isinstance(formula, TrueFormula):
        return ()
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, Not):
            return expanded_conjuncts(inner.operand)
        if isinstance(inner, Or):
            return expanded_conjuncts(Not(inner.left)) + expanded_conjuncts(Not(inner.right))
        if isinstance(inner, Implies):
            return expanded_conjuncts(inner.left) + expanded_conjuncts(Not(inner.right))
        if isinstance(inner, TrueFormula):
            return (FALSE,)
        if isinstance(inner, FalseFormula):
            return ()
    return (formula,)


def has_complementary_conjuncts(parts: Sequence[Formula]) -> bool:
    """True when the conjunct set contains ``false`` or both ``f`` and ``¬f``.

    A purely syntactic (structural equality) check — sound but incomplete; the
    caller still needs a semantic decision procedure when it returns False.
    """
    seen = set(parts)
    for part in parts:
        if isinstance(part, FalseFormula):
            return True
        if isinstance(part, Not) and part.operand in seen:
            return True
        if Not(part) in seen:
            return True
    return False


def big_and(formulas: Sequence[Formula]) -> Formula:
    """Conjunction of a sequence (``true`` for the empty sequence)."""
    return conj(*formulas)
