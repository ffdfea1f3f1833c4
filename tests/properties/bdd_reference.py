"""Per-variable reference implementations of the BDD kernel's one-pass operations.

The differential oracle of :mod:`repro.logic.bdd` and of the symbolic
engine's image computation:

* ``exists``/``forall`` quantify one variable at a time, each as two fresh
  cofactor walks combined by OR (AND for ``forall``);
* ``rename`` applies each pair as the relational composition
  ``∃ old. f ∧ (new ↔ old)``;
* the relational step conjoins the whole partition schedule with the seed
  and quantifies each variable right after the last conjunct that mentions
  it — conjoin, then ``exists`` — with no relational product.

Every function works on the live manager's node table, so a fast operation
and its reference must return the very same root.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set

from repro.logic.bdd import BDD, BDDError
from repro.mc.symbolic import SymbolicProduct


def _cofactor(function: BDD, name: str, value: bool) -> BDD:
    """``function`` with ``name`` fixed to ``value``, by one memoised walk."""
    manager = function.manager
    level = manager.level_of(name)
    cache: Dict[int, int] = {}

    def walk(root: int) -> int:
        if root <= 1:
            return root
        cached = cache.get(root)
        if cached is not None:
            return cached
        node_level, low, high = manager._nodes[root]
        if node_level == level:
            result = high if value else low
        elif node_level > level:
            result = root
        else:
            result = manager._mk(node_level, walk(low), walk(high))
        cache[root] = result
        return result

    return BDD(manager, walk(function.root))


def reference_exists(function: BDD, names: Iterable[str]) -> BDD:
    result = function
    for name in names:
        result = _cofactor(result, name, False) | _cofactor(result, name, True)
    return result


def reference_forall(function: BDD, names: Iterable[str]) -> BDD:
    result = function
    for name in names:
        result = _cofactor(result, name, False) & _cofactor(result, name, True)
    return result


def reference_rename(function: BDD, mapping: Mapping[str, str]) -> BDD:
    support = function.support()
    relevant = {old: new for old, new in mapping.items() if old != new and old in support}
    if not relevant:
        return function
    targets = list(relevant.values())
    if len(set(targets)) != len(targets):
        raise BDDError("rename maps two variables onto the same target")
    for new in targets:
        if new in support:
            raise BDDError(f"rename target {new!r} already occurs in the function's support")
    manager = function.manager
    result = function
    for old, new in relevant.items():
        literal = manager.var(new)
        result = reference_exists(result & literal.iff(manager.var(old)), [old])
    return result


def reference_relational_step(
    product: SymbolicProduct, seed: BDD, quantify: Sequence[str]
) -> BDD:
    """Conjoin the partition (narrowest first) with ``seed``, then quantify."""
    schedule = sorted(product.partition, key=lambda part: len(part.support()))
    suffix_support: List[Set[str]] = [set()] * len(schedule)
    running: Set[str] = set()
    for idx in range(len(schedule) - 1, -1, -1):
        suffix_support[idx] = set(running)
        running |= set(schedule[idx].support())
    pending = set(quantify)
    acc = seed
    for idx, part in enumerate(schedule):
        acc = acc & part
        ripe = {name for name in pending if name not in suffix_support[idx]}
        if ripe:
            acc = reference_exists(acc, sorted(ripe))
            pending -= ripe
    if pending:
        acc = reference_exists(acc, sorted(pending))
    return acc


def reference_image(product: SymbolicProduct, states: BDD) -> BDD:
    primed = reference_relational_step(product, states, product.current_vars)
    return reference_rename(primed, product._rename_to_current)


def reference_preimage(product: SymbolicProduct, states: BDD) -> BDD:
    primed = reference_rename(states, product._rename_to_next)
    return reference_relational_step(
        product, primed, [product._rename_to_next[name] for name in product.current_vars]
    )
