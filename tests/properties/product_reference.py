"""Dict/list reference construction of the Kripke × automata product.

The differential oracle of :func:`repro.mc.product.kripke_automata_product`:
it re-checks every automaton label against the full signal valuation and
enumerates successor combinations recursively, with none of the bitmasks or
memos of the fast path.  It numbers states, orders labels, marks initial
states and lifts acceptance sets the same way, so the two products must
compare equal field by field.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.ltl.buchi import GeneralizedBuchi, Literal
from repro.rtl.kripke import KripkeStructure


def reference_product(
    kripke: KripkeStructure, automata: Sequence[GeneralizedBuchi]
) -> GeneralizedBuchi:
    """The synchronous product, built by the dict/list reference loop."""
    automata = list(automata)
    product = GeneralizedBuchi()
    index: Dict[Tuple[int, ...], int] = {}

    def get_state(combo: Tuple[int, ...], initial: bool = False) -> int:
        ident = index.get(combo)
        if ident is None:
            ident = len(index)
            index[combo] = ident
            valuation = kripke.label(combo[0])
            label = frozenset((name, bool(value)) for name, value in valuation.items())
            product.add_state(ident, label, initial=initial, annotation=combo)
        elif initial:
            product.initial.add(ident)
        return ident

    _explore_dict(kripke, automata, product, get_state)

    for component, automaton in enumerate(automata):
        for accept_set in automaton.acceptance:
            lifted = frozenset(
                ident for combo, ident in index.items() if combo[component + 1] in accept_set
            )
            product.acceptance.append(lifted)
    return product


def _compatible(label: FrozenSet[Literal], valuation: Mapping[str, bool]) -> bool:
    """True when the automaton label agrees with a full signal valuation."""
    for name, value in label:
        if bool(valuation.get(name, False)) != value:
            return False
    return True


def _explore_dict(
    kripke: KripkeStructure,
    automata: List[GeneralizedBuchi],
    product: GeneralizedBuchi,
    get_state,
) -> None:
    """Worklist exploration over dicts and lists."""

    def compatible_states(automaton: GeneralizedBuchi, candidates: Iterable[int],
                          valuation: Mapping[str, bool]) -> List[int]:
        return [state for state in candidates
                if _compatible(automaton.labels[state], valuation)]

    worklist: List[Tuple[int, ...]] = []
    seen: Set[Tuple[int, ...]] = set()
    for kripke_state in sorted(kripke.initial):
        valuation = kripke.label(kripke_state)
        per_component = [
            compatible_states(automaton, sorted(automaton.initial), valuation)
            for automaton in automata
        ]
        if any(not choices for choices in per_component):
            continue
        for combo_rest in _cartesian(per_component):
            combo = (kripke_state,) + combo_rest
            get_state(combo, initial=True)
            if combo not in seen:
                seen.add(combo)
                worklist.append(combo)

    while worklist:
        combo = worklist.pop()
        source = get_state(combo)
        kripke_state = combo[0]
        for kripke_target in sorted(kripke.successors(kripke_state)):
            valuation = kripke.label(kripke_target)
            per_component = [
                compatible_states(
                    automata[i], sorted(automata[i].transitions.get(combo[i + 1], set())), valuation
                )
                for i in range(len(automata))
            ]
            if any(not choices for choices in per_component):
                continue
            for combo_rest in _cartesian(per_component):
                target_combo = (kripke_target,) + combo_rest
                target = get_state(target_combo)
                product.add_transition(source, target)
                if target_combo not in seen:
                    seen.add(target_combo)
                    worklist.append(target_combo)


def _cartesian(choices: Sequence[Sequence[int]]) -> Iterable[Tuple[int, ...]]:
    if not choices:
        yield ()
        return
    head, *tail = choices
    for value in head:
        for rest in _cartesian(tail):
            yield (value,) + rest
