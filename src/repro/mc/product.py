"""Product of a Kripke structure with property automata.

The model-relative questions of the paper all have the shape "does the model
``M`` (the concrete modules, with every undriven signal free) have a run
satisfying the temporal formulas ``phi_1, ..., phi_n``?".  They are answered
by building the synchronous product of

* the Kripke structure of the concrete modules (every signal valued in each
  state), and
* one state-labelled Büchi automaton per formula (deterministic safety
  monitors for the common ``G``-invariant shape, GPVW tableaux otherwise),

and checking language emptiness of the product (shared SCC engine in
:mod:`repro.ltl.buchi`).

Because the Kripke state fixes the value of *every* signal, each automaton's
compatible successors are filtered against that valuation before combining,
so deterministic monitor components contribute exactly one successor and the
product does not suffer the exponential branching a conjunction tableau would.

Each automaton's states are packed into dense bit positions, so successor
sets and label-compatibility sets are integer masks and the per-edge filter
is one ``&``.  The filtered successors depend only on the automaton state and
the Kripke target, not on the rest of the product state, so each component
memoises them per (automaton state, Kripke target) pair as a decoded tuple;
the nondeterministic tableaux reach the same pair through thousands of
product states.  Combinations are enumerated with :func:`itertools.product`,
first component outermost, and edges are written straight into the product's
adjacency sets.  States are numbered in discovery order, so the construction
is deterministic (independent of hash seeds).  A plain dict/list construction
in ``tests/properties/product_reference.py`` is its differential oracle: the
two must build byte-identical products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ltl.buchi import GeneralizedBuchi, Literal
from ..rtl.kripke import KripkeStructure

__all__ = ["ProductStatistics", "kripke_automata_product"]


@dataclass
class ProductStatistics:
    """Size statistics of a product construction (reported in benchmarks)."""

    kripke_states: int = 0
    automata: int = 0
    automata_states: int = 0
    product_states: int = 0
    product_transitions: int = 0


class _ComponentBits:
    """Bitmask view of one property automaton, paired with one Kripke structure.

    States are packed into bit positions in ascending state-id order, so
    decoding a mask from least to most significant bit yields states in
    ascending order — the order the product enumerates them in.
    """

    __slots__ = (
        "kripke", "states", "position", "succ", "initial_mask", "atom_masks", "full", "_compat",
    )

    def __init__(self, automaton: GeneralizedBuchi, kripke: KripkeStructure):
        self.kripke = kripke
        self.states: List[int] = sorted(automaton.labels)
        self.position: Dict[int, int] = {
            state: position for position, state in enumerate(self.states)
        }
        self.full = (1 << len(self.states)) - 1
        self.succ: List[int] = [0] * len(self.states)
        for state, targets in automaton.transitions.items():
            mask = 0
            for target in targets:
                mask |= 1 << self.position[target]
            self.succ[self.position[state]] = mask
        self.initial_mask = 0
        for state in automaton.initial:
            self.initial_mask |= 1 << self.position[state]
        # atom name -> (mask of states requiring it true, ... requiring false)
        self.atom_masks: Dict[str, List[int]] = {}
        for state, label in automaton.labels.items():
            bit = 1 << self.position[state]
            for name, value in label:
                pair = self.atom_masks.setdefault(name, [0, 0])
                pair[0 if value else 1] |= bit
        self._compat: Dict[int, int] = {}

    def compatible_mask(self, kripke_state: int) -> int:
        """Mask of automaton states whose labels agree with the Kripke state's valuation."""
        mask = self._compat.get(kripke_state)
        if mask is None:
            valuation = self.kripke.label(kripke_state)
            mask = self.full
            for name, (need_true, need_false) in self.atom_masks.items():
                if bool(valuation.get(name, False)):
                    mask &= ~need_false
                else:
                    mask &= ~need_true
            self._compat[kripke_state] = mask
        return mask

    def bits_to_states(self, mask: int) -> Tuple[int, ...]:
        """Set bits of ``mask`` as state ids, ascending."""
        states = []
        while mask:
            bit = mask & -mask
            states.append(self.states[bit.bit_length() - 1])
            mask ^= bit
        return tuple(states)

    def initial_states(self, kripke_state: int) -> Tuple[int, ...]:
        """Initial states whose labels agree with the Kripke state's valuation."""
        return self.bits_to_states(self.initial_mask & self.compatible_mask(kripke_state))


class _SuccessorRow(dict):
    """Kripke target -> successors of one automaton state whose labels agree
    with the target's valuation, as an ascending tuple decoded on first use."""

    __slots__ = ("component", "succ")

    def __init__(self, component: _ComponentBits, state: int):
        super().__init__()
        self.component = component
        self.succ = component.succ[component.position[state]]

    def __missing__(self, kripke_target: int) -> Tuple[int, ...]:
        states = self[kripke_target] = self.component.bits_to_states(
            self.succ & self.component.compatible_mask(kripke_target)
        )
        return states


def kripke_automata_product(
    kripke: KripkeStructure,
    automata: Sequence[GeneralizedBuchi],
    *,
    statistics: Optional[ProductStatistics] = None,
) -> GeneralizedBuchi:
    """Synchronous product of a Kripke structure and property automata.

    The result is a :class:`~repro.ltl.buchi.GeneralizedBuchi` whose runs are
    exactly the runs of the Kripke structure jointly accepted by every
    automaton.  Product states are annotated with ``(kripke_state, component
    states...)`` so counterexample lassos can be mapped back to signal
    waveforms.
    """
    automata = list(automata)
    if statistics is not None:
        statistics.kripke_states = kripke.state_count()
        statistics.automata = len(automata)
        statistics.automata_states = sum(a.state_count() for a in automata)

    product = GeneralizedBuchi()
    index = _explore(kripke, automata, product)

    # Lift acceptance sets of every automaton to the product.
    for component, automaton in enumerate(automata):
        for accept_set in automaton.acceptance:
            lifted = frozenset(
                ident for combo, ident in index.items() if combo[component + 1] in accept_set
            )
            product.acceptance.append(lifted)

    if statistics is not None:
        statistics.product_states = product.state_count()
        statistics.product_transitions = product.transition_count()
    return product


def _explore(
    kripke: KripkeStructure,
    automata: List[GeneralizedBuchi],
    product: GeneralizedBuchi,
) -> Dict[Tuple[int, ...], int]:
    """Worklist exploration from the initial states; returns the state numbering.

    A product state is a tuple ``(kripke_state, component states...)``;
    ``index`` maps each discovered one to its number and doubles as the
    visited set.
    """
    from ..engines.cancel import check_cancelled

    components = [_ComponentBits(automaton, kripke) for automaton in automata]
    # Per component: automaton state -> its successor row.  Rows point at
    # their component, so the memo lives here rather than on the component:
    # a reference cycle would keep every row (and the Kripke structure) alive
    # until the cyclic garbage collector runs.
    memos: List[Dict[int, _SuccessorRow]] = [{} for _ in components]
    index: Dict[Tuple[int, ...], int] = {}
    worklist: List[Tuple[int, ...]] = []
    labels: Dict[int, FrozenSet[Literal]] = {}
    kripke_successors: Dict[int, List[int]] = {}

    def discover(combo: Tuple[int, ...], initial: bool) -> int:
        kripke_state = combo[0]
        label = labels.get(kripke_state)
        if label is None:
            label = labels[kripke_state] = frozenset(
                (name, bool(value)) for name, value in kripke.label(kripke_state).items()
            )
        ident = index[combo] = len(index)
        product.add_state(ident, label, initial=initial, annotation=combo)
        worklist.append(combo)
        return ident

    for kripke_state in sorted(kripke.initial):
        choices = [component.initial_states(kripke_state) for component in components]
        for rest in itertools.product(*choices):
            combo = (kripke_state,) + rest
            ident = index.get(combo)
            if ident is None:
                discover(combo, True)
            else:
                product.initial.add(ident)

    edges = product.transitions
    while worklist:
        check_cancelled()
        combo = worklist.pop()
        out = edges[index[combo]]
        rows = []
        for component, memo, state in zip(components, memos, combo[1:]):
            row = memo.get(state)
            if row is None:
                row = memo[state] = _SuccessorRow(component, state)
            rows.append(row)
        kripke_state = combo[0]
        targets = kripke_successors.get(kripke_state)
        if targets is None:
            targets = kripke_successors[kripke_state] = sorted(kripke.successors(kripke_state))
        for kripke_target in targets:
            for rest in itertools.product(*[row[kripke_target] for row in rows]):
                target_combo = (kripke_target,) + rest
                target = index.get(target_combo)
                if target is None:
                    target = discover(target_combo, False)
                out.add(target)
    return index
