"""Büchi automata with generalized acceptance.

The tableau construction (:mod:`repro.ltl.tableau`) produces a *state-labelled
generalized Büchi automaton* (GBA): each state carries a set of literals that
must hold of the word position read when entering the state, and acceptance is
a family of state sets each of which must be visited infinitely often.

The same class is reused for products with Kripke structures (the model
checker builds a product GBA whose labels are full signal valuations), so the
emptiness check and accepting-lasso extraction implemented here are the single
engine behind LTL satisfiability, validity, implication and model-checking
queries.  The check has one path, a bitmask SCC sweep over densely numbered
states; the tableau's sparsely numbered automata are renumbered for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = ["Literal", "GeneralizedBuchi", "AcceptingLasso"]

# A literal is (atom name, polarity).
Literal = Tuple[str, bool]


@dataclass(frozen=True)
class AcceptingLasso:
    """An accepting run presented as a stem and a loop of automaton states."""

    stem: Tuple[int, ...]
    loop: Tuple[int, ...]

    def states(self) -> Tuple[int, ...]:
        return self.stem + self.loop


@dataclass
class GeneralizedBuchi:
    """State-labelled generalized Büchi automaton.

    Attributes
    ----------
    labels:
        Maps each state to the set of literals that must hold of the alphabet
        letter read when the automaton *enters* the state.
    initial:
        Set of initial states.
    transitions:
        Adjacency map ``state -> successor states``.
    acceptance:
        List of acceptance sets; a run is accepting when it visits every set
        infinitely often.  An empty list means every infinite run is accepting.
    annotations:
        Optional per-state payload (used by products to remember the Kripke
        state / full signal valuation behind an automaton state).
    """

    labels: Dict[int, FrozenSet[Literal]] = field(default_factory=dict)
    initial: Set[int] = field(default_factory=set)
    transitions: Dict[int, Set[int]] = field(default_factory=dict)
    acceptance: List[FrozenSet[int]] = field(default_factory=list)
    annotations: Dict[int, object] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------------
    def add_state(
        self,
        state: int,
        label: Iterable[Literal] = (),
        initial: bool = False,
        annotation: object = None,
    ) -> int:
        self.labels[state] = frozenset(label)
        self.transitions.setdefault(state, set())
        if initial:
            self.initial.add(state)
        if annotation is not None:
            self.annotations[state] = annotation
        return state

    def add_transition(self, source: int, target: int) -> None:
        self.transitions.setdefault(source, set()).add(target)
        self.transitions.setdefault(target, set())
        if source not in self.labels:
            self.labels[source] = frozenset()
        if target not in self.labels:
            self.labels[target] = frozenset()

    # -- basic queries ----------------------------------------------------------
    @property
    def states(self) -> Tuple[int, ...]:
        return tuple(self.labels.keys())

    def state_count(self) -> int:
        return len(self.labels)

    def transition_count(self) -> int:
        return sum(len(targets) for targets in self.transitions.values())

    # -- emptiness ---------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the automaton accepts no word."""
        return self.accepting_lasso() is None

    def accepting_lasso(self) -> Optional[AcceptingLasso]:
        """Return an accepting lasso, or ``None`` when the language is empty.

        An accepting run exists iff some reachable SCC (i) contains at least
        one transition and (ii) intersects every acceptance set.  The lasso is
        then assembled from a shortest path to the SCC and a cycle inside it
        that touches one state of each acceptance set.

        The search runs on integer bitmasks over states numbered ``0 .. n-1``
        — which every product construction guarantees: reachability is a
        frontier ``|=`` sweep and the SCC decomposition is forward-backward
        intersection over precomputed successor/predecessor masks.  A
        sparsely numbered automaton (the tableau names states by its node
        counter) is renumbered in sorted state order first and its lasso
        mapped back, so paths keep the tie-breaking order of the state names.
        Tarjan's SCC algorithm is the test oracle
        (``tests/properties/emptiness_reference.py``).
        """
        count = len(self.labels)
        if not count:
            return None
        if all(isinstance(state, int) and 0 <= state < count for state in self.labels):
            return self._accepting_lasso_bitset(count)
        order = sorted(self.labels)
        number = {state: index for index, state in enumerate(order)}
        dense = GeneralizedBuchi(
            initial={number[state] for state in self.initial},
            transitions={
                number[state]: {number[target] for target in targets}
                for state, targets in self.transitions.items()
            },
            acceptance=[
                frozenset(number[state] for state in accept_set if state in number)
                for accept_set in self.acceptance
            ],
        )
        lasso = dense._accepting_lasso_bitset(count)
        if lasso is None:
            return None
        return AcceptingLasso(
            tuple(order[index] for index in lasso.stem),
            tuple(order[index] for index in lasso.loop),
        )

    def _accepting_lasso_bitset(self, count: int) -> Optional[AcceptingLasso]:
        """Bitset emptiness: frontier-sweep reachability + forward-backward SCCs.

        All state sets are Python integers used as bitmasks, so one ``|=`` or
        ``&`` processes the whole set per machine word.  The decomposition
        picks the lowest set bit of a region as pivot, making the enumeration
        order deterministic (and independent of hash seeds).
        """
        successors = [0] * count
        for state, targets in self.transitions.items():
            mask = 0
            for target in targets:
                mask |= 1 << target
            successors[state] = mask

        reached = 0
        for state in self.initial:
            reached |= 1 << state
        frontier = reached
        while frontier:
            step = 0
            mask = frontier
            while mask:
                bit = mask & -mask
                step |= successors[bit.bit_length() - 1]
                mask ^= bit
            frontier = step & ~reached
            reached |= frontier
        if not reached:
            return None

        # Restrict the graph to reachable states and build predecessor masks.
        predecessors = [0] * count
        mask = reached
        while mask:
            bit = mask & -mask
            source = bit.bit_length() - 1
            mask ^= bit
            targets = successors[source] & reached
            successors[source] = targets
            while targets:
                target_bit = targets & -targets
                predecessors[target_bit.bit_length() - 1] |= bit
                targets ^= target_bit

        acceptance_masks = []
        for accept_set in self.acceptance:
            accept_mask = 0
            for state in accept_set:
                if 0 <= state < count:
                    accept_mask |= 1 << state
            acceptance_masks.append(accept_mask)

        regions = [reached]
        while regions:
            region = regions.pop()
            if not region:
                continue
            pivot = region & -region
            forward = pivot
            frontier = pivot
            while frontier:
                step = 0
                mask = frontier
                while mask:
                    bit = mask & -mask
                    step |= successors[bit.bit_length() - 1]
                    mask ^= bit
                frontier = step & region & ~forward
                forward |= frontier
            backward = pivot
            frontier = pivot
            while frontier:
                step = 0
                mask = frontier
                while mask:
                    bit = mask & -mask
                    step |= predecessors[bit.bit_length() - 1]
                    mask ^= bit
                frontier = step & region & ~backward
                backward |= frontier
            component_mask = forward & backward
            nontrivial = component_mask & (component_mask - 1) != 0
            if not nontrivial:
                # Singleton SCC (the pivot): fair only with a self-loop.
                nontrivial = bool(successors[pivot.bit_length() - 1] & component_mask)
            if nontrivial and all(
                component_mask & accept_mask for accept_mask in acceptance_masks
            ):
                component = set()
                mask = component_mask
                while mask:
                    bit = mask & -mask
                    component.add(bit.bit_length() - 1)
                    mask ^= bit
                return self._build_lasso(component)
            regions.append(region & ~(forward | backward))
            regions.append(forward & ~component_mask)
            regions.append(backward & ~component_mask)
        return None

    def _build_lasso(self, component: Set[int]) -> AcceptingLasso:
        entry, stem = _shortest_path_to(self.initial, component, self.transitions)
        loop = _fair_cycle(entry, component, self.acceptance, self.transitions)
        return AcceptingLasso(tuple(stem), tuple(loop))


# ---------------------------------------------------------------------------
# Lasso assembly inside a fair SCC.
# ---------------------------------------------------------------------------

def _shortest_path_to(
    sources: Set[int], targets: Set[int], transitions: Mapping[int, Set[int]]
) -> Tuple[int, List[int]]:
    """BFS shortest path from any source to any target; returns (entry, stem).

    The stem excludes the entry state itself (the entry becomes the first loop
    state), matching how :class:`AcceptingLasso` is consumed downstream.
    """
    parents: Dict[int, Optional[int]] = {}
    queue: List[int] = []
    for source in sorted(sources):
        parents[source] = None
        queue.append(source)
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        if state in targets:
            path = []
            current: Optional[int] = state
            while current is not None:
                path.append(current)
                current = parents[current]
            path.reverse()
            return state, path[:-1]
        for target in sorted(transitions.get(state, set())):
            if target not in parents:
                parents[target] = state
                queue.append(target)
    raise ValueError("target set unreachable from sources")


def _fair_cycle(
    entry: int,
    component: Set[int],
    acceptance: Sequence[FrozenSet[int]],
    transitions: Mapping[int, Set[int]],
) -> List[int]:
    """Build a cycle inside ``component`` from ``entry`` hitting every acceptance set."""
    waypoints: List[int] = []
    for accept_set in acceptance:
        candidates = accept_set & component
        if candidates:
            waypoints.append(sorted(candidates)[0])
    cycle: List[int] = [entry]
    current = entry
    for waypoint in waypoints:
        if waypoint == current:
            continue
        segment = _path_within(current, waypoint, component, transitions)
        cycle.extend(segment[1:])
        current = waypoint
    # Close the loop back to the entry state.
    if current != entry or len(cycle) == 1:
        segment = _path_within(current, entry, component, transitions, require_step=True)
        cycle.extend(segment[1:])
    # The final state equals the entry; drop it so the loop reads [entry ... last].
    if len(cycle) > 1 and cycle[-1] == entry:
        cycle.pop()
    return cycle


def _path_within(
    source: int,
    target: int,
    component: Set[int],
    transitions: Mapping[int, Set[int]],
    require_step: bool = False,
) -> List[int]:
    """BFS path from source to target staying inside the SCC.

    With ``require_step`` the path must contain at least one transition even
    when ``source == target`` (used to close self-loops).
    """
    if source == target and not require_step:
        return [source]
    parents: Dict[int, Optional[int]] = {source: None}
    queue = [source]
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        for nxt in sorted(transitions.get(state, set())):
            if nxt not in component:
                continue
            if nxt == target:
                path = [nxt]
                current: Optional[int] = state
                while current is not None:
                    path.append(current)
                    current = parents[current]
                path.reverse()
                return path
            if nxt not in parents:
                parents[nxt] = state
                queue.append(nxt)
    raise ValueError("no path inside the strongly connected component")
