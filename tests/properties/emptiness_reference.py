"""Tarjan-SCC reference of the Büchi emptiness check.

The differential oracle of :meth:`repro.ltl.buchi.GeneralizedBuchi
.accepting_lasso`: reachable states by a plain worklist, strongly connected
components by iterative Tarjan over state names (dense or sparse alike),
and the first reachable SCC that has an internal transition and meets every
acceptance set.  The lasso is assembled by the automaton's own
``_build_lasso``, as the bitset search assembles its own, so the two agree
on emptiness and, given the same fair SCC, on the lasso.  When several fair
SCCs exist they may pick different ones; each lasso is valid.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.ltl.buchi import AcceptingLasso, GeneralizedBuchi


def reference_accepting_lasso(automaton: GeneralizedBuchi) -> Optional[AcceptingLasso]:
    """An accepting lasso found by Tarjan's SCC decomposition, or ``None``."""
    reachable = _reachable_states(automaton)
    if not reachable:
        return None
    for component in _tarjan_sccs(reachable, automaton.transitions):
        if not _is_nontrivial(component, automaton.transitions):
            continue
        if all(component & accept_set for accept_set in automaton.acceptance):
            return automaton._build_lasso(component)
    return None


def _reachable_states(automaton: GeneralizedBuchi) -> Set[int]:
    seen: Set[int] = set()
    stack = list(automaton.initial)
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        stack.extend(automaton.transitions.get(state, set()))
    return seen


def _tarjan_sccs(nodes: Set[int], transitions: Mapping[int, Set[int]]) -> List[Set[int]]:
    """Iterative Tarjan strongly-connected-components restricted to ``nodes``."""
    index_counter = [0]
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    result: List[Set[int]] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(t for t in transitions.get(root, set()) if t in nodes)))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, iterator = work[-1]
            advanced = False
            for target in iterator:
                if target not in index:
                    index[target] = lowlink[target] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(target)
                    on_stack.add(target)
                    work.append(
                        (
                            target,
                            iter(sorted(t for t in transitions.get(target, set()) if t in nodes)),
                        )
                    )
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
    return result


def _is_nontrivial(component: Set[int], transitions: Mapping[int, Set[int]]) -> bool:
    """An SCC supports an infinite run iff it has an internal transition."""
    if len(component) > 1:
        return True
    (state,) = tuple(component)
    return state in transitions.get(state, set())
