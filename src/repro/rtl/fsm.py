"""Finite state machine extraction from netlists.

Definition 4 of the paper builds the characteristic formula ``T_M`` of a
concrete module from its FSM ``<I, O, S, S0, L, T>``.  :func:`extract_fsm`
produces exactly that object from a :class:`~repro.rtl.netlist.Module`:

* states ``S`` are the *reachable* register valuations (``S0`` the reset
  state),
* the label ``L(s)`` is the boolean function over the state variables that
  identifies ``s`` (a cube over the registers),
* each transition ``(s, i, s')`` is guarded by a condition on the module
  inputs; conditions for the same ``(s, s')`` pair are collected into a
  :class:`~repro.logic.cube.Cover` and minimised so the printed ``T_M`` stays
  close to what a designer would write (the paper's Example 3 shows the
  minimised form).

Purely combinational modules have a single (empty) state with a self loop —
``T_M`` degenerates to ``G`` over the input/output relation, matching the
paper's remark that "M1 is a combinational block and thus TM1 is generated by
nesting a global operator G above the Boolean function it implements".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..logic.boolexpr import all_assignments
from ..logic.cube import Cover, Cube, minimize_cover
from .netlist import Module

__all__ = ["FSMState", "FSMTransition", "FSM", "extract_fsm"]


@dataclass(frozen=True)
class FSMState:
    """A state: an index plus the register valuation it denotes."""

    index: int
    valuation: Tuple[Tuple[str, bool], ...]

    def as_dict(self) -> Dict[str, bool]:
        return dict(self.valuation)

    def cube(self) -> Cube:
        """The label ``L(s)``: the cube identifying this register valuation."""
        return Cube(dict(self.valuation))


@dataclass(frozen=True)
class FSMTransition:
    """A guarded transition ``source --[guard over inputs]--> target``."""

    source: int
    target: int
    guard: Cover


@dataclass
class FSM:
    """Explicit FSM of a module (Definition 4's ``<I, O, S, S0, L, T>``)."""

    module_name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    state_variables: Tuple[str, ...]
    states: List[FSMState] = field(default_factory=list)
    initial_state: int = 0
    transitions: List[FSMTransition] = field(default_factory=list)
    output_functions: Dict[str, object] = field(default_factory=dict)

    def state_count(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return len(self.transitions)

    def label(self, index: int) -> Cube:
        """``L(s)`` for the state with the given index."""
        return self.states[index].cube()

    def successors(self, index: int) -> List[FSMTransition]:
        return [transition for transition in self.transitions if transition.source == index]

    def transition_between(self, source: int, target: int) -> Optional[FSMTransition]:
        for transition in self.transitions:
            if transition.source == source and transition.target == target:
                return transition
        return None

    def is_deterministic(self) -> bool:
        """True when, for every state and total input valuation, at most one
        transition guard is satisfied (always the case for extracted FSMs)."""
        for state in self.states:
            outgoing = self.successors(state.index)
            for assignment in all_assignments(list(self.inputs)):
                matches = sum(1 for t in outgoing if t.guard.satisfied_by(assignment))
                if matches > 1:
                    return False
        return True

    def is_complete(self) -> bool:
        """True when every state has a successor for every input valuation."""
        for state in self.states:
            outgoing = self.successors(state.index)
            for assignment in all_assignments(list(self.inputs)):
                if not any(t.guard.satisfied_by(assignment) for t in outgoing):
                    return False
        return True

    def summary(self) -> str:
        return (
            f"FSM({self.module_name}): {self.state_count()} states, "
            f"{self.transition_count()} transitions, inputs={list(self.inputs)}, "
            f"state_vars={list(self.state_variables)}"
        )


def extract_fsm(module: Module) -> FSM:
    """Extract the reachable FSM of a module by explicit enumeration.

    Inputs of the FSM are the module's declared inputs plus any referenced but
    undriven signals (implicit environment signals).
    """
    module.validate(allow_undriven=True)
    input_names = list(module.inputs)
    for name in sorted(module.undriven_signals()):
        if name not in input_names:
            input_names.append(name)
    state_variables = list(module.state_signals())

    fsm = FSM(
        module_name=module.name,
        inputs=tuple(input_names),
        outputs=tuple(module.outputs),
        state_variables=tuple(state_variables),
    )

    initial = module.initial_state()
    state_index: Dict[Tuple[Tuple[str, bool], ...], int] = {}

    def get_state(valuation: Mapping[str, bool]) -> int:
        key = tuple(sorted((name, bool(value)) for name, value in valuation.items()))
        if key not in state_index:
            index = len(fsm.states)
            state_index[key] = index
            fsm.states.append(FSMState(index, key))
        return state_index[key]

    fsm.initial_state = get_state(initial)
    # Raw transition guards: (source, target) -> list of input cubes.
    raw_guards: Dict[Tuple[int, int], List[Cube]] = {}

    worklist = [initial]
    seen = {tuple(sorted(initial.items()))}
    while worklist:
        current = worklist.pop()
        source = get_state(current)
        for assignment in all_assignments(input_names):
            valuation, next_state = module.step(current, assignment)
            target = get_state(next_state)
            raw_guards.setdefault((source, target), []).append(Cube(assignment))
            key = tuple(sorted(next_state.items()))
            if key not in seen:
                seen.add(key)
                worklist.append(next_state)

    for (source, target), cubes in sorted(raw_guards.items()):
        cover = Cover(cubes)
        if input_names:
            cover = minimize_cover(cover, input_names)
        fsm.transitions.append(FSMTransition(source, target, cover))

    # Record the output functions (boolean expressions) for reporting.
    for output in module.outputs:
        if output in module.assigns:
            fsm.output_functions[output] = module.assigns[output]
    return fsm
