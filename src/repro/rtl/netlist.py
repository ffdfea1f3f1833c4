"""Synthesisable RTL netlist model.

A :class:`Module` is a synchronous netlist over boolean signals:

* **inputs** — signals driven by the environment,
* **combinational assignments** — ``signal = BoolExpr`` over other signals,
* **registers (latches)** — ``signal <= BoolExpr`` evaluated on the clock
  edge, with an initial value,
* **outputs** — the subset of signals exported at the module interface.

This is the "concrete module" object of the paper: the glue logic ``M1`` and
the cache access logic ``L1`` of the Memory Arbitration Logic, the AMBA
arbiter, etc. are all instances.  Downstream consumers are the cycle
simulator (:mod:`repro.rtl.simulator`), the FSM extractor
(:mod:`repro.rtl.fsm`), the Kripke-structure builder
(:mod:`repro.rtl.kripke`) and the ``T_M`` characteristic-formula construction
(:mod:`repro.core.tm`).

Validation performed at :meth:`Module.validate` / :meth:`Module.freeze`:
single driver per signal, no undeclared signals, and no combinational cycles
(a topological order of the combinational assignments is computed and cached).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..logic.boolexpr import BoolExpr

__all__ = ["Module", "Register", "NetlistError"]


class NetlistError(ValueError):
    """Raised for malformed netlists (multiple drivers, cycles, missing nets)."""


@dataclass(frozen=True)
class Register:
    """A D-type register: ``name`` takes ``next_value`` at each clock edge."""

    name: str
    next_value: BoolExpr
    init: bool = False


@dataclass
class Module:
    """A flat synchronous netlist (see module docstring)."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    assigns: Dict[str, BoolExpr] = field(default_factory=dict)
    registers: Dict[str, Register] = field(default_factory=dict)
    _eval_order: Optional[List[str]] = field(default=None, repr=False, compare=False)
    _dep_graph: Optional[Dict[str, FrozenSet[str]]] = field(
        default=None, repr=False, compare=False
    )

    # -- construction --------------------------------------------------------
    def add_input(self, name: str) -> "Module":
        if name in self.inputs:
            return self
        self._check_not_driven(name)
        self.inputs.append(name)
        self._eval_order = None
        self._dep_graph = None
        return self

    def add_output(self, name: str) -> "Module":
        if name not in self.outputs:
            self.outputs.append(name)
        return self

    def add_assign(self, name: str, expr: BoolExpr) -> "Module":
        """Add a combinational assignment ``name = expr``."""
        self._check_not_driven(name)
        self.assigns[name] = expr
        self._eval_order = None
        self._dep_graph = None
        return self

    def add_register(self, name: str, next_value: BoolExpr, init: bool = False) -> "Module":
        """Add a register ``name <= next_value`` with the given reset value."""
        self._check_not_driven(name)
        self.registers[name] = Register(name, next_value, init)
        self._eval_order = None
        self._dep_graph = None
        return self

    def _check_not_driven(self, name: str) -> None:
        if name in self.assigns:
            raise NetlistError(f"signal {name!r} already driven by an assign in {self.name}")
        if name in self.registers:
            raise NetlistError(f"signal {name!r} already driven by a register in {self.name}")
        if name in self.inputs:
            raise NetlistError(f"signal {name!r} is an input of {self.name} and cannot be driven")

    # -- signal sets -----------------------------------------------------------
    def signals(self) -> FrozenSet[str]:
        """All signals known to the module (inputs, register outputs, nets)."""
        names: Set[str] = set(self.inputs) | set(self.outputs)
        names |= set(self.assigns.keys()) | set(self.registers.keys())
        for expr in self.assigns.values():
            names |= set(expr.variables())
        for register in self.registers.values():
            names |= set(register.next_value.variables())
        return frozenset(names)

    def state_signals(self) -> Tuple[str, ...]:
        """Register output names in declaration order."""
        return tuple(self.registers.keys())

    def interface_signals(self) -> Tuple[str, ...]:
        """Inputs followed by outputs: the signals visible at the boundary."""
        return tuple(self.inputs) + tuple(self.outputs)

    def is_combinational(self) -> bool:
        """True when the module has no registers (pure glue logic)."""
        return not self.registers

    def initial_state(self) -> Dict[str, bool]:
        """Initial valuation of the registers."""
        return {name: register.init for name, register in self.registers.items()}

    # -- validation --------------------------------------------------------------
    def undriven_signals(self) -> FrozenSet[str]:
        """Signals referenced but neither inputs nor driven (implicit inputs)."""
        driven = set(self.inputs) | set(self.assigns) | set(self.registers)
        return frozenset(name for name in self.signals() if name not in driven)

    def environment_signals(self) -> List[str]:
        """The signals the environment chooses each cycle, in canonical order.

        Declared inputs first (in declaration order, skipping any that are
        also driven), then the referenced-but-undriven signals sorted by name.
        This is the single definition of "free signal" shared by the cycle
        simulator, the Kripke builder and the symbolic engine — the three must
        agree or witness replay would diverge from the state encoding.
        """
        driven = set(self.assigns) | set(self.registers)
        free = [name for name in self.inputs if name not in driven]
        for name in sorted(self.undriven_signals()):
            if name not in free:
                free.append(name)
        return free

    def validate(self, allow_undriven: bool = False) -> None:
        """Check structural well-formedness; raises :class:`NetlistError`."""
        undriven = self.undriven_signals()
        if undriven and not allow_undriven:
            raise NetlistError(
                f"module {self.name!r} references undriven signals: {sorted(undriven)}"
            )
        for name in self.outputs:
            if name not in self.assigns and name not in self.registers and name not in self.inputs:
                if not allow_undriven:
                    raise NetlistError(f"output {name!r} of {self.name!r} is not driven")
        self.evaluation_order()  # raises on combinational cycles

    def evaluation_order(self) -> List[str]:
        """Topological order of combinational assignments (cached).

        The DFS is iterative (explicit frame stack), so deep combinational
        chains — thousands of nets each feeding the next — never hit Python's
        recursion limit.
        """
        if self._eval_order is not None:
            return list(self._eval_order)
        dependencies: Dict[str, List[str]] = {}
        for name, expr in self.assigns.items():
            dependencies[name] = sorted(
                dep for dep in expr.variables() if dep in self.assigns
            )
        order: List[str] = []
        visiting: Set[str] = set()
        visited: Set[str] = set()

        for root in sorted(self.assigns):
            if root in visited:
                continue
            # Each frame is (node, iterator over its unvisited dependencies).
            stack: List[Tuple[str, Iterator[str]]] = [(root, iter(dependencies[root]))]
            visiting.add(root)
            while stack:
                node, pending = stack[-1]
                advanced = False
                for dependency in pending:
                    if dependency in visited:
                        continue
                    if dependency in visiting:
                        chain = [frame[0] for frame in stack]
                        start = chain.index(dependency)
                        cycle = " -> ".join(chain[start:] + [dependency])
                        raise NetlistError(
                            f"combinational cycle in module {self.name!r}: {cycle}"
                        )
                    visiting.add(dependency)
                    stack.append((dependency, iter(dependencies[dependency])))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    visiting.discard(node)
                    visited.add(node)
                    order.append(node)
        self._eval_order = order
        return list(order)

    # -- dependency analysis / slicing ---------------------------------------
    def dependency_graph(self) -> Dict[str, FrozenSet[str]]:
        """Signal-level dependency graph: driven signal → signals it reads.

        Combinational assignments depend on their expression's support;
        registers depend on the support of their next-state function (a
        sequential edge — the cone of influence follows both kinds).  Cached
        like ``evaluation_order`` — slicing rebuilds a cone per spec conjunct
        and the expression supports don't change between them — and
        invalidated by the same mutators.
        """
        if self._dep_graph is not None:
            return dict(self._dep_graph)
        graph: Dict[str, FrozenSet[str]] = {}
        for name, expr in self.assigns.items():
            graph[name] = frozenset(expr.variables())
        for name, register in self.registers.items():
            graph[name] = frozenset(register.next_value.variables())
        self._dep_graph = graph
        return dict(graph)

    def cone_of_influence(self, signals: Iterable[str]) -> FrozenSet[str]:
        """Transitive fan-in of the given signals (inclusive, iterative).

        Every signal whose value can reach one of the seeds — through
        combinational logic or through register next-state functions — is in
        the cone; everything else provably cannot affect the seeds' values.
        """
        graph = self.dependency_graph()
        cone: Set[str] = set()
        stack: List[str] = list(signals)
        while stack:
            name = stack.pop()
            if name in cone:
                continue
            cone.add(name)
            for dependency in graph.get(name, ()):
                if dependency not in cone:
                    stack.append(dependency)
        return frozenset(cone)

    def slice_for(self, signals: Iterable[str], name: Optional[str] = None) -> "Module":
        """Cone-of-influence slice: the sub-netlist that can affect ``signals``.

        Drivers (assigns and registers) outside the cone are dropped; inputs
        and outputs are restricted to the cone.  The slice is a sound model
        for any query whose atoms are within ``signals``: dropped drivers are
        deterministic functions that cannot feed back into the cone, so the
        slice admits exactly the cone-projected runs of the full module.
        The returned module shares the (immutable) expressions of the
        original — slicing never copies logic.
        """
        cone = self.cone_of_influence(signals)
        sliced = Module(name or self.name)
        sliced.inputs = [signal for signal in self.inputs if signal in cone]
        sliced.outputs = [signal for signal in self.outputs if signal in cone]
        sliced.assigns = {
            signal: expr for signal, expr in self.assigns.items() if signal in cone
        }
        sliced.registers = {
            signal: register
            for signal, register in self.registers.items()
            if signal in cone
        }
        return sliced

    # -- evaluation -----------------------------------------------------------------
    def evaluate_combinational(
        self, state: Mapping[str, bool], inputs: Mapping[str, bool]
    ) -> Dict[str, bool]:
        """Evaluate all combinational nets given register values and inputs.

        Returns a full valuation of every signal of the module for one cycle.
        """
        valuation: Dict[str, bool] = {}
        valuation.update({name: bool(value) for name, value in state.items()})
        valuation.update({name: bool(value) for name, value in inputs.items()})
        for name in self.evaluation_order():
            valuation[name] = self.assigns[name].evaluate(valuation)
        return valuation

    def next_state(self, valuation: Mapping[str, bool]) -> Dict[str, bool]:
        """Compute register values for the next cycle from a full valuation."""
        return {
            name: register.next_value.evaluate(valuation)
            for name, register in self.registers.items()
        }

    def step(
        self, state: Mapping[str, bool], inputs: Mapping[str, bool]
    ) -> Tuple[Dict[str, bool], Dict[str, bool]]:
        """One clock cycle: returns ``(full valuation, next register state)``."""
        valuation = self.evaluate_combinational(state, inputs)
        return valuation, self.next_state(valuation)

    # -- reporting ---------------------------------------------------------------------
    def summary(self) -> str:
        """One-line structural summary used by the CLI and reports."""
        return (
            f"module {self.name}: {len(self.inputs)} inputs, {len(self.outputs)} outputs, "
            f"{len(self.assigns)} assigns, {len(self.registers)} registers"
        )

    def port_map(self) -> Dict[str, str]:
        """Classification of every signal (input/output/register/wire)."""
        classes: Dict[str, str] = {}
        for name in self.signals():
            if name in self.inputs:
                classes[name] = "input"
            elif name in self.registers:
                classes[name] = "register"
            elif name in self.assigns:
                classes[name] = "wire"
            else:
                classes[name] = "floating"
            if name in self.outputs:
                classes[name] = f"output ({classes[name]})"
        return classes
