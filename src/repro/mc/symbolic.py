"""Fully symbolic (BDD fixpoint) LTL model checking on concrete modules.

This is the third way the repository answers the paper's existential query
"is there a run of the concrete modules satisfying every formula?":

* the **explicit** engine (:mod:`repro.mc.modelcheck`) enumerates the Kripke
  structure and runs nested DFS on the product;
* the **bmc** engine (:mod:`repro.bmc.engine`) unrolls time frames into SAT;
* this module never enumerates states at all — the Kripke structure, the
  property automata and their product live as characteristic functions inside
  one :class:`~repro.logic.bdd.BDDManager`.

Encoding
--------
A product state is a valuation of

* the module's **registers**,
* its **free signals** (inputs, undriven nets and property atoms the module
  does not drive — the environment chooses them every cycle), and
* binary-encoded **automaton state** bits, one block per compiled property
  automaton (deterministic safety monitors or GPVW tableaux, exactly the
  automata the explicit product uses).

Every state variable ``v`` has a primed copy ``v#n`` declared *immediately
after it* (interleaved current/next order — the classic ordering that keeps
``v <-> v#n`` constraints linear instead of exponential).  The transition
relation is kept **partitioned**: one conjunct per register (``r#n <->
next_r(state)``), one per automaton block (the transition structure plus the
state-label constraint evaluated on the *next* letter).  Images and
preimages are **relational products** over the partition, with early
quantification: the conjuncts are taken narrowest first, and each step that
is the last to mention some variables conjoins and quantifies them in one
pass (:meth:`~repro.logic.bdd.BDD.and_exists`), so neither the full
relation nor any unquantified conjunction is ever built.  The variables each
step releases are fixed when the product is built.

Decision procedure
------------------
Reachable states are computed by a forward image fixpoint; the existential
query is then decided by the **Emerson–Lei fair-states fixpoint**

``nu Z. Reach ∧ AND_i EX E[Z U (Z ∧ F_i)]``

over the generalized-Büchi acceptance sets ``F_i`` lifted from the automata.
The query is satisfiable iff an initial state lies in ``Z``.  When it is, a
concrete lasso witness is extracted symbolically (descend the SCC DAG to a
fair SCC, then stitch shortest paths through every acceptance set) and
*replayed on the cycle simulator* — the returned verdict is always backed by
a checked run of the RTL, never by the fixpoint alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..logic.bdd import BDD, BDDManager
from ..logic.boolexpr import BoolExpr, var
from ..ltl.ast import Formula, atoms_of
from ..ltl.buchi import GeneralizedBuchi
from ..ltl.traces import LassoTrace
from ..ltl.traces import evaluate as evaluate_on_trace
from ..obs import metrics, span
from ..problem.ir import compiled_automata
from ..rtl.netlist import Module

__all__ = [
    "SymbolicStatistics",
    "SymbolicResult",
    "SymbolicModelError",
    "SymbolicProduct",
    "find_run_symbolic",
]

_NEXT_SUFFIX = "#n"


class SymbolicModelError(RuntimeError):
    """Raised when the symbolic engine produces an inconsistent artefact
    (an unreplayable witness, a name collision with the primed namespace)."""


@dataclass
class SymbolicStatistics:
    """Size/effort statistics of one symbolic fixpoint run."""

    state_variables: int = 0
    automata: int = 0
    automata_states: int = 0
    partitions: int = 0
    reachable_iterations: int = 0
    el_iterations: int = 0
    peak_nodes: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SymbolicResult:
    """Result of a symbolic existential query (:func:`find_run_symbolic`).

    Duck-type compatible with
    :class:`~repro.mc.modelcheck.ExistentialResult` where the engine layer
    needs it (``satisfiable`` / ``witness`` / ``statistics``).
    """

    satisfiable: bool
    witness: Optional[LassoTrace] = None
    statistics: SymbolicStatistics = field(default_factory=SymbolicStatistics)
    elapsed_seconds: float = 0.0


def _next_name(name: str) -> str:
    return name + _NEXT_SUFFIX


def _flatten_signals(module: Module, free_names: Sequence[str]) -> Dict[str, BoolExpr]:
    """Every signal as a :class:`BoolExpr` over registers and free signals only.

    Combinational nets are substituted away in topological order, so the
    symbolic encoding needs BDD variables only for the true state of the
    product (registers + environment), never for wires.
    """
    flat: Dict[str, BoolExpr] = {}
    for name in module.state_signals():
        flat[name] = var(name)
    for name in free_names:
        flat.setdefault(name, var(name))
    for name in module.evaluation_order():
        flat[name] = module.assigns[name].substitute(flat)
    return flat


class SymbolicProduct:
    """The symbolic product of a module's Kripke structure and property automata.

    Owns the BDD manager, the interleaved variable order, the partitioned
    transition relation, the initial-state set and the lifted fairness sets.
    All image/preimage traffic of the fixpoints goes through
    :meth:`image` / :meth:`preimage`.
    """

    def __init__(
        self,
        module: Module,
        formulas: Sequence[Formula],
        *,
        automata: Optional[Sequence[GeneralizedBuchi]] = None,
        extra_free: Sequence[str] = (),
    ):
        module.validate(allow_undriven=True)
        self.module = module
        self.formulas = list(formulas)
        self.statistics = SymbolicStatistics()

        # -- state variables ------------------------------------------------
        self.register_names: List[str] = list(module.state_signals())
        free: List[str] = module.environment_signals()
        driven = set(module.assigns) | set(module.registers)
        for formula in formulas:
            for name in sorted(atoms_of(formula)):
                if name not in driven and name not in free:
                    free.append(name)
        for name in extra_free:
            if name not in driven and name not in free:
                free.append(name)
        self.free_names: List[str] = free

        # -- automata (the same pipeline the explicit product composes) -----
        if automata is None:
            automata = compiled_automata(formulas)
        self.automata: List[GeneralizedBuchi] = list(automata)
        self.statistics.automata = len(self.automata)
        self.statistics.automata_states = sum(a.state_count() for a in self.automata)

        self._aut_states: List[List[int]] = [sorted(a.labels) for a in self.automata]
        # The automaton bit namespace must be fresh by construction: grow the
        # prefix until no design or formula signal starts with it, so a state
        # bit can never alias a signal (which would silently corrupt verdicts).
        signal_names = set(module.signals()) | set(free)
        prefix = "_aut"
        while any(name.startswith(prefix) for name in signal_names):
            prefix = "_" + prefix
        self._aut_bits: List[List[str]] = [
            [f"{prefix}{index}b{bit}" for bit in range(max(1, (len(states) - 1).bit_length()))]
            for index, states in enumerate(self._aut_states)
        ]

        # -- manager with interleaved current/next order --------------------
        self.current_vars: List[str] = (
            self.register_names + self.free_names + [bit for bits in self._aut_bits for bit in bits]
        )
        taken = set(self.current_vars) | set(module.signals())
        for name in self.current_vars:
            if _next_name(name) in taken:
                raise SymbolicModelError(
                    f"signal name {_next_name(name)!r} collides with the primed namespace"
                )
        order: List[str] = []
        for name in self.current_vars:
            order.append(name)
            order.append(_next_name(name))
        self.manager = BDDManager(order)
        self.statistics.state_variables = len(self.current_vars)
        self._rename_to_current = {_next_name(name): name for name in self.current_vars}
        self._rename_to_next = {name: _next_name(name) for name in self.current_vars}

        # -- letter functions ----------------------------------------------
        flat = _flatten_signals(module, self.free_names)
        self._signal_now: Dict[str, BDD] = {}
        self._signal_next: Dict[str, BDD] = {}
        primed = {name: var(_next_name(name)) for name in self.register_names + self.free_names}
        for name, expr in flat.items():
            self._signal_now[name] = self.manager.from_expr(expr)
            self._signal_next[name] = self.manager.from_expr(expr.substitute(primed))

        # -- partitioned transition relation --------------------------------
        # Relation construction is the engine's most expensive setup phase;
        # poll the cooperative cancel token per conjunct so a losing
        # portfolio member stops here too, not only at its first image.
        from ..engines.cancel import check_cancelled

        self.partition: List[BDD] = []
        for name in self.register_names:
            check_cancelled()
            next_fn = self.manager.from_expr(
                module.registers[name].next_value.substitute(flat)
            )
            self.partition.append(self.manager.var(_next_name(name)).iff(next_fn))
        for index, automaton in enumerate(self.automata):
            check_cancelled()
            self.partition.append(self._automaton_relation(index, automaton))
        self.statistics.partitions = len(self.partition)
        # Fixed conjunction schedule: narrow conjuncts first so their
        # variables ripen early.  An empty partition still takes one (TRUE)
        # step, which quantifies every variable at once.
        self._schedule: List[BDD] = sorted(
            self.partition, key=lambda part: len(part.support())
        ) or [self.manager.true()]
        self._image_release = self._release_schedule(self.current_vars)
        self._preimage_release = self._release_schedule(
            [_next_name(name) for name in self.current_vars]
        )

        # -- initial states and fairness -------------------------------------
        self.initial = self._initial_states()
        self.fairness: List[BDD] = []
        for index, automaton in enumerate(self.automata):
            for accept_set in automaton.acceptance:
                members = self.manager.false()
                for state in sorted(accept_set):
                    if state in automaton.labels:
                        members = members | self._encode_state(index, state, primed=False)
                self.fairness.append(members)
        if not self.fairness:
            # Plain emptiness: every infinite run is fair.
            self.fairness.append(self.manager.true())

    # -- encodings ----------------------------------------------------------
    def _encode_state(self, index: int, state: int, *, primed: bool) -> BDD:
        """Characteristic function of one automaton state over its bit block."""
        code = self._aut_states[index].index(state)
        result = self.manager.true()
        for bit, name in enumerate(self._aut_bits[index]):
            if primed:
                name = _next_name(name)
            literal = self.manager.var(name) if (code >> bit) & 1 else self.manager.nvar(name)
            result = result & literal
        return result

    def _label_constraint(self, automaton: GeneralizedBuchi, state: int, *, primed: bool) -> BDD:
        """The letter constraint of a state label, over the now/next letter."""
        functions = self._signal_next if primed else self._signal_now
        result = self.manager.true()
        for name, polarity in sorted(automaton.labels[state]):
            fn = functions.get(name)
            if fn is None:
                # A label atom nobody drives and no formula mentions: the
                # letter leaves it free, so the constraint is vacuous.
                continue
            result = result & (fn if polarity else ~fn)
        return result

    def _automaton_relation(self, index: int, automaton: GeneralizedBuchi) -> BDD:
        """One partition conjunct: the automaton's step + next-letter labels."""
        relation = self.manager.false()
        for source in self._aut_states[index]:
            targets = automaton.transitions.get(source, set())
            if not targets:
                continue
            successor = self.manager.false()
            for target in sorted(targets):
                successor = successor | (
                    self._encode_state(index, target, primed=True)
                    & self._label_constraint(automaton, target, primed=True)
                )
            relation = relation | (self._encode_state(index, source, primed=False) & successor)
        return relation

    def _initial_states(self) -> BDD:
        """Reset registers ∧ every automaton in a compatible initial state."""
        init = self.manager.true()
        for name, register in self.module.registers.items():
            literal = self.manager.var(name) if register.init else self.manager.nvar(name)
            init = init & literal
        for index, automaton in enumerate(self.automata):
            entry = self.manager.false()
            for state in sorted(automaton.initial):
                entry = entry | (
                    self._encode_state(index, state, primed=False)
                    & self._label_constraint(automaton, state, primed=False)
                )
            init = init & entry
        return init

    # -- image computation ----------------------------------------------------
    def _release_schedule(self, quantify: Sequence[str]) -> List[Tuple[str, ...]]:
        """The variables of ``quantify`` released at each schedule step.

        A variable is released by the last step whose conjunct mentions it
        (by the first step when none does): no later conjunct needs it.
        """
        last = {name: 0 for name in quantify}
        for idx, part in enumerate(self._schedule):
            for name in part.support():
                if name in last:
                    last[name] = idx
        released: List[List[str]] = [[] for _ in self._schedule]
        for name in sorted(last):
            released[last[name]].append(name)
        return [tuple(names) for names in released]

    def _relational_step(self, seed: BDD, release: Sequence[Tuple[str, ...]]) -> BDD:
        """Conjoin the partition with ``seed``, quantifying early.

        ``release[idx]`` lists the variables to eliminate (current variables
        for an image, primed ones for a preimage) once schedule step ``idx``
        is conjoined: the relational product ``∃ released. acc ∧ part``
        replaces the conjunction on every step that releases a variable.
        """
        acc = seed
        for part, ripe in zip(self._schedule, release):
            acc = acc.and_exists(part, ripe) if ripe else acc & part
        self.statistics.peak_nodes = max(self.statistics.peak_nodes, self.manager.node_count())
        return acc

    def image(self, states: BDD) -> BDD:
        """Successor set ``∃ current. states ∧ T``, renamed back to current vars."""
        from ..engines.cancel import check_cancelled

        check_cancelled()
        result = self._relational_step(states, self._image_release)
        return result.rename(self._rename_to_current)

    def preimage(self, states: BDD) -> BDD:
        """Predecessor set ``∃ next. T ∧ states[next/current]``."""
        from ..engines.cancel import check_cancelled

        check_cancelled()
        primed = states.rename(self._rename_to_next)
        return self._relational_step(primed, self._preimage_release)

    # -- fixpoints -------------------------------------------------------------
    def reachable(self) -> BDD:
        """Forward reachability fixpoint from the initial states."""
        reached = self.initial
        frontier = self.initial
        while not frontier.is_false():
            self.statistics.reachable_iterations += 1
            frontier = self.image(frontier) & ~reached
            reached = reached | frontier
        return reached

    def _eu_within(self, domain: BDD, target: BDD) -> BDD:
        """``E[domain U target]`` (least fixpoint), ``target`` inside ``domain``."""
        reached = target
        frontier = target
        while not frontier.is_false():
            frontier = (self.preimage(frontier) & domain) & ~reached
            reached = reached | frontier
        return reached

    def fair_states(self, within: BDD) -> BDD:
        """Emerson–Lei: the states of ``within`` with an infinite fair path."""
        z = within
        while True:
            self.statistics.el_iterations += 1
            previous = z
            for fair in self.fairness:
                z = z & self.preimage(self._eu_within(z, z & fair))
            if z.equivalent(previous):
                return z

    # -- concrete-state extraction ---------------------------------------------
    def pick_state(self, states: BDD) -> Dict[str, bool]:
        """One concrete state of a non-empty set (don't-cares filled false)."""
        for cube in states.satisfying_cubes():
            state = {name: False for name in self.current_vars}
            state.update(dict(cube))
            return {name: state[name] for name in self.current_vars}
        raise SymbolicModelError("cannot pick a state from the empty set")

    def state_bdd(self, state: Mapping[str, bool]) -> BDD:
        """Characteristic function of one concrete state."""
        result = self.manager.true()
        for name in self.current_vars:
            literal = self.manager.var(name) if state[name] else self.manager.nvar(name)
            result = result & literal
        return result

    def shortest_path(
        self,
        source: Mapping[str, bool],
        target: BDD,
        within: BDD,
        *,
        require_step: bool = False,
    ) -> List[Dict[str, bool]]:
        """Shortest concrete path from ``source`` into ``target`` inside ``within``.

        Symbolic BFS: forward onion rings until the target is hit, then one
        concrete state per ring walking backwards through preimages.  With
        ``require_step`` the path takes at least one transition even when the
        source already satisfies the target (used to close loops).
        """
        source_bdd = self.state_bdd(source)
        if not require_step and not (source_bdd & target).is_false():
            return [dict(source)]
        # BFS rings start at distance 1, so a path of >= 1 transition back to
        # the source itself (the loop-closing case) is found naturally.
        rings = [self.image(source_bdd) & within]
        seen = rings[0]
        while (rings[-1] & target).is_false():
            frontier = (self.image(rings[-1]) & within) & ~seen
            if frontier.is_false():
                raise SymbolicModelError("target unreachable inside the given state set")
            rings.append(frontier)
            seen = seen | frontier
        path = [self.pick_state(rings[-1] & target)]
        for ring in reversed(rings[:-1]):
            predecessors = self.preimage(self.state_bdd(path[0])) & ring
            path.insert(0, self.pick_state(predecessors))
        return [dict(source)] + path

    def forward_set(self, source: BDD, within: BDD) -> BDD:
        """All states reachable from ``source`` inside ``within`` (inclusive)."""
        reached = source & within
        frontier = reached
        while not frontier.is_false():
            frontier = (self.image(frontier) & within) & ~reached
            reached = reached | frontier
        return reached

    def backward_set(self, source: BDD, within: BDD) -> BDD:
        """All states reaching ``source`` inside ``within`` (inclusive)."""
        reached = source & within
        frontier = reached
        while not frontier.is_false():
            frontier = (self.preimage(frontier) & within) & ~reached
            reached = reached | frontier
        return reached

    # -- valuations --------------------------------------------------------------
    def valuation_of(self, state: Mapping[str, bool]) -> Dict[str, bool]:
        """Full signal valuation of a product state (automaton bits dropped)."""
        registers = {name: state[name] for name in self.register_names}
        inputs = {name: state[name] for name in self.free_names}
        valuation = self.module.evaluate_combinational(registers, inputs)
        for name, value in inputs.items():
            valuation.setdefault(name, value)
        return {name: bool(value) for name, value in valuation.items()}


def _find_fair_scc(
    product: SymbolicProduct, fair: BDD, start: Mapping[str, bool]
) -> Tuple[Dict[str, bool], BDD]:
    """Descend the SCC DAG from ``start`` (inside ``fair``) to a fair SCC.

    Every state of the Emerson–Lei fixpoint has a fair path, and a fair
    path's infinitely-visited states form one SCC intersecting every
    acceptance set — so following forward-reachability strictly downwards
    must land in such an SCC.  Returns a state of the SCC and its set.
    """
    anchor = dict(start)
    while True:
        anchor_bdd = product.state_bdd(anchor)
        forward = product.forward_set(anchor_bdd, fair)
        backward = product.backward_set(anchor_bdd, fair)
        scc = forward & backward
        nontrivial = not (product.image(scc) & scc).is_false()
        if nontrivial and all(not (scc & f).is_false() for f in product.fairness):
            return anchor, scc
        descent = forward & ~backward
        if descent.is_false():  # pragma: no cover - contradicts the EL invariant
            raise SymbolicModelError("no fair SCC below a fair state")
        anchor = product.pick_state(descent)


def _extract_lasso(product: SymbolicProduct, fair: BDD) -> LassoTrace:
    """A concrete fair lasso: stem from an initial state, loop in a fair SCC."""
    start = product.pick_state(product.initial & fair)
    entry, scc = _find_fair_scc(product, fair, start)

    stem_states = product.shortest_path(start, product.state_bdd(entry), fair)

    loop_states: List[Dict[str, bool]] = [dict(entry)]
    for fairness in product.fairness:
        segment = product.shortest_path(loop_states[-1], fairness & scc, scc)
        loop_states.extend(segment[1:])
    closing = product.shortest_path(
        loop_states[-1], product.state_bdd(entry), scc, require_step=len(loop_states) == 1
    )
    loop_states.extend(closing[1:])
    # The closing segment ends back at the entry state; the loop convention
    # reads [entry ... last] with an implicit last -> entry edge.
    if len(loop_states) > 1 and loop_states[-1] == loop_states[0]:
        loop_states.pop()

    stem = [product.valuation_of(state) for state in stem_states[:-1]]
    loop = [product.valuation_of(state) for state in loop_states]
    return LassoTrace(stem, loop)


def _replay_witness(module: Module, formulas: Sequence[Formula], trace: LassoTrace) -> None:
    """Check the lasso on the cycle simulator and against the formulas.

    The fixpoint never has the final word: the extracted run must drive the
    RTL to exactly the claimed valuations and satisfy every query formula
    under direct LTL semantics, or the engine refuses to report it.
    """
    from ..rtl.simulator import Simulator

    simulator = Simulator(module)
    driven = sorted(set(module.assigns) | set(module.registers))
    free = module.environment_signals()
    for cycle in range(len(trace.stem) + 2 * len(trace.loop)):
        valuation = simulator.step({name: trace.value(name, cycle) for name in free})
        for name in driven:
            if valuation[name] != trace.value(name, cycle):
                raise SymbolicModelError(
                    f"symbolic witness diverges from the simulator at cycle {cycle} on {name!r}"
                )
    for formula in formulas:
        if not evaluate_on_trace(formula, trace):
            raise SymbolicModelError(f"symbolic witness does not satisfy {formula}")


def find_run_symbolic(
    module: Module,
    formulas: Sequence[Formula],
    *,
    automata: Optional[Sequence[GeneralizedBuchi]] = None,
    extra_free: Sequence[str] = (),
) -> SymbolicResult:
    """Symbolic counterpart of :func:`repro.mc.modelcheck.find_run`.

    Decides "does ``module`` have a run satisfying every formula?" with the
    BDD fixpoint machinery of :class:`SymbolicProduct`; a positive verdict
    carries a concrete lasso witness, replayed on the simulator before it is
    returned, and a negative verdict is a full proof.
    ``automata``/``extra_free`` accept the precompiled artifacts of a
    :class:`~repro.problem.CompiledProblem`.
    """
    start = time.perf_counter()
    with span("symbolic_encode") as sp:
        product = SymbolicProduct(module, formulas, automata=automata, extra_free=extra_free)
        statistics = product.statistics
        sp.set(state_variables=statistics.state_variables, partitions=statistics.partitions)

    satisfiable = False
    witness: Optional[LassoTrace] = None
    if not product.initial.is_false() and all(a.state_count() for a in product.automata):
        with span("symbolic_reachable") as sp:
            reachable = product.reachable()
            sp.set(iterations=statistics.reachable_iterations)
        with span("symbolic_fair") as sp:
            fair = product.fair_states(reachable)
            sp.set(
                el_iterations=statistics.el_iterations,
                peak_nodes=product.manager.node_count(),
            )
        if not (product.initial & fair).is_false():
            satisfiable = True
            with span("symbolic_witness"):
                witness = _extract_lasso(product, fair)
                _replay_witness(module, formulas, witness)

    statistics.peak_nodes = max(statistics.peak_nodes, product.manager.node_count())
    statistics.elapsed_seconds = time.perf_counter() - start
    registry = metrics()
    registry.inc("symbolic.runs")
    registry.inc("symbolic.image_iterations", statistics.reachable_iterations)
    registry.inc("symbolic.el_rounds", statistics.el_iterations)
    registry.gauge_max("symbolic.peak_nodes", statistics.peak_nodes)
    return SymbolicResult(satisfiable, witness, statistics, statistics.elapsed_seconds)
