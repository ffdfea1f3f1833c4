"""Conflict-driven clause-learning SAT solver.

The solver implements the standard CDCL loop used by modern SAT engines,
scaled to the problem sizes produced by :mod:`repro.bmc` (tens of thousands
of clauses):

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* VSIDS-style activity-based branching (lazy max-heap) with phase saving,
* Luby-sequence restarts,
* learned-clause deletion based on activity.

The solver is **incremental**: one instance can be solved many times.
Clauses may be added between calls (:meth:`SatSolver.add_clause`, or by
appending to the underlying :class:`~repro.sat.cnf.CNF` — the solver syncs
new clauses at the start of every :meth:`solve`), and ``solve(assumptions=
...)`` treats the assumptions as retractable pseudo-decisions, so learned
clauses, variable activities and saved phases all persist across calls.
This is the discipline bounded model checkers rely on: the monotone
transition unrolling accumulates in one solver while per-bound constraints
are switched on and off through assumed activation literals.

A deliberately naive :func:`solve_brute_force` reference is also provided;
the property-based tests cross-check the two on random formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .cnf import CNF, Literal

__all__ = ["SatResult", "SatSolver", "solve", "solve_brute_force"]


@dataclass
class SatResult:
    """Outcome of a SAT query."""

    satisfiable: bool
    assignment: Dict[str, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0

    def __bool__(self) -> bool:
        return self.satisfiable

    def value(self, name: str) -> bool:
        """Value of a named variable in the model (defaults to ``False``)."""
        return self.assignment.get(name, False)

    def summary(self) -> str:
        status = "SAT" if self.satisfiable else "UNSAT"
        return (
            f"{status}: {self.decisions} decisions, {self.conflicts} conflicts, "
            f"{self.propagations} propagations, {self.restarts} restarts"
        )


class _ClauseRef:
    """Mutable clause record used internally (original or learned)."""

    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool = False):
        self.literals = literals
        self.learned = learned
        self.activity = 0.0


def _luby(index: int) -> int:
    """The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 1-based.

    ``luby(2^k - 1) = 2^(k-1)``; otherwise the value repeats the prefix:
    ``luby(i) = luby(i - 2^(k-1) + 1)`` where ``k`` is the bit length of ``i``.
    """
    if index < 1:
        raise ValueError("the Luby sequence is 1-based")
    while True:
        k = index.bit_length()
        if (1 << k) - 1 == index:
            return 1 << (k - 1)
        index -= (1 << (k - 1)) - 1


class SatSolver:
    """Incremental CDCL solver over a :class:`~repro.sat.cnf.CNF` formula.

    The solver loads the CNF's clauses at construction and re-syncs before
    every :meth:`solve`, so callers can keep emitting clauses into the shared
    CNF (e.g. through a :class:`~repro.sat.tseitin.TseitinEncoder`) between
    calls.  Everything the search learns — conflict clauses, VSIDS
    activities, saved phases — survives into the next call.
    """

    def __init__(self, cnf: CNF):
        self._cnf = cnf
        self._num_vars = 0
        # assignment[v] is None / True / False, indexed from 1
        self._assignment: List[Optional[bool]] = [None]
        self._level: List[int] = [0]
        self._reason: List[Optional[_ClauseRef]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._qhead = 0
        self._clauses: List[_ClauseRef] = []
        self._learned: List[_ClauseRef] = []
        self._watches: Dict[int, List[_ClauseRef]] = {}
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._clause_inc = 1.0
        self._clause_decay = 0.999
        #: True once the clause database is contradictory on its own (empty
        #: clause or a level-0 conflict) — every future solve is UNSAT.
        self._failed = False
        # Branch only on variables that occur in the formula: the pool may be
        # shared with other queries (incremental BMC) and carry thousands of
        # variables that are irrelevant here.
        self._relevant: Set[int] = set()
        # Lazy max-heap of (-activity, variable); stale entries are skipped
        # at pop time, unassigned variables are re-pushed on backtracking.
        self._order: List[Tuple[float, int]] = []
        # Cumulative search counters (per-call deltas go into SatResult).
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        self._learned_total = 0
        self._attached = 0
        self.attach_clauses()

    # -- incremental interface --------------------------------------------------
    @property
    def attached_clauses(self) -> int:
        """Number of problem clauses currently loaded into the solver."""
        return len(self._clauses)

    def add_clause(self, *literals: Literal) -> None:
        """Add a clause after construction (also appended to the CNF).

        The solver must be between :meth:`solve` calls; the new clause takes
        effect immediately (level-0 propagation happens on the next solve).
        """
        self._cnf.add_clause(*literals)
        self.attach_clauses()

    def attach_clauses(self) -> int:
        """Sync clauses appended to the underlying CNF since the last sync.

        Returns the number of newly attached clauses.  Called automatically
        at the start of every :meth:`solve`.
        """
        clauses = self._cnf.clauses
        fresh = 0
        if self._attached < len(clauses):
            self._cancel_to(0)
            while self._attached < len(clauses):
                clause = clauses[self._attached]
                self._attached += 1
                fresh += 1
                self._attach([int(lit) for lit in clause.literals])
        return fresh

    def _attach(self, literals: List[int]) -> None:
        """Attach one problem clause, repairing watches/units at level 0."""
        literals = list(dict.fromkeys(literals))
        for literal in literals:
            self._ensure_variable(abs(literal))
        if not literals:
            self._failed = True
            return
        ref = _ClauseRef(literals, learned=False)
        self._clauses.append(ref)
        for literal in literals:
            variable = abs(literal)
            if variable not in self._relevant:
                self._relevant.add(variable)
                heappush(self._order, (-self._activity[variable], variable))
        if len(literals) == 1:
            value = self._value(literals[0])
            if value is False:
                self._failed = True
            elif value is None:
                self._assign(literals[0], ref)
            return
        # Prefer non-false watches so the two-watched invariant holds even
        # when the clause arrives after level-0 propagation has run.
        non_false = [i for i, lit in enumerate(literals) if self._value(lit) is not False]
        if len(non_false) >= 2:
            a, b = non_false[0], non_false[1]
            literals[0], literals[a] = literals[a], literals[0]
            if b == 0:
                b = a
            literals[1], literals[b] = literals[b], literals[1]
        elif len(non_false) == 1:
            a = non_false[0]
            literals[0], literals[a] = literals[a], literals[0]
            if self._value(literals[0]) is None:
                self._assign(literals[0], ref)
        else:
            self._failed = True
        self._watch(literals[0], ref)
        self._watch(literals[1], ref)

    def _attach_learned(self, literals: List[int]) -> _ClauseRef:
        """Attach a learned clause (watch order prepared by the analysis)."""
        ref = _ClauseRef(list(literals), learned=True)
        self._learned.append(ref)
        self._learned_total += 1
        if len(ref.literals) > 1:
            self._watch(ref.literals[0], ref)
            self._watch(ref.literals[1], ref)
        return ref

    def _watch(self, literal: int, ref: _ClauseRef) -> None:
        self._watches.setdefault(-literal, []).append(ref)

    def _ensure_variable(self, variable: int) -> None:
        """Grow the per-variable arrays when a new variable appears."""
        while self._num_vars < variable:
            self._num_vars += 1
            self._assignment.append(None)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)

    # -- assignment helpers ------------------------------------------------------
    def _value(self, literal: int) -> Optional[bool]:
        value = self._assignment[abs(literal)]
        if value is None:
            return None
        return value if literal > 0 else not value

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _assign(self, literal: int, reason: Optional[_ClauseRef]) -> None:
        variable = abs(literal)
        self._assignment[variable] = literal > 0
        self._level[variable] = self._decision_level()
        self._reason[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)

    def _cancel_to(self, level: int) -> None:
        """Undo all assignments above ``level`` (re-queueing branch variables)."""
        if level >= len(self._trail_limits):
            return
        target = self._trail_limits[level]
        order = self._order
        for literal in reversed(self._trail[target:]):
            variable = abs(literal)
            self._assignment[variable] = None
            self._reason[variable] = None
            if variable in self._relevant:
                heappush(order, (-self._activity[variable], variable))
        del self._trail[target:]
        del self._trail_limits[level:]
        if self._qhead > len(self._trail):
            self._qhead = len(self._trail)

    # -- propagation ---------------------------------------------------------------
    def _propagate(self) -> Optional[_ClauseRef]:
        """Unit propagation from the queue head; returns a conflict or ``None``."""
        while self._qhead < len(self._trail):
            literal = self._trail[self._qhead]
            self._qhead += 1
            self._propagations += 1
            watchers = self._watches.get(literal, [])
            retained: List[_ClauseRef] = []
            position = 0
            while position < len(watchers):
                ref = watchers[position]
                position += 1
                literals = ref.literals
                # Normalise so literals[0] or literals[1] is the falsified watch.
                falsified = -literal
                if literals[0] == falsified:
                    literals[0], literals[1] = literals[1], literals[0]
                # literals[1] is now the falsified literal.
                first = literals[0]
                if self._value(first) is True:
                    retained.append(ref)
                    continue
                moved = False
                for other_index in range(2, len(literals)):
                    candidate = literals[other_index]
                    if self._value(candidate) is not False:
                        literals[1], literals[other_index] = literals[other_index], literals[1]
                        self._watch(literals[1], ref)
                        moved = True
                        break
                if moved:
                    continue
                retained.append(ref)
                if self._value(first) is False:
                    # Conflict: keep remaining watchers and report.
                    retained.extend(watchers[position:])
                    self._watches[literal] = retained
                    self._qhead = len(self._trail)
                    return ref
                self._assign(first, ref)
            self._watches[literal] = retained
        return None

    # -- conflict analysis ------------------------------------------------------------
    def _bump_variable(self, variable: int) -> None:
        self._activity[variable] += self._var_inc
        if self._activity[variable] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100
            # Stored heap keys are stale after a rescale; rebuild.
            self._order = [
                (-self._activity[v], v)
                for v in self._relevant
                if self._assignment[v] is None
            ]
            self._order.sort()
        if self._assignment[variable] is None and variable in self._relevant:
            heappush(self._order, (-self._activity[variable], variable))

    def _bump_clause(self, ref: _ClauseRef) -> None:
        ref.activity += self._clause_inc
        if ref.activity > 1e20:
            for learned in self._learned:
                learned.activity *= 1e-20
            self._clause_inc *= 1e-20

    def _analyze(self, conflict: _ClauseRef) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal = 0
        reason: Optional[_ClauseRef] = conflict
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            assert reason is not None
            self._bump_clause(reason) if reason.learned else None
            start = 1 if literal != 0 else 0
            for clause_literal in reason.literals[start:]:
                variable = abs(clause_literal)
                if seen[variable] or self._level[variable] == 0:
                    continue
                seen[variable] = True
                self._bump_variable(variable)
                if self._level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Pick the next literal on the trail to resolve on.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            literal = self._trail[trail_index]
            trail_index -= 1
            variable = abs(literal)
            seen[variable] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[variable]
        learned[0] = -literal

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest decision level in the clause.
        levels = sorted((self._level[abs(lit)] for lit in learned[1:]), reverse=True)
        backjump = levels[0]
        # Move a literal of that level into the second watch position.
        for index in range(1, len(learned)):
            if self._level[abs(learned[index])] == backjump:
                learned[1], learned[index] = learned[index], learned[1]
                break
        return learned, backjump

    # -- branching ------------------------------------------------------------------------
    def _pick_branch_variable(self) -> Optional[int]:
        order = self._order
        activity = self._activity
        assignment = self._assignment
        while order:
            negated, variable = heappop(order)
            if assignment[variable] is not None:
                continue
            if -negated != activity[variable]:
                # Stale entry: the variable was bumped since this was pushed
                # (the bump pushed a fresh entry with the higher activity).
                continue
            return variable
        return None

    def _reduce_learned(self) -> None:
        """Drop the least active half of the learned clauses (keep binary ones)."""
        if len(self._learned) < 2:
            return
        self._learned.sort(key=lambda ref: ref.activity)
        keep_from = len(self._learned) // 2
        removable = {
            id(ref)
            for ref in self._learned[:keep_from]
            if len(ref.literals) > 2 and not self._is_reason(ref)
        }
        if not removable:
            return
        self._learned = [ref for ref in self._learned if id(ref) not in removable]
        for literal, watchers in self._watches.items():
            self._watches[literal] = [ref for ref in watchers if id(ref) not in removable]

    def _is_reason(self, ref: _ClauseRef) -> bool:
        return any(reason is ref for reason in self._reason)

    # -- main loop --------------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[Literal] = (),
        *,
        max_conflicts: Optional[int] = None,
    ) -> SatResult:
        """Run the CDCL loop.

        ``assumptions`` are retractable pseudo-decisions asserted below every
        search decision (the incremental-BMC discipline: per-bound activation
        literals are assumed, never added as units, so one solver serves
        every bound).  The solver always returns backtracked to level 0,
        ready for the next call; learned clauses and branching state carry
        over.  When ``max_conflicts`` is exceeded the search is abandoned and
        the result reports unsatisfiable with ``conflicts`` equal to the
        limit — callers that need completeness must leave it unset.

        Every call is recorded in the process metrics registry
        (``sat.solves`` and the aggregate search counters) — cheap relative
        to any non-trivial search, and the substrate for ``--trace`` /
        per-query solver statistics.
        """
        result = self._solve(assumptions, max_conflicts=max_conflicts)
        from ..obs import metrics

        registry = metrics()
        registry.inc("sat.solves")
        registry.inc("sat.decisions", result.decisions)
        registry.inc("sat.conflicts", result.conflicts)
        registry.inc("sat.propagations", result.propagations)
        registry.inc("sat.restarts", result.restarts)
        return result

    def _call_result(self, satisfiable: bool, base: Tuple[int, ...], assignment=None) -> SatResult:
        conflicts, decisions, propagations, restarts, learned = base
        return SatResult(
            satisfiable,
            assignment or {},
            conflicts=self._conflicts - conflicts,
            decisions=self._decisions - decisions,
            propagations=self._propagations - propagations,
            restarts=self._restarts - restarts,
            learned_clauses=self._learned_total - learned,
        )

    def _model(self) -> Dict[str, bool]:
        named_count = len(self._cnf.pool)
        name_of = self._cnf.pool.name_of
        return {
            name_of(index): bool(self._assignment[index])
            for index in range(1, min(self._num_vars, named_count) + 1)
            if self._assignment[index] is not None
        }

    def _solve(
        self,
        assumptions: Sequence[Literal] = (),
        *,
        max_conflicts: Optional[int] = None,
    ) -> SatResult:
        base = (
            self._conflicts,
            self._decisions,
            self._propagations,
            self._restarts,
            self._learned_total,
        )
        self._cancel_to(0)
        self.attach_clauses()
        if self._failed:
            return self._call_result(False, base)
        assumed = [int(assumption) for assumption in assumptions]
        for literal in assumed:
            self._ensure_variable(abs(literal))

        conflict = self._propagate()
        if conflict is not None:
            self._failed = True
            return self._call_result(False, base)

        from ..engines.cancel import check_cancelled

        restart_index = 1
        conflicts_until_restart = 32 * _luby(restart_index)
        conflicts_since_restart = 0
        learned_limit = max(100, len(self._clauses) // 2)
        steps_until_poll = 128

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self._failed = True
                    return self._call_result(False, base)
                learned, backjump = self._analyze(conflict)
                self._cancel_to(backjump)
                ref = self._attach_learned(learned)
                self._var_inc /= self._var_decay
                self._clause_inc /= self._clause_decay
                self._assign(learned[0], ref)
                if len(self._learned) > learned_limit:
                    self._reduce_learned()
                    learned_limit = int(learned_limit * 1.3)
                if conflicts_since_restart >= conflicts_until_restart:
                    conflicts_since_restart = 0
                    restart_index += 1
                    conflicts_until_restart = 32 * _luby(restart_index)
                    self._restarts += 1
                    self._cancel_to(0)
                continue

            # Cooperative cancellation for portfolio races, polled every few
            # steps so a lost race doesn't keep burning the CDCL loop.
            steps_until_poll -= 1
            if steps_until_poll <= 0:
                steps_until_poll = 128
                check_cancelled()
            if max_conflicts is not None and self._conflicts - base[0] >= max_conflicts:
                result = self._call_result(False, base)
                self._cancel_to(0)
                return result

            if self._decision_level() < len(assumed):
                # Re-assert the next pending assumption as a pseudo-decision.
                literal = assumed[self._decision_level()]
                value = self._value(literal)
                if value is False:
                    # The clause database (with the earlier assumptions)
                    # forces this assumption's negation: UNSAT under
                    # assumptions, but the database itself stays consistent.
                    result = self._call_result(False, base)
                    self._cancel_to(0)
                    return result
                self._trail_limits.append(len(self._trail))
                if value is None:
                    self._assign(literal, None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                result = self._call_result(True, base, self._model())
                self._cancel_to(0)
                return result
            self._decisions += 1
            self._trail_limits.append(len(self._trail))
            self._assign(variable if self._phase[variable] else -variable, None)


def solve(cnf: CNF, assumptions: Sequence[Literal] = ()) -> SatResult:
    """Solve a CNF formula with a fresh :class:`SatSolver`."""
    return SatSolver(cnf).solve(assumptions)


def _all_assignments(variables: Sequence[int]) -> Iterator[Dict[int, bool]]:
    for bits in itertools.product([False, True], repeat=len(variables)):
        yield dict(zip(variables, bits))


def solve_brute_force(cnf: CNF) -> SatResult:
    """Reference solver: enumerate all assignments (exponential; tests only)."""
    variables = sorted({variable for clause in cnf.clauses for variable in clause.variables()})
    for assignment in _all_assignments(variables):
        if cnf.evaluate(assignment) is True:
            return SatResult(True, cnf.pool.decode(assignment))
    return SatResult(False)
