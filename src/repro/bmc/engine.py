"""The bounded model checking search loop.

:func:`find_run_bmc` mirrors :func:`repro.mc.modelcheck.find_run`: it searches
for a run of the concrete modules satisfying every given formula, but does so
by unrolling the transition relation and asking the CDCL solver, increasing
the bound until a witness appears or ``max_bound`` is exhausted.  There is one
search: every query runs on an incremental
:class:`~repro.bmc.incremental.BMCSession`, and decided queries are cached by
the engine layer (:meth:`repro.engines.coverage.CoverageEngine.find_run`),
not here.  A universal check of property ``p`` is a search for a run of
``Not(p)``.

Witnesses are returned as :class:`~repro.ltl.traces.LassoTrace` objects, the
same shape the explicit-state engine produces, so downstream reporting and
the cross-checking tests can treat the two engines interchangeably.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..ltl.ast import Formula, atoms_of
from ..ltl.traces import LassoTrace
from ..obs import metrics, span
from ..rtl.netlist import Module
from .incremental import BMCSession

__all__ = ["BMCResult", "BMCStatistics", "bmc_free_atoms", "find_run_bmc"]


@dataclass
class BMCStatistics:
    """Aggregate statistics over all SAT queries of one BMC run."""

    sat_calls: int = 0
    max_bound_reached: int = -1
    clauses: int = 0
    variables: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    #: Wall seconds spent at each explored bound, from bound 0 up — the
    #: per-bound cost curve a learned bound scheduler needs.
    per_bound_seconds: List[float] = field(default_factory=list)
    #: SAT queries answered by a solver that was already warm (had clauses or
    #: learned facts from an earlier query) instead of a fresh instance.
    solver_reused: int = 0
    #: Total clauses already attached to the solver when a query began — the
    #: encoding work incremental solving avoided repeating.
    clauses_reused: int = 0
    #: Bounds explored by extending an existing unrolling in place (frames
    #: ``0 .. k-1`` not re-encoded).
    bounds_incremental: int = 0

    def merge_solver(
        self, conflicts: int, decisions: int,
        propagations: int = 0, restarts: int = 0,
    ) -> None:
        self.conflicts += conflicts
        self.decisions += decisions
        self.propagations += propagations
        self.restarts += restarts


@dataclass
class BMCResult:
    """Outcome of a bounded search for a witness run."""

    satisfiable: bool
    bound: int
    loop_start: Optional[int] = None
    witness: Optional[LassoTrace] = None
    statistics: BMCStatistics = field(default_factory=BMCStatistics)
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfiable

    def summary(self) -> str:
        if self.satisfiable:
            return (
                f"witness found at bound {self.bound} (loop to frame {self.loop_start}), "
                f"{self.statistics.sat_calls} SAT calls"
            )
        return (
            f"no witness up to bound {self.bound}, "
            f"{self.statistics.sat_calls} SAT calls"
        )


def bmc_free_atoms(
    module: Module, formulas: Sequence[Formula], extra_free: Sequence[str] = ()
) -> List[str]:
    """The free-signal list a BMC query leaves unconstrained.

    The formulas' atoms the module does not drive, then ``extra_free``.
    Exposed so callers that pool :class:`~repro.bmc.incremental.BMCSession`
    objects (the BMC engine) can construct sessions with exactly the list
    :func:`find_run_bmc` will derive.
    """
    driven = set(module.assigns) | set(module.registers)
    names: List[str] = []
    atoms = [name for formula in formulas for name in sorted(atoms_of(formula))]
    for name in atoms + list(extra_free):
        if name not in driven and name not in names:
            names.append(name)
    return names


def find_run_bmc(
    module: Module,
    formulas: Sequence[Formula],
    *,
    max_bound: int = 12,
    extra_free: Sequence[str] = (),
    session: Optional[BMCSession] = None,
) -> BMCResult:
    """Search for a lasso run of ``module`` satisfying every formula.

    Bounds are explored in increasing order, with one SAT query per bound:
    the solver picks the loop position through selector literals.  The
    first satisfiable query yields the witness.  An unsatisfiable result
    only means *no witness up to* ``max_bound``.
    ``extra_free`` names additional environment signals (e.g. the observed
    free signals of a :class:`~repro.problem.CompiledProblem`) to leave
    unconstrained — and decoded into witness states — in every frame.

    The search is *incremental*: one persistent solver accumulates the
    monotone unrolling across bounds, with per-bound loop selectors and
    LTL obligations switched on through assumptions (see
    :class:`~repro.bmc.incremental.BMCSession`).  Passing an existing
    ``session`` (the BMC engine pools them per slice) extends reuse across
    calls — across spec conjuncts sharing the slice.  Decided queries are
    cached one layer up, by :meth:`repro.engines.coverage.CoverageEngine.find_run`.
    """
    free_atoms = bmc_free_atoms(module, formulas, extra_free)
    start = time.perf_counter()
    statistics = BMCStatistics()
    if session is None or not session.compatible_with(module, free_atoms):
        session = BMCSession(module, free_atoms)

    result = BMCResult(False, max_bound, statistics=statistics)
    for bound in range(max_bound + 1):
        bound_start = time.perf_counter()
        with span("bmc_bound", bound=bound) as sp:
            if session.queries > 0:
                statistics.bounds_incremental += 1
            witness_info = _search_bound(session, formulas, bound, statistics)
            sp.set(sat_calls=statistics.sat_calls, clauses_reused=statistics.clauses_reused)
        bound_seconds = time.perf_counter() - bound_start
        statistics.per_bound_seconds.append(round(bound_seconds, 6))
        metrics().observe("bmc.bound_seconds", bound_seconds)
        if witness_info is not None:
            loop_start, witness = witness_info
            result = BMCResult(True, bound, loop_start, witness, statistics)
            break
    result.elapsed_seconds = time.perf_counter() - start
    registry = metrics()
    registry.inc("bmc.runs")
    registry.inc("bmc.sat_calls", statistics.sat_calls)
    registry.inc("bmc.solver_reused", statistics.solver_reused)
    registry.inc("bmc.clauses_reused", statistics.clauses_reused)
    registry.inc("bmc.bounds_incremental", statistics.bounds_incremental)
    return result


def _search_bound(
    session: BMCSession,
    formulas: Sequence[Formula],
    bound: int,
    statistics: BMCStatistics,
) -> Optional[tuple]:
    """Ask the one query of a bound; ``(loop_start, witness)`` on SAT."""
    from ..engines.cancel import check_cancelled

    check_cancelled()
    statistics.max_bound_reached = bound
    warm = session.queries > 0
    result, reused = session.query(formulas, bound)
    statistics.sat_calls += 1
    if warm:
        statistics.solver_reused += 1
        statistics.clauses_reused += reused
    statistics.clauses = max(statistics.clauses, session.unrolled.cnf.clause_count())
    statistics.variables = max(statistics.variables, session.unrolled.cnf.variable_count())
    statistics.merge_solver(
        result.conflicts,
        result.decisions,
        result.propagations,
        result.restarts,
    )
    if result.satisfiable:
        return session.decode_witness(result, bound)
    return None
