"""Fresh-solver reference of the bounded model checking search.

The differential oracle of :func:`repro.bmc.engine.find_run_bmc`: every
``(bound, loop_start)`` query copies the shared unrolling, closes the lasso
with unguarded clauses, asserts the LTL obligations as units and asks a new
:class:`~repro.sat.solver.SatSolver`.  Nothing is carried from one query to
the next — no activation literals, no assumptions, no learned clauses — so
its verdicts are the plain bounded semantics the incremental session must
reproduce.  It explores bounds and loop positions in the same order and
fills the same :class:`~repro.bmc.engine.BMCStatistics`, except the three
reuse counters, which stay zero.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bmc.engine import BMCResult, BMCStatistics, bmc_free_atoms
from repro.bmc.ltl_bmc import LTLBoundedEncoder
from repro.bmc.unroll import UnrolledModule, frame_name
from repro.engines.cancel import check_cancelled
from repro.ltl.ast import Formula
from repro.ltl.traces import LassoTrace
from repro.rtl.netlist import Module
from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver
from repro.sat.tseitin import TseitinEncoder


def loop_constraint(unrolled: UnrolledModule, cnf: CNF, loop_start: int) -> None:
    """Close the lasso in ``cnf``: the successor of the last frame is ``loop_start``.

    The clauses go into ``cnf`` (a :meth:`CNF.copy` of the shared unrolling),
    so several loop positions can be tried against the same frames.
    """
    if not 0 <= loop_start <= unrolled.depth:
        raise ValueError("loop_start must lie within the unrolled frames")
    local_encoder = TseitinEncoder(cnf)
    rename = unrolled.rename(unrolled.depth)
    for name, register in unrolled.module.registers.items():
        next_literal = local_encoder.literal_for(register.next_value, rename=rename)
        target = cnf.pool.literal(frame_name(name, loop_start))
        cnf.add_clause(-next_literal, target)
        cnf.add_clause(next_literal, -target)


def reference_find_run_bmc(
    module: Module,
    formulas: Sequence[Formula],
    *,
    max_bound: int = 12,
    min_bound: int = 0,
    extra_free: Sequence[str] = (),
) -> BMCResult:
    """:func:`~repro.bmc.engine.find_run_bmc` with a fresh solver per query."""
    statistics = BMCStatistics()
    unrolled = UnrolledModule(module, free_atoms=bmc_free_atoms(module, formulas, extra_free))
    unrolled.assert_initial_state()
    for bound in range(min_bound, max_bound + 1):
        found = _search_bound(unrolled, formulas, bound, statistics)
        if found is not None:
            loop_start, witness = found
            return BMCResult(True, bound, loop_start, witness, statistics)
    return BMCResult(False, max_bound, None, None, statistics)


def _search_bound(
    unrolled: UnrolledModule,
    formulas: Sequence[Formula],
    bound: int,
    statistics: BMCStatistics,
) -> Optional[tuple]:
    """Try every loop position at one bound; ``(loop_start, witness)`` on SAT."""
    unrolled.extend_to(bound)
    statistics.max_bound_reached = bound
    for loop_start in range(bound + 1):
        check_cancelled()
        query = unrolled.cnf.copy()
        loop_constraint(unrolled, query, loop_start)
        ltl = LTLBoundedEncoder(TseitinEncoder(query), bound, loop_start)
        for formula in formulas:
            ltl.encoder.assert_expr(ltl.encode(formula))
        statistics.sat_calls += 1
        statistics.clauses = max(statistics.clauses, query.clause_count())
        statistics.variables = max(statistics.variables, query.variable_count())
        result = SatSolver(query).solve()
        statistics.merge_solver(
            result.conflicts,
            result.decisions,
            result.propagations,
            result.restarts,
        )
        if result.satisfiable:
            states = unrolled.decode_states(result.assignment)
            return loop_start, LassoTrace.from_states(states, loop_start)
    return None
