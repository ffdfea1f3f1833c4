"""The primary coverage question (Theorem 1).

    The RTL specification (properties R and concrete modules M) covers the
    architectural intent A  iff  the temporal property ``!A & R`` is false
    in M.

Operationally: search for a run of the concrete modules that satisfies every
RTL property but refutes the architectural intent.  If such a run exists the
intent is *not* covered and the run is returned as a witness (the start of the
gap analysis); if no such run exists, coverage is proved.

The search is :meth:`~repro.engines.coverage.CoverageEngine.check_primary` of
the engine selected via ``options``
(:class:`~repro.core.coverage.CoverageOptions`): the complete explicit-state
engine by default, the bounded SAT engine (``engine="bmc"``), whose *covered*
verdicts hold up to ``options.bmc_max_bound`` only
(:attr:`~repro.engines.coverage.EngineVerdict.complete` records the
distinction), or the complete symbolic BDD fixpoint engine
(``engine="symbolic"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..engines.coverage import CoverageEngine, EngineVerdict, engine_from_options
from ..ltl.ast import Formula
from .spec import CoverageProblem

if TYPE_CHECKING:  # pragma: no cover - typing only (coverage imports primary)
    from .coverage import CoverageOptions

__all__ = ["primary_coverage_check"]


def primary_coverage_check(
    problem: CoverageProblem,
    *,
    architectural: Optional[Formula] = None,
    options: Optional["CoverageOptions"] = None,
    engine: Optional[CoverageEngine] = None,
) -> EngineVerdict:
    """Answer the primary coverage question for the problem.

    ``architectural`` restricts the check to a single architectural property
    (Algorithm 1 analyses the intent property by property); by default the
    conjunction of the whole intent is used.  ``options`` selects the engine
    (``options.engine``, default explicit-state) unless an ``engine``
    instance is passed.
    """
    engine = engine or engine_from_options(options)
    # Witnesses feed the gap pipeline's term projection onto APR, so the
    # whole alphabet is kept observable in the (sliced) compiled problem.
    return engine.check_primary(
        problem, architectural=architectural, observe=sorted(problem.apr)
    )
