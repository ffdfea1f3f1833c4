"""The coverage engines.

Every engine answers the paper's primary coverage question (Theorem 1) —
via the explicit-state product/nested-DFS engine (:mod:`repro.mc`), the
bounded SAT engine (:mod:`repro.bmc`), the fully symbolic BDD fixpoint
engine (:mod:`repro.mc.symbolic`), the racing portfolio
(:mod:`repro.engines.portfolio`: all three concurrently with cooperative
cancellation, first decisive verdict wins), or the rule-scheduled engine
(:mod:`repro.engines.auto`: explicit on large automata, bmc on small ones)
— behind one ``check_primary(problem)`` interface
(:mod:`repro.engines.coverage`).  Every engine consumes the compiled
problem IR (:mod:`repro.problem`), so each query is cone-of-influence
sliced and its automata are compiled once.

The engine registry is string-keyed so the selection threads cleanly from
the CLI (``--engine``) and from :class:`~repro.core.coverage.CoverageOptions`
down to the kernel.
"""

from .cancel import CancelToken, Cancelled, check_cancelled, using_cancel_token
from .coverage import (
    BmcEngine,
    CoverageEngine,
    EngineVerdict,
    ExplicitEngine,
    engine_from_options,
    engine_names,
    get_engine,
    register_engine,
    unregister_engine,
)
from .portfolio import PortfolioEngine
from .symbolic import SymbolicEngine
from .auto import AutoEngine

__all__ = [
    "CoverageEngine",
    "EngineVerdict",
    "ExplicitEngine",
    "BmcEngine",
    "SymbolicEngine",
    "PortfolioEngine",
    "AutoEngine",
    "get_engine",
    "engine_names",
    "register_engine",
    "unregister_engine",
    "engine_from_options",
    "CancelToken",
    "Cancelled",
    "check_cancelled",
    "using_cancel_token",
]
