"""Unified decision-backend layer.

Every decision query of the pipeline funnels through one of two layers:

* **propositional backends** (:mod:`repro.engines.prop`) answer boolean
  validity / satisfiability / equivalence queries over
  :class:`~repro.logic.boolexpr.BoolExpr` — the ``auto`` policy picks
  truth-table enumeration, BDDs (:mod:`repro.logic.bdd`) or CDCL SAT
  (:mod:`repro.sat`) by support size; its one use in the pipeline is the
  constant folding of ``T_M`` construction;
* **coverage engines** (:mod:`repro.engines.coverage`) answer the paper's
  primary coverage question (Theorem 1) — via the explicit-state
  product/nested-DFS engine (:mod:`repro.mc`), the bounded SAT engine
  (:mod:`repro.bmc`), the fully symbolic BDD fixpoint engine
  (:mod:`repro.mc.symbolic`), the racing portfolio
  (:mod:`repro.engines.portfolio`: all three concurrently with cooperative
  cancellation, first decisive verdict wins), or the rule-scheduled
  engine (:mod:`repro.engines.auto`: explicit on large automata, bmc on
  small ones) — behind one
  ``check_primary(problem)`` interface.  Every engine consumes the compiled
  problem IR (:mod:`repro.problem`), so each query is cone-of-influence
  sliced and its automata are compiled once.

The engine registry is string-keyed so the selection threads cleanly from
the CLI (``--engine``) and from :class:`~repro.core.coverage.CoverageOptions`
down to the kernel.
"""

from .prop import (
    AutoBackend,
    BddBackend,
    PropBackend,
    SatBackend,
    TruthTableBackend,
)
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
    "PropBackend",
    "TruthTableBackend",
    "BddBackend",
    "SatBackend",
    "AutoBackend",
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
