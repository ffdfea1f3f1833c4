"""The rule-scheduled coverage engine (``--engine auto``).

Theorem 1 has the same answer whichever engine decides it, so ``auto`` only
chooses who pays for the query.  One fixed rule on the compiled problem picks
a single engine: large property automata go to the complete ``explicit``
engine, small ones to ``bmc``, whose witness is definitive.  When ``bmc``
finds no witness, which only holds up to the bound, the complete members
race to finish the job, so an ``auto`` verdict is always complete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..ltl.traces import LassoTrace
from .coverage import CoverageEngine, get_engine, register_engine
from .portfolio import PortfolioEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..problem import CompiledProblem

__all__ = ["AutoEngine", "AutoResult", "EXPLICIT_ABOVE_STATES", "pick_engine"]

#: Queries whose automata have more states than this in total run on
#: ``explicit``; the rest run on ``bmc``.  This is the one rule a
#: decision-list model learned from the catalog's per-query winners
#: (``automaton_states > 28.5``, trained on the 18 catalog rows).
EXPLICIT_ABOVE_STATES = 28


def pick_engine(features) -> str:
    """The engine ``auto`` runs first on a query with this feature record."""
    return "explicit" if features["automaton_states"] > EXPLICIT_ABOVE_STATES else "bmc"


@dataclass
class AutoResult:
    """Outcome of one ``auto`` query: the deciding engine's result and name."""

    satisfiable: bool
    winner: str
    witness: Optional[LassoTrace] = None
    bound: Optional[int] = None
    statistics: object = None
    elapsed_seconds: float = 0.0


class AutoEngine(CoverageEngine):
    """Run ``explicit`` on large automata, ``bmc`` on small ones."""

    name = "auto"
    complete = True

    def _cache_bound(self) -> Optional[int]:
        # The bounded engine's reach shapes which witness an auto run finds.
        return self.max_bound

    def _find_run(self, problem: "CompiledProblem"):
        start = time.perf_counter()
        winner = pick_engine(problem.features())
        engine = get_engine(winner, max_bound=self.max_bound, slicing=self.slicing)
        result = engine.find_run(problem)
        if winner == "bmc" and not result.satisfiable:
            # _find_run, not find_run: this engine's own find_run already owns
            # the cache entry for the query.
            race = PortfolioEngine(
                max_bound=self.max_bound,
                slicing=self.slicing,
                members=("explicit", "symbolic"),
            )
            result = race._find_run(problem)
            winner = result.winner
        return AutoResult(
            satisfiable=bool(result.satisfiable),
            winner=winner,
            witness=result.witness,
            bound=getattr(result, "bound", None),
            statistics=getattr(result, "statistics", None),
            elapsed_seconds=time.perf_counter() - start,
        )


register_engine("auto", AutoEngine)
