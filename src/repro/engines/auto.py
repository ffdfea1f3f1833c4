"""The rule-scheduled coverage engine (``--engine auto``).

Theorem 1 has the same answer whichever engine decides it, so ``auto`` only
chooses who pays for the query.  One fixed rule on the compiled problem picks
a single engine: large property automata go to the complete ``explicit``
engine, small ones to ``bmc``, whose witness is definitive.  When ``bmc``
finds no witness, which only holds up to the bound, ``explicit`` decides the
query, so an ``auto`` verdict is always complete.  No threads are started.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from .coverage import CoverageEngine, RunResult, get_engine, register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..problem import CompiledProblem

__all__ = ["AutoEngine", "EXPLICIT_ABOVE_STATES", "pick_engine"]

#: Queries whose automata have more states than this in total run on
#: ``explicit``; the rest run on ``bmc``.  This is the one rule a
#: decision-list model learned from the catalog's per-query winners
#: (``automaton_states > 28.5``, trained on the 18 catalog rows).
EXPLICIT_ABOVE_STATES = 28


def pick_engine(features) -> str:
    """The engine ``auto`` runs first on a query with this feature record."""
    return "explicit" if features["automaton_states"] > EXPLICIT_ABOVE_STATES else "bmc"


class AutoEngine(CoverageEngine):
    """Run ``explicit`` on large automata, ``bmc`` on small ones."""

    name = "auto"
    complete = True

    def _cache_bound(self) -> Optional[int]:
        # The bounded engine's reach shapes which witness an auto run finds.
        return self.max_bound

    def _find_run(self, problem: "CompiledProblem") -> RunResult:
        winner = pick_engine(problem.features())
        engine = get_engine(winner, max_bound=self.max_bound, slicing=self.slicing)
        result = engine.find_run(problem)
        if winner == "bmc" and not result.satisfiable:
            # bmc's "no witness" holds only up to the bound: explicit decides.
            winner = "explicit"
            engine = get_engine(winner, max_bound=self.max_bound, slicing=self.slicing)
            result = engine.find_run(problem)
        return replace(result, complete=True, winner=winner)


register_engine("auto", AutoEngine)
