"""The racing portfolio coverage engine (``--engine portfolio``).

No single engine dominates: the bounded SAT engine finds shallow witnesses
fastest, the explicit engine wins on narrow products, the symbolic engine on
wide ones — and which regime a query falls in is hard to predict.  The
portfolio engine answers each query by running all three members
*concurrently* on the same :class:`~repro.problem.CompiledProblem` (one
compile, three consumers) and returning the first **decisive** verdict:

* a *satisfiable* result from any member — the witness run is concrete and
  definitive regardless of who found it;
* an *unsatisfiable* result from a complete member (explicit / symbolic) — a
  full proof of coverage.

An unsatisfiable verdict from the bounded engine is *not* decisive (it only
holds up to the bound); it is kept as a fallback and reported — with
``complete=False`` — only when every complete member fails.

Losing members are stopped through cooperative cancellation
(:mod:`repro.engines.cancel`): the winner trips the shared token and the
search loops of the losers (Kripke enumeration, product construction, CDCL
decisions, BMC bounds, symbolic images) unwind at their next poll.  With
one member, or when a member's thread cannot be started, the members run
as a **serial ladder** in order, first decisive verdict wins.

The winning member is recorded on the result (``winner``) and flows into
:class:`~repro.engines.coverage.EngineVerdict`, suite shard rows, cached
payloads and the benchmark trajectories.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..ltl.traces import LassoTrace
from ..obs import active_aggregators, aggregating, metrics, span
from ..runner.cache import active_lookup_counter, counting_lookups
from .cancel import CancelToken, Cancelled, check_cancelled, using_cancel_token
from .coverage import CoverageEngine, get_engine, register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..problem import CompiledProblem

__all__ = ["PortfolioEngine", "PortfolioResult", "DEFAULT_MEMBERS"]

DEFAULT_MEMBERS: Tuple[str, ...] = ("explicit", "bmc", "symbolic")


class _ThreadsUnavailable(RuntimeError):
    """Raised when worker threads cannot be started (triggers the ladder)."""


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race.

    Duck-type compatible with the other engines' run results
    (``satisfiable`` / ``witness`` / ``bound`` / ``statistics``), plus the
    race-specific fields: ``winner`` names the member whose verdict was used
    and ``complete`` records that verdict's strength (``False`` only when the
    bounded fallback was the sole survivor).
    """

    satisfiable: bool
    winner: str
    complete: bool
    witness: Optional[LassoTrace] = None
    bound: Optional[int] = None
    statistics: object = None
    elapsed_seconds: float = 0.0
    #: member name → outcome ("won" / "sat" / "unsat-bounded" / "cancelled" /
    #: "error: ..."), for reports and benchmarks.
    outcomes: Optional[dict] = None
    #: member name → {polls, polls_after_cancel}: how often each racing
    #: search loop polled the cancel token, and how long past cancellation it
    #: kept polling.  The observable evidence that losers stopped promptly.
    progress: Optional[dict] = None
    #: "race" for a true concurrent race, "ladder" for the serial fallback.
    mode: str = "race"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfiable


class PortfolioEngine(CoverageEngine):
    """Race the explicit / bmc / symbolic engines per query.

    ``members`` selects the racing engines (base-engine names; nesting a
    portfolio is rejected).  A single member, or a worker thread that cannot
    be started, runs the serial-ladder fallback instead of a race.
    """

    name = "portfolio"
    # The race is complete whenever a complete member wins; only the bounded
    # fallback path is not, and the result records that per-verdict.
    complete = True

    def __init__(
        self,
        *,
        max_bound: int = 12,
        slicing="auto",
        members: Sequence[str] = DEFAULT_MEMBERS,
    ):
        super().__init__(slicing=slicing, max_bound=max_bound)
        if not members:
            raise ValueError("portfolio needs at least one member engine")
        if any(name in ("portfolio", "auto") for name in members):
            raise ValueError("portfolio members must be base engines")
        self.members = tuple(members)

    def _cache_bound(self) -> Optional[int]:
        # The bounded member's reach is part of the race's identity: its
        # fallback verdict (and which witnesses it can find first) depends on
        # the bound.
        return self.max_bound

    def _cache_extra(self) -> Tuple[str, ...]:
        # The member set is part of the race's identity too: a bmc-only
        # portfolio caches bounded (complete=False) verdicts that must never
        # shadow the full three-member race's complete proofs.
        return ("members=" + ",".join(self.members),)

    def _member_engines(self) -> List[CoverageEngine]:
        return [
            get_engine(name, max_bound=self.max_bound, slicing=self.slicing)
            for name in self.members
        ]

    @staticmethod
    def _decisive(engine: CoverageEngine, result) -> bool:
        """A verdict that ends the race: any witness, or a complete proof."""
        return bool(result.satisfiable) or engine.complete

    def _find_run(self, problem: "CompiledProblem"):
        start = time.perf_counter()
        engines = self._member_engines()
        if len(engines) > 1:
            try:
                return self._race(problem, engines, start)
            except _ThreadsUnavailable:
                pass
        return self._ladder(problem, engines, start)

    # -- parallel race -------------------------------------------------------
    def _race(self, problem: "CompiledProblem", engines, start: float):
        token = CancelToken()
        decided = threading.Event()
        lock = threading.Lock()
        finished: List[Tuple[str, object]] = []  # (name, result) in completion order
        outcomes: dict = {}
        # Members count their cache lookups and phases toward the caller's job.
        lookups = active_lookup_counter()
        aggregators = active_aggregators()

        def work(engine: CoverageEngine) -> None:
            try:
                with (
                    using_cancel_token(token, member=engine.name),
                    counting_lookups(lookups),
                    aggregating(aggregators),
                ):
                    # Members run their own find_run, so the shared result
                    # cache is consulted — and populated — under each
                    # member's own key.
                    result = engine.find_run(problem)
            except Cancelled:
                with lock:
                    outcomes.setdefault(engine.name, "cancelled")
            except Exception as exc:  # noqa: BLE001 - losers must not kill the race
                with lock:
                    outcomes.setdefault(engine.name, f"error: {type(exc).__name__}: {exc}")
            else:
                with lock:
                    finished.append((engine.name, result))
                    outcomes.setdefault(
                        engine.name, "sat" if result.satisfiable else
                        ("unsat" if engine.complete else "unsat-bounded")
                    )
                    if self._decisive(engine, result):
                        token.cancel()
                        decided.set()
            finally:
                with lock:
                    if len(outcomes) == len(engines):
                        decided.set()

        threads = [
            threading.Thread(target=work, args=(engine,), daemon=True, name=f"portfolio-{engine.name}")
            for engine in engines
        ]
        started: List[threading.Thread] = []
        try:
            try:
                for thread in threads:
                    thread.start()
                    started.append(thread)
            except RuntimeError as exc:
                # Only start() failures select the serial ladder; everything
                # else (including _settle's "every member failed") propagates.
                # Members already racing must be stopped first, or they would
                # keep running concurrently with the ladder.
                token.cancel()
                for thread in started:
                    thread.join(timeout=5.0)
                raise _ThreadsUnavailable(str(exc)) from exc
            # Interruptible wait (a suite shard watchdog may fire here) that
            # also polls the caller's own token (a job timeout): the members
            # only see the race token, so this wait is where a cancelled
            # caller stops them.
            while not decided.wait(timeout=0.05):
                check_cancelled()
        finally:
            token.cancel()
            for thread in started:
                thread.join(timeout=5.0)
        return self._settle(
            problem, engines, finished, outcomes, start,
            progress=token.progress_snapshot(), mode="race",
        )

    # -- serial ladder fallback ----------------------------------------------
    def _ladder(self, problem: "CompiledProblem", engines, start: float):
        finished: List[Tuple[str, object]] = []
        outcomes: dict = {}
        for engine in engines:
            try:
                result = engine.find_run(problem)
            except Cancelled:
                # The caller's own token (a job timeout): no rung may run.
                raise
            except Exception as exc:  # noqa: BLE001 - climb to the next rung
                outcomes[engine.name] = f"error: {type(exc).__name__}: {exc}"
                continue
            finished.append((engine.name, result))
            outcomes[engine.name] = "sat" if result.satisfiable else (
                "unsat" if engine.complete else "unsat-bounded"
            )
            if self._decisive(engine, result):
                break
        return self._settle(problem, engines, finished, outcomes, start, mode="ladder")

    # -- verdict selection ----------------------------------------------------
    def _settle(self, problem, engines, finished, outcomes, start: float,
                progress=None, mode: str = "race"):
        elapsed = time.perf_counter() - start
        by_name = {engine.name: engine for engine in engines}
        winner: Optional[Tuple[str, object]] = None
        for name, result in finished:
            if self._decisive(by_name[name], result):
                winner = (name, result)
                break
        bounded_fallback = winner is None and bool(finished)
        if winner is None and finished:
            # Every complete member failed; fall back to the (first) bounded
            # verdict rather than reporting nothing.
            winner = finished[0]
        if winner is None:
            errors = "; ".join(f"{name}={text}" for name, text in sorted(outcomes.items()))
            raise RuntimeError(f"every portfolio member failed: {errors}")
        name, result = winner
        outcomes = dict(outcomes)
        outcomes[name] = "won"
        metrics().inc("portfolio.races")
        metrics().inc(f"portfolio.wins.{name}")
        features = problem.features(bound=self.max_bound)
        with span("portfolio_race", design=problem.source_name) as sp:
            sp.set(winner=name, mode=mode, features=features)
        return PortfolioResult(
            satisfiable=bool(result.satisfiable),
            winner=name,
            complete=bool(result.satisfiable) or not bounded_fallback,
            witness=result.witness,
            bound=getattr(result, "bound", None),
            statistics=getattr(result, "statistics", None),
            elapsed_seconds=elapsed,
            outcomes=outcomes,
            progress=progress,
            mode=mode,
        )


register_engine("portfolio", PortfolioEngine)
