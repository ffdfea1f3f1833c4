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
decisions, BMC bounds, symbolic images) unwind at their next poll.  Each
member thread runs in a copy of the caller's context, so its cache lookups
(:func:`~repro.runner.cache.counting_lookups`) and phases
(:class:`~repro.obs.PhaseAggregator`) count toward the caller's job.  When a
member's thread cannot be started, the members run as a **serial ladder** in
order, first decisive verdict wins.

The winning member is recorded on the result (``winner``) and flows into
:class:`~repro.engines.coverage.EngineVerdict`, suite shard rows and cached
entries.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs import metrics, span
from .cancel import CancelToken, Cancelled, check_cancelled, using_cancel_token
from .coverage import CoverageEngine, RunResult, get_engine, register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..problem import CompiledProblem

__all__ = ["PortfolioEngine"]

#: The racing members, in serial-ladder order.
_MEMBERS = ("explicit", "bmc", "symbolic")

#: Member results in completion order, and member name → error text.
_Outcome = Tuple[List[Tuple[str, RunResult]], Dict[str, str]]


class _ThreadsUnavailable(RuntimeError):
    """Raised when worker threads cannot be started (triggers the ladder)."""


class PortfolioEngine(CoverageEngine):
    """Race the explicit / bmc / symbolic engines per query.

    A worker thread that cannot be started runs the serial-ladder fallback
    instead of a race.
    """

    name = "portfolio"
    # The race is complete whenever a complete member wins; only the bounded
    # fallback path is not, and the result records that per-verdict.
    complete = True

    def _cache_bound(self) -> Optional[int]:
        # The bounded member's reach is part of the race's identity: its
        # fallback verdict (and which witnesses it can find first) depends on
        # the bound.
        return self.max_bound

    def _cache_extra(self) -> Tuple[str, ...]:
        # Keys name the member set, as they did when it was configurable, so
        # entries written then still replay.
        return ("members=" + ",".join(_MEMBERS),)

    @staticmethod
    def _decisive(result: RunResult) -> bool:
        """A verdict that ends the race: any witness, or a complete proof."""
        return result.satisfiable or result.complete

    def _find_run(self, problem: "CompiledProblem") -> RunResult:
        engines = [get_engine(name, max_bound=self.max_bound) for name in _MEMBERS]
        try:
            finished, errors = self._race(problem, engines)
        except _ThreadsUnavailable:
            finished, errors = self._ladder(problem, engines)
        return self._settle(problem, finished, errors)

    # -- parallel race -------------------------------------------------------
    def _race(self, problem: "CompiledProblem", engines) -> _Outcome:
        token = CancelToken()
        decided = threading.Event()
        lock = threading.Lock()
        finished: List[Tuple[str, RunResult]] = []
        errors: Dict[str, str] = {}

        def work(engine: CoverageEngine) -> None:
            try:
                with using_cancel_token(token):
                    # Members run their own find_run, so the shared result
                    # cache is consulted — and populated — under each
                    # member's own key.
                    result = engine.find_run(problem)
            except Cancelled:
                return  # only a decisive verdict cancels the race token
            except Exception as exc:  # noqa: BLE001 - losers must not kill the race
                with lock:
                    errors[engine.name] = f"error: {type(exc).__name__}: {exc}"
            else:
                with lock:
                    finished.append((engine.name, result))
                    if self._decisive(result):
                        token.cancel()
            with lock:
                # A decisive verdict, or every member has reported.
                if token.cancelled or len(finished) + len(errors) == len(engines):
                    decided.set()

        # One context copy per member: a context runs in one thread at a time.
        threads = [
            threading.Thread(
                target=contextvars.copy_context().run,
                args=(work, engine),
                daemon=True,
                name=f"portfolio-{engine.name}",
            )
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
            # Wait in short slices, polling the caller's own token (a job
            # deadline): the members only see the race token, so this wait is
            # where a cancelled caller stops them.
            while not decided.wait(timeout=0.05):
                check_cancelled()
        finally:
            token.cancel()
            for thread in started:
                thread.join(timeout=5.0)
        return finished, errors

    # -- serial ladder fallback ----------------------------------------------
    def _ladder(self, problem: "CompiledProblem", engines) -> _Outcome:
        finished: List[Tuple[str, RunResult]] = []
        errors: Dict[str, str] = {}
        for engine in engines:
            try:
                result = engine.find_run(problem)
            except Cancelled:
                # The caller's own token (a job timeout): no rung may run.
                raise
            except Exception as exc:  # noqa: BLE001 - climb to the next rung
                errors[engine.name] = f"error: {type(exc).__name__}: {exc}"
                continue
            finished.append((engine.name, result))
            if self._decisive(result):
                break
        return finished, errors

    # -- verdict selection ----------------------------------------------------
    def _settle(self, problem: "CompiledProblem", finished, errors) -> RunResult:
        if not finished:
            text = "; ".join(f"{name}={error}" for name, error in sorted(errors.items()))
            raise RuntimeError(f"every portfolio member failed: {text}")
        # Without a decisive verdict (every complete member failed), fall back
        # to the first bounded one rather than reporting nothing.
        name, result = next(
            ((name, result) for name, result in finished if self._decisive(result)),
            finished[0],
        )
        metrics().inc("portfolio.races")
        metrics().inc(f"portfolio.wins.{name}")
        with span("portfolio_race", design=problem.source_name) as sp:
            sp.set(winner=name, features=problem.features(bound=self.max_bound))
        return replace(result, complete=self._decisive(result), winner=name)


register_engine("portfolio", PortfolioEngine)
