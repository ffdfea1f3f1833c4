"""Coverage engines: one interface over explicit-state MC, bounded SAT and BDDs.

Theorem 1 reduces the primary coverage question to one existential
model-checking query — "is there a run of the concrete modules satisfying
``!A`` and every RTL property?".  The repository ships three ways to answer it:

* the **explicit** engine — Kripke × Büchi product and nested DFS
  (:mod:`repro.mc.modelcheck`), complete on these finite designs;
* the **bmc** engine — time-frame unrolling + Tseitin + CDCL
  (:mod:`repro.bmc.engine`), refutation-complete: a witness is definitive,
  while "no witness" only holds up to the bound;
* the **symbolic** engine — BDD-encoded product and Emerson–Lei fair-SCC
  fixpoint (:mod:`repro.mc.symbolic`, registered by
  :mod:`repro.engines.symbolic`), complete like the explicit engine but
  scaling with BDD size instead of reachable-state count.

:class:`CoverageEngine` unifies them behind ``check_primary(problem)`` /
``find_run(module, formulas)`` / ``is_covered_with(problem, extra)``, and the
string registry (:func:`get_engine`) lets :mod:`repro.core` and the CLI pick
an engine by name.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..ltl.ast import Formula, Not
from ..ltl.traces import LassoTrace
from ..obs import metrics, span

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core import cycle
    from ..core.spec import CoverageProblem
    from ..problem import CompiledProblem

__all__ = [
    "RunResult",
    "EngineVerdict",
    "CoverageEngine",
    "ExplicitEngine",
    "BmcEngine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "engine_from_options",
]


@dataclass
class RunResult:
    """One engine's answer to an existential query (what ``find_run`` returns).

    ``complete`` is the strength of a "no run" answer: ``False`` when it
    holds only up to ``bound``.  ``winner`` names the base engine that
    decided a ``portfolio`` or ``auto`` query.  ``statistics`` is the
    kernel's search record; a run replayed from the result cache has none.
    """

    satisfiable: bool
    complete: bool
    witness: Optional[LassoTrace] = None
    bound: Optional[int] = None
    winner: Optional[str] = None
    statistics: object = None


@dataclass
class EngineVerdict:
    """Engine-independent outcome of the primary coverage question.

    ``complete`` records the strength of a *covered* verdict: the explicit
    engine proves coverage outright, while BMC proves it only up to
    ``bound``.  A *not covered* verdict is definitive for every engine (the
    witness run is concrete).
    """

    problem_name: str
    engine: str
    covered: bool
    complete: bool
    witness: Optional[LassoTrace] = None
    elapsed_seconds: float = 0.0
    bound: Optional[int] = None
    statistics: object = None
    #: The member engine that produced the verdict (portfolio/auto runs only).
    winner: Optional[str] = None
    #: Per-query feature record of the compiled problem (coi_size, registers,
    #: automaton_states, bound, ...).
    features: Optional[Dict[str, object]] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.covered

    def summary(self) -> str:
        verdict = "covered" if self.covered else "NOT covered"
        qualifier = "" if self.complete or not self.covered else f" up to bound {self.bound}"
        engine = self.engine if not self.winner else f"{self.engine}/{self.winner}"
        return (
            f"{self.problem_name}: {verdict}{qualifier} "
            f"[{engine} engine, {self.elapsed_seconds:.3f} s]"
        )


def _query_formulas(
    problem: "CoverageProblem",
    architectural: Optional[Formula],
    extra: Sequence[Formula] = (),
) -> List[Formula]:
    target = architectural if architectural is not None else problem.architectural_conjunction()
    return [Not(target)] + problem.all_rtl_formulas() + list(extra)


class CoverageEngine:
    """Base class / protocol of the primary-coverage engines.

    Every query is compiled by :func:`repro.problem.compile_problem`, whose
    one cone-of-influence rule decides whether the module is sliced.
    """

    name: str = "?"
    #: True when a "covered" verdict is a full proof rather than bounded.
    complete: bool = True

    def __init__(self, *, max_bound: int = 12):
        #: The bound a bounded search would run to.  Complete engines never
        #: use it to decide, but it is part of every engine's *feature
        #: record* (verdicts, suite shard rows), so every record carries the
        #: configured bound, never ``None``.
        self.max_bound = max_bound

    def _as_problem(self, target, formulas, observe) -> "CompiledProblem":
        from ..problem import CompiledProblem, compile_problem

        if isinstance(target, CompiledProblem):
            return target
        if formulas is None:
            raise TypeError("find_run needs formulas unless given a CompiledProblem")
        return compile_problem(target, formulas, observe=observe)

    def find_run(
        self,
        target,
        formulas: Optional[Sequence[Formula]] = None,
        *,
        observe: Sequence[str] = (),
    ) -> RunResult:
        """Existential query: a run of the model satisfying every formula.

        ``target`` is either a raw :class:`~repro.rtl.netlist.Module` (with
        ``formulas``) — compiled here into a
        :class:`~repro.problem.CompiledProblem`, memoized — or an already
        compiled problem.  ``observe`` lists extra signals to keep in the
        slice and in witness traces (ignored when a compiled problem is
        passed).  Every engine returns a :class:`RunResult`.

        When a result cache is active (:mod:`repro.runner.cache`), the query
        is fingerprinted — *sliced* module structure + formulas + free
        partition + engine + bound — and decided queries are replayed
        instead of re-run.  Keying on the slice means structurally identical
        cones hit the cache across designs and across suite shards.  This is
        the "never re-answer a decided query" choke point: the primary
        question, witness enumeration and every closure check all pass
        through here.
        """
        problem = self._as_problem(target, formulas, observe)

        from ..runner.cache import active_result_cache

        cache = active_result_cache()
        if cache is None:
            return self._instrumented_run(problem)

        from ..runner.cache import decode_trace, encode_trace, query_key

        key = query_key(
            "engine-run",
            problem.module,
            problem.formulas,
            engine=self.name,
            bound=self._cache_bound(),
            extra=problem.cache_extra() + self._cache_extra(),
        )
        payload = cache.get(key)
        if payload is not None:
            # Entries written without a completeness take the engine's own.
            complete = payload.get("complete")
            return RunResult(
                satisfiable=bool(payload["satisfiable"]),
                complete=self.complete if complete is None else bool(complete),
                witness=decode_trace(payload.get("witness")),
                bound=payload.get("bound"),
                winner=payload.get("winner"),
            )
        result = self._instrumented_run(problem)
        cache.put(
            key,
            {
                "satisfiable": result.satisfiable,
                "complete": result.complete,
                "witness": encode_trace(result.witness),
                "bound": result.bound,
                "winner": result.winner,
            },
        )
        return result

    def _instrumented_run(self, problem: "CompiledProblem") -> RunResult:
        """Run the engine-specific search under an ``engine_run`` span."""
        with span(
            "engine_run", engine=self.name, design=problem.source_name
        ) as sp:
            result = self._find_run(problem)
            sp.set(satisfiable=result.satisfiable)
        metrics().inc(f"engine.{self.name}.runs")
        return result

    def _cache_bound(self) -> Optional[int]:
        """The bound component of this engine's cache keys (``None`` = complete)."""
        return None

    def _cache_extra(self) -> Tuple[str, ...]:
        """Engine-specific components of this engine's cache keys."""
        return ()

    def _find_run(self, problem: "CompiledProblem") -> RunResult:
        """Engine-specific uncached search (overridden by each engine)."""
        raise NotImplementedError

    def check_primary(
        self,
        problem: "CoverageProblem",
        *,
        architectural: Optional[Formula] = None,
        observe: Sequence[str] = (),
    ) -> EngineVerdict:
        """Theorem 1: does the RTL specification cover the intent?"""
        from ..problem import compile_problem

        problem.validate()
        start = time.perf_counter()
        compiled = compile_problem(
            problem.composed_module(),
            _query_formulas(problem, architectural),
            observe=observe,
        )
        result = self.find_run(compiled)
        elapsed = time.perf_counter() - start
        return EngineVerdict(
            problem_name=problem.name,
            engine=self.name,
            covered=not result.satisfiable,
            # A refutation (concrete witness) is definitive for every engine;
            # only a *covered* verdict inherits the result's boundedness.
            complete=result.complete or result.satisfiable,
            witness=result.witness,
            elapsed_seconds=elapsed,
            bound=result.bound,
            statistics=result.statistics,
            winner=result.winner,
            features=compiled.features(bound=self.max_bound),
        )

    def is_covered_with(
        self,
        problem: "CoverageProblem",
        extra_properties: Sequence[Formula],
        *,
        architectural: Optional[Formula] = None,
    ) -> bool:
        """Theorem 1 with candidate gap properties added to the RTL spec."""
        result = self.find_run(
            problem.composed_module(),
            _query_formulas(problem, architectural, extra_properties),
        )
        return not result.satisfiable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class ExplicitEngine(CoverageEngine):
    """Explicit-state product + nested-DFS engine (complete)."""

    name = "explicit"
    complete = True

    def _find_run(self, problem: "CompiledProblem") -> RunResult:
        from ..mc.modelcheck import find_run

        result = find_run(
            problem.module,
            problem.formulas,
            extra_free=problem.free_signals,
            automata=problem.automata,
        )
        return RunResult(
            satisfiable=result.satisfiable,
            complete=True,
            witness=result.witness,
            statistics=result.statistics,
        )


class BmcEngine(CoverageEngine):
    """Bounded model checking engine (complete for refutation only).

    The engine pools incremental :class:`~repro.bmc.incremental.BMCSession`
    objects per (slice structure, free signals): spec conjuncts that share a
    slice — the common case, since a coverage query asks many conjuncts about
    one cone of influence — reuse one persistent solver, its accumulated
    unrolling, and its learned clauses.  Sessions are checked out exclusively
    (popped under a lock) so concurrent queries on one engine instance are
    safe; a concurrent query simply starts a fresh session.
    """

    name = "bmc"
    complete = False

    #: Upper bound on pooled sessions per engine instance; oldest evicted.
    _SESSION_POOL_LIMIT = 8

    def __init__(self, *, max_bound: int = 12):
        super().__init__(max_bound=max_bound)
        self._sessions: Dict[tuple, object] = {}
        self._session_lock = threading.Lock()

    def _cache_bound(self) -> Optional[int]:
        return self.max_bound

    def _find_run(self, problem: "CompiledProblem") -> RunResult:
        from ..bmc.engine import bmc_free_atoms, find_run_bmc
        from ..bmc.incremental import BMCSession
        from ..runner.cache import module_fingerprint

        free_atoms = bmc_free_atoms(
            problem.module, problem.formulas, problem.free_signals
        )
        key = (module_fingerprint(problem.module), tuple(free_atoms))
        with self._session_lock:
            session = self._sessions.pop(key, None)
        if session is None or not session.compatible_with(problem.module, free_atoms):
            session = BMCSession(problem.module, free_atoms)
        try:
            result = find_run_bmc(
                problem.module,
                problem.formulas,
                max_bound=self.max_bound,
                extra_free=problem.free_signals,
                session=session,
            )
        finally:
            # Repool even after a cancelled race: the solver backtracks to
            # level 0 on its next call, so a half-run search is harmless.
            with self._session_lock:
                self._sessions[key] = session
                while len(self._sessions) > self._SESSION_POOL_LIMIT:
                    self._sessions.pop(next(iter(self._sessions)))
        return RunResult(
            satisfiable=result.satisfiable,
            complete=False,
            witness=result.witness,
            bound=result.bound,
            statistics=result.statistics,
        )


# -- registry -----------------------------------------------------------------

# The symbolic, portfolio and auto engines register themselves from their
# own modules once the package __init__ has imported them.  Every factory is
# a CoverageEngine subclass that takes ``max_bound``.
_ENGINES: Dict[str, Callable[..., CoverageEngine]] = {}


def register_engine(name: str, factory: Callable[..., CoverageEngine]) -> None:
    """Register an engine factory; keyword arguments pass through lookups."""
    _ENGINES[name] = factory


def unregister_engine(name: str) -> None:
    """Remove a plugin-registered engine again (test/teardown hook).

    Built-in engines can be removed too — the registry does not distinguish —
    so callers should only unregister what they registered.  Unknown names
    are ignored.
    """
    _ENGINES.pop(name, None)


register_engine("explicit", ExplicitEngine)
register_engine("bmc", BmcEngine)


def engine_names() -> tuple:
    """The canonical registered engine names."""
    return tuple(sorted(_ENGINES))


def get_engine(name: str, **kwargs) -> CoverageEngine:
    """Instantiate an engine by its registered name (``max_bound``)."""
    factory = _ENGINES.get(name) if isinstance(name, str) else None
    if factory is None:
        known = ", ".join(engine_names())
        raise KeyError(f"unknown coverage engine {name!r} (known: {known})")
    return factory(**kwargs)


def engine_from_options(options) -> CoverageEngine:
    """Resolve the engine selected by a :class:`CoverageOptions`-like object.

    Reads the ``engine`` and ``bmc_max_bound`` attributes
    (duck-typed so the core layer never has to import this module at
    class-definition time) — any registered engine name (``explicit`` /
    ``bmc`` / ``symbolic`` / ``portfolio`` / ``auto``) is accepted; ``None``
    selects the default explicit engine.
    """
    if options is None:
        return get_engine("explicit")
    return get_engine(
        getattr(options, "engine", "explicit"),
        max_bound=getattr(options, "bmc_max_bound", 12),
    )
