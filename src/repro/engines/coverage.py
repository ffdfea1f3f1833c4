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

import inspect
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ltl.ast import Formula, Not
from ..ltl.traces import LassoTrace
from ..obs import PhaseAggregator, metrics, span

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core import cycle
    from ..core.spec import CoverageProblem
    from ..problem import CompiledProblem
    from ..rtl.netlist import Module

__all__ = [
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

    ``slicing`` controls whether queries are compiled with cone-of-influence
    reduction (:mod:`repro.problem`): ``True`` always slices, ``False``
    never, and the default ``"auto"`` slices only when the cone drops a
    meaningful part of the module.  Threaded from ``CoverageOptions.slicing``
    / the CLI ``--no-slice`` flag.
    """

    name: str = "?"
    #: True when a "covered" verdict is a full proof rather than bounded.
    complete: bool = True

    def __init__(self, *, slicing="auto", max_bound: int = 12):
        self.slicing = slicing
        #: The bound a bounded search would run to.  Complete engines never
        #: use it to decide, but it is part of every engine's *feature
        #: record* (suite shard rows, cached payloads), so every row carries
        #: the configured bound, never ``None``.
        self.max_bound = max_bound

    def compile(
        self,
        module: "Module",
        formulas: Sequence[Formula],
        *,
        observe: Sequence[str] = (),
    ) -> "CompiledProblem":
        """Compile one query into the IR this engine consumes (memoized)."""
        from ..problem import compile_problem

        return compile_problem(
            module, formulas, observe=observe, slicing=self.slicing
        )

    def _as_problem(self, target, formulas, observe) -> "CompiledProblem":
        from ..problem import CompiledProblem

        if isinstance(target, CompiledProblem):
            return target
        if formulas is None:
            raise TypeError("find_run needs formulas unless given a CompiledProblem")
        return self.compile(target, formulas, observe=observe)

    def find_run(
        self,
        target,
        formulas: Optional[Sequence[Formula]] = None,
        *,
        observe: Sequence[str] = (),
    ):
        """Existential query: a run of the model satisfying every formula.

        ``target`` is either a raw :class:`~repro.rtl.netlist.Module` (with
        ``formulas``) — compiled here into a
        :class:`~repro.problem.CompiledProblem`, memoized — or an already
        compiled problem.  ``observe`` lists extra signals to keep in the
        slice and in witness traces (ignored when a compiled problem is
        passed).

        Returns an object with ``satisfiable`` and ``witness`` attributes
        (:class:`~repro.mc.modelcheck.ExistentialResult`,
        :class:`~repro.bmc.engine.BMCResult` or a replayed
        :class:`~repro.runner.cache.CachedRunResult`).

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

        from ..runner.cache import CachedRunResult, encode_run_result, query_key

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
            return CachedRunResult.from_payload(payload)
        # Freshly decided queries are stored with their feature record and
        # per-phase timing breakdown.
        with PhaseAggregator() as phases:
            result = self._instrumented_run(problem)
        payload = encode_run_result(result)
        payload["features"] = problem.features(bound=self.max_bound)
        payload["timings"] = phases.timings()
        cache.put(key, payload)
        return result

    def _instrumented_run(self, problem: "CompiledProblem"):
        """Run the engine-specific search under an ``engine_run`` span."""
        with span(
            "engine_run", engine=self.name, design=problem.source_name
        ) as sp:
            result = self._find_run(problem)
            sp.set(satisfiable=bool(result.satisfiable))
        metrics().inc(f"engine.{self.name}.runs")
        return result

    def _cache_bound(self) -> Optional[int]:
        """The bound component of this engine's cache keys (``None`` = complete)."""
        return None

    def _cache_extra(self) -> Tuple[str, ...]:
        """Engine-specific components of this engine's cache keys."""
        return ()

    def _find_run(self, problem: "CompiledProblem"):
        """Engine-specific uncached search (overridden by each engine)."""
        raise NotImplementedError

    def _result_complete(self, result) -> bool:
        """Completeness of one search result (portfolio results carry their own)."""
        complete = getattr(result, "complete", None)
        return self.complete if complete is None else bool(complete)

    def check_primary(
        self,
        problem: "CoverageProblem",
        *,
        architectural: Optional[Formula] = None,
        observe: Sequence[str] = (),
    ) -> EngineVerdict:
        """Theorem 1: does the RTL specification cover the intent?"""
        problem.validate()
        start = time.perf_counter()
        compiled = self.compile(
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
            complete=self._result_complete(result) or result.satisfiable,
            witness=result.witness,
            elapsed_seconds=elapsed,
            bound=getattr(result, "bound", None),
            statistics=getattr(result, "statistics", None),
            winner=getattr(result, "winner", None),
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

    def _find_run(self, problem: "CompiledProblem"):
        from ..mc.modelcheck import find_run

        return find_run(
            problem.module,
            problem.formulas,
            extra_free=problem.free_signals,
            automata=problem.automata,
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

    def __init__(self, *, max_bound: int = 12, slicing="auto"):
        super().__init__(slicing=slicing, max_bound=max_bound)
        self._sessions: Dict[tuple, object] = {}
        self._session_lock = threading.Lock()

    def _cache_bound(self) -> Optional[int]:
        return self.max_bound

    def _find_run(self, problem: "CompiledProblem"):
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
            return find_run_bmc(
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


# -- registry -----------------------------------------------------------------

# The symbolic, portfolio and auto engines register themselves from their
# own modules once the package __init__ has imported them.  Each factory is
# stored with the keyword names it accepts (``None``: it takes ``**kwargs``),
# read from its signature once, here, instead of on every lookup.
_ENGINES: Dict[str, Tuple[Callable[..., CoverageEngine], Optional[FrozenSet[str]]]] = {}


def _accepted_keywords(factory: Callable[..., CoverageEngine]) -> Optional[FrozenSet[str]]:
    parameters = inspect.signature(factory).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return None
    return frozenset(parameters)


def register_engine(name: str, factory: Callable[..., CoverageEngine]) -> None:
    """Register an engine factory; keyword arguments pass through lookups."""
    _ENGINES[name] = (factory, _accepted_keywords(factory))


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
    """Instantiate an engine by its registered name.

    Keyword arguments are forwarded to the factory *filtered by its
    signature*, so generic call sites can pass the whole tuning set
    (``get_engine(options.engine, max_bound=options.bmc_max_bound)``) and each
    engine picks up only the knobs it understands.
    """
    registered = _ENGINES.get(name) if isinstance(name, str) else None
    if registered is None:
        known = ", ".join(engine_names())
        raise KeyError(f"unknown coverage engine {name!r} (known: {known})")
    factory, accepted = registered
    if accepted is None:
        return factory(**kwargs)
    return factory(**{k: v for k, v in kwargs.items() if k in accepted})


def engine_from_options(options) -> CoverageEngine:
    """Resolve the engine selected by a :class:`CoverageOptions`-like object.

    Reads the ``engine``, ``bmc_max_bound`` and ``slicing`` attributes
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
        slicing=getattr(options, "slicing", "auto"),
    )
