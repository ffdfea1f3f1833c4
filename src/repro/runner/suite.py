"""Parallel sharded execution of the coverage suite.

The built-in ``check``/``analyze``/``table1`` commands evaluate one design at
a time, single-threaded.  This module restructures the workload instead of the
solver: the (design × spec conjunct × observed signal × engine) matrix is
expanded into independent **shards** (:class:`CoverageJob`), each answering one
decision query, and the shards are executed on a
:class:`~concurrent.futures.ProcessPoolExecutor` — or serially for debugging —
with

* **deterministic ordering**: jobs are sorted by their identity before
  submission and results are assembled in submission order, so shard order
  and every verdict are identical regardless of worker count or completion
  order (timings and per-shard cache counters naturally vary between runs —
  compare ``SuiteResult.verdicts()``, not raw reports);
* **per-shard timeouts**: each shard runs under a cancel-token deadline
  (:func:`~repro.engines.cancel.cancel_after`) that every engine search loop
  polls, in any thread or worker, so one pathological query cannot stall
  the suite;
* **result caching**: every worker installs the shared persistent
  :class:`~repro.runner.cache.ResultCache`, so overlapping shards and repeated
  suite runs replay decided queries (each shard reports its own hits and
  misses, not those of whatever else shares the cache meanwhile).

Shard kinds
-----------
``primary``
    The paper's primary coverage question (Theorem 1) for *one* architectural
    conjunct of a design.
``signal``
    Observability of one interface signal under the RTL specification: "is
    there a run admitted by ``R`` on which the signal eventually rises?" — a
    per-signal sanity query that catches dead interface signals and widens the
    decided-query set the cache can reuse.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.spec import CoverageProblem
from ..designs.catalog import get_design
from ..designs.random import RandomDesignSpec, random_problem
from ..engines.cancel import Cancelled, cancel_after
from ..engines.coverage import get_engine
from ..ltl.ast import Atom, Eventually
from ..obs import PhaseAggregator
from .cache import (
    CacheStats,
    ResultCache,
    cache_for_dir,
    counting_lookups,
    set_result_cache,
    using_result_cache,
)

__all__ = [
    "CoverageJob",
    "ShardResult",
    "SuiteResult",
    "expand_jobs",
    "run_suite",
]


@dataclass(frozen=True)
class CoverageJob:
    """One shard of the coverage suite (plain data, picklable).

    ``design`` names a catalog entry unless ``random_spec`` is set, in which
    case the worker rebuilds the design deterministically from the spec — a
    worker never depends on mutations of the parent's catalog.
    """

    design: str
    kind: str  # "primary" | "signal"
    target: str  # conjunct index (as text) or signal name
    index: int  # architectural conjunct index (0 for signal shards)
    engine: str = "explicit"
    bound: int = 12
    random_spec: Optional[RandomDesignSpec] = None

    @property
    def job_id(self) -> str:
        return f"{self.design}/{self.kind}/{self.target}"

    def sort_key(self) -> Tuple[str, str, int, str]:
        return (self.design, self.kind, self.index, self.target)

    def problem(self) -> CoverageProblem:
        """This shard's coverage problem (built once per design per process).

        A design contributes one shard per conjunct plus one per interface
        signal; memoising the build means the netlist construction — and, for
        random designs, the rejection-sampling model checks — run once per
        process instead of once per shard.  Shards only read the problem, so
        sharing the instance is safe.
        """
        return _build_problem(self.design, self.random_spec)


@lru_cache(maxsize=256)
def _build_problem(design: str, random_spec: Optional[RandomDesignSpec]) -> CoverageProblem:
    if random_spec is not None:
        return random_problem(random_spec)
    return get_design(design).builder()


@dataclass
class ShardResult:
    """Outcome of one shard."""

    job: CoverageJob
    status: str  # "ok" | "error" | "timeout"
    verdict: Optional[bool]  # primary: covered; signal: observable
    complete: bool = True
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_evictions: int = 0
    detail: str = ""
    worker_pid: int = 0
    #: The member engine that produced the verdict (portfolio/auto shards).
    winner: Optional[str] = None
    #: Feature record of this shard's compiled query (coi_size, registers,
    #: automaton_states, bound, ...).
    features: Optional[Dict[str, object]] = None
    #: Span name → wall seconds spent per phase while deciding this shard.
    timings: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def row(self) -> Dict[str, object]:
        """JSON-ready representation (stable field order)."""
        return {
            "job": self.job.job_id,
            "design": self.job.design,
            "kind": self.job.kind,
            "target": self.job.target,
            "engine": self.job.engine,
            "status": self.status,
            "verdict": self.verdict,
            "complete": self.complete,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
            "detail": self.detail,
            "winner": self.winner,
            "features": self.features,
            "timings": self.timings,
        }


@dataclass
class SuiteResult:
    """Aggregate outcome of one suite run."""

    shards: List[ShardResult] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    cache_enabled: bool = True
    cache_dir: Optional[str] = None

    @property
    def cache_hits(self) -> int:
        return sum(shard.cache_hits for shard in self.shards)

    @property
    def cache_misses(self) -> int:
        return sum(shard.cache_misses for shard in self.shards)

    @property
    def cache_stores(self) -> int:
        return sum(shard.cache_stores for shard in self.shards)

    @property
    def cache_evictions(self) -> int:
        return sum(shard.cache_evictions for shard in self.shards)

    @property
    def cache_hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def verdicts(self) -> Dict[str, Optional[bool]]:
        """Job-id → verdict map (the reproducibility contract between runs)."""
        return {shard.job.job_id: shard.verdict for shard in self.shards}

    def counts(self) -> Dict[str, int]:
        tally = {"ok": 0, "error": 0, "timeout": 0}
        for shard in self.shards:
            tally[shard.status] = tally.get(shard.status, 0) + 1
        return tally

    @property
    def succeeded(self) -> bool:
        return all(shard.ok for shard in self.shards)


def expand_jobs(
    designs: Optional[Sequence[str]] = None,
    *,
    engine: str = "explicit",
    bound: int = 12,
    include_signals: bool = True,
    random_count: int = 0,
    random_seed: int = 0,
) -> List[CoverageJob]:
    """Expand the catalog (plus random designs) into independent shards.

    One ``primary`` shard per architectural conjunct of every design, plus one
    ``signal`` shard per interface signal of its concrete modules.  The result
    is sorted by job identity — the canonical, reproducible suite order.
    """
    from ..designs.catalog import design_names
    from ..designs.random import random_design_entries

    jobs: List[CoverageJob] = []

    def add_design(name: str, problem: CoverageProblem, spec: Optional[RandomDesignSpec]) -> None:
        common = dict(
            design=name,
            engine=engine,
            bound=bound,
            random_spec=spec,
        )
        for index in range(len(problem.architectural)):
            jobs.append(CoverageJob(kind="primary", target=str(index), index=index, **common))
        if include_signals and problem.has_concrete_modules():
            for signal_name in sorted(set(problem.composed_module().interface_signals())):
                jobs.append(CoverageJob(kind="signal", target=signal_name, index=0, **common))

    names = sorted(designs) if designs is not None else design_names()
    for name in names:
        spec = get_design(name).random_spec
        add_design(name, _build_problem(name, spec), spec)
    for entry in random_design_entries(random_count, random_seed):
        add_design(entry.name, _build_problem(entry.name, entry.random_spec), entry.random_spec)

    return sorted(jobs, key=CoverageJob.sort_key)


# -- shard execution ----------------------------------------------------------


def _answer(
    job: CoverageJob,
) -> Tuple[bool, bool, str, Optional[str], Optional[dict]]:
    """Decide one shard.

    Returns ``(verdict, complete, detail, winner, features)``.
    """
    problem = job.problem()
    engine = get_engine(job.engine, max_bound=job.bound)
    if job.kind == "primary":
        verdict = engine.check_primary(
            problem, architectural=problem.architectural[job.index]
        )
        return (
            bool(verdict.covered),
            bool(verdict.complete),
            "",
            verdict.winner,
            verdict.features,
        )
    if job.kind == "signal":
        module = problem.composed_module()
        formulas = problem.all_rtl_formulas() + [Eventually(Atom(job.target))]
        # Compile here so the shard row carries the query's feature record.
        # Imported per call, so a wrapper installed on
        # ``repro.problem.compile_problem`` sees this compile too.
        from ..problem import compile_problem

        compiled = compile_problem(module, formulas, observe=(job.target,))
        result = engine.find_run(compiled)
        # "never observable" is definitive only on a complete verdict.
        return (
            result.satisfiable,
            result.complete or result.satisfiable,
            "",
            result.winner,
            compiled.features(bound=job.bound),
        )
    raise ValueError(f"unknown shard kind {job.kind!r}")


def execute_shard(job: CoverageJob, timeout: Optional[float] = None) -> ShardResult:
    """Run one shard in the current process under the active result cache.

    ``timeout`` (seconds) bounds the shard with a cancel-token deadline that
    the engines' search loops poll; a fired deadline yields a ``timeout``
    shard instead of aborting the suite.
    """
    # This shard's own lookups (its portfolio members' included), not the
    # shared cache's counters, which anything else using the cache moves too.
    lookups = CacheStats()
    start = time.perf_counter()
    status, verdict, complete, detail, winner = "ok", None, True, "", None
    features: Optional[dict] = None
    timings: Optional[dict] = None
    armed = timeout is not None and timeout > 0
    try:
        # The aggregator collects every span this shard's thread (and its
        # portfolio members) closes while it decides — engine phases,
        # compile, SAT — into the per-query ``timings`` record, with or
        # without a --trace exporter.
        with (
            cancel_after(timeout) if armed else nullcontext(),
            PhaseAggregator() as phases,
            counting_lookups(lookups),
        ):
            verdict, complete, detail, winner, features = _answer(job)
        timings = phases.timings()
    except Cancelled:
        if not armed:  # the caller's own token, not a shard deadline
            raise
        status, detail = "timeout", f"exceeded {timeout:.1f}s"
    except Exception as exc:  # noqa: BLE001 - a shard failure must not kill the suite
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return ShardResult(
        job=job,
        status=status,
        verdict=verdict if status == "ok" else None,
        complete=complete,
        elapsed_seconds=elapsed,
        cache_hits=lookups.hits,
        cache_misses=lookups.misses,
        cache_stores=lookups.stores,
        cache_evictions=lookups.evictions,
        detail=detail,
        worker_pid=os.getpid(),
        winner=winner if status == "ok" else None,
        features=features if status == "ok" else None,
        timings=timings if status == "ok" else None,
    )


def _select_cache(cache_dir: Optional[str], use_cache: bool) -> Optional[ResultCache]:
    """The cache a suite run (or worker) should use.

    Without a directory, an already-active cache is *reused*, even while it
    is still empty (a caller who installed a cache keeps the shards'
    entries), and only falls back to a fresh in-memory cache when none is
    active.
    """
    if not use_cache:
        return None
    if cache_dir:
        return cache_for_dir(cache_dir)
    from .cache import active_result_cache

    active = active_result_cache()
    return active if active is not None else ResultCache()


def _worker_init(
    cache_dir: Optional[str], use_cache: bool, trace: Optional[str] = None
) -> None:
    """Per-worker setup: install the result cache and the trace exporter.

    Workers append to the *same* trace file as the parent (O_APPEND keeps
    lines whole) and flush their own metrics record at process exit.
    """
    set_result_cache(_select_cache(cache_dir, use_cache))
    if trace:
        from ..obs import install_trace_exporter

        install_trace_exporter(trace)


def run_suite(
    jobs: Sequence[CoverageJob],
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    shard_timeout: Optional[float] = None,
    trace: Optional[str] = None,
) -> SuiteResult:
    """Execute the shards and assemble a :class:`SuiteResult`.

    ``workers <= 1`` runs serially in-process (the debugging fallback: plain
    tracebacks, no subprocesses); otherwise shards are distributed over a
    process pool whose workers share the persistent cache directory.  Results
    are always assembled in canonical job order.  ``trace`` names a JSONL
    file every worker appends its spans (and final metrics record) to.
    """
    ordered = sorted(jobs, key=CoverageJob.sort_key)
    if trace:
        from ..obs import install_trace_exporter

        install_trace_exporter(trace)
    start = time.perf_counter()
    if workers <= 1:
        with using_result_cache(_select_cache(cache_dir, use_cache)):
            shards = [execute_shard(job, shard_timeout) for job in ordered]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(cache_dir, use_cache, trace),
        ) as pool:
            futures = [pool.submit(execute_shard, job, shard_timeout) for job in ordered]
            shards = [future.result() for future in futures]
    wall = time.perf_counter() - start
    result = SuiteResult(
        shards=shards,
        workers=max(1, workers),
        wall_seconds=wall,
        cache_enabled=use_cache,
        cache_dir=os.path.abspath(cache_dir) if cache_dir else None,
    )
    if use_cache and cache_dir:
        # Accumulate this run's counters into the directory sidecar the
        # `specmatcher cache stats` subcommand reports.
        from .cache import merge_persistent_stats

        merge_persistent_stats(
            cache_dir,
            hits=result.cache_hits,
            misses=result.cache_misses,
            stores=result.cache_stores,
            evictions=result.cache_evictions,
        )
    return result
