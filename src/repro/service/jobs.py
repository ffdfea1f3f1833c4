"""Execution of validated service jobs on the existing engine/runner stack.

:func:`execute_job` is the single choke point both front doors share:

* the HTTP daemon (:mod:`repro.service.server`) calls it from a handler
  thread with the server's warm caches installed and its
  :class:`ProblemMemo`, so each design is built once per daemon;
* the one-shot ``specmatcher check`` and ``specmatcher analyze`` commands
  call it directly, with a fresh memo.

Because both produce the *same* payload from the same code, a verdict served
over HTTP byte-matches the one-shot CLI's (modulo the volatile
``elapsed_seconds`` / ``timings`` / ``cache`` envelope fields) — the property
the CI service lane asserts.

Per-request timeouts reuse the portfolio's cooperative cancellation tokens
(:mod:`repro.engines.cancel`): the job runs under
:func:`~repro.engines.cancel.cancel_after`, a fresh
:class:`~repro.engines.cancel.CancelToken` carrying the job's deadline;
every engine search loop already polls it, and a passed deadline surfaces as
:class:`JobTimeout` (the HTTP layer's 504).  ``SIGALRM`` is useless here —
handler threads are never the main thread — which is exactly why the tokens
exist.

The service runs single-query jobs only; the sharded batch runner is
``specmatcher suite`` (:mod:`repro.runner`), which can point at the daemon's
``--cache-dir`` to share its result-cache entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..engines.cancel import Cancelled, cancel_after
from ..obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.spec import CoverageProblem
    from ..designs import DesignEntry

__all__ = [
    "JobRequest",
    "JobTimeout",
    "ProblemMemo",
    "execute_job",
    "exit_code_for",
]


class JobTimeout(Exception):
    """The per-request timeout fired before the job produced a verdict."""

    def __init__(self, seconds: float):
        super().__init__(f"job exceeded its {seconds:.1f}s timeout")
        self.seconds = seconds


@dataclass(frozen=True)
class JobRequest:
    """One validated job (the only shape the execution layer accepts)."""

    kind: str  # "check" | "analyze"
    engine: str = "explicit"
    bound: int = 12
    #: Per-request wall-clock budget in seconds (``None`` = server default).
    timeout: Optional[float] = None
    design: Optional[str] = None
    index: Optional[int] = None  # check: one architectural conjunct
    # analyze
    max_witnesses: int = 3
    depth: int = 5
    witnesses: bool = True


class ProblemMemo:
    """The :class:`CoverageProblem` of each catalog entry, built once.

    Keyed by the :class:`~repro.designs.DesignEntry` *object*, so a name
    registered again builds afresh.  A build runs outside the lock: two
    concurrent first requests for one design may both build, and the first
    problem stored is the one every later request gets.  Job runners treat
    the problem as read-only (its one write, the ``composed_module()`` memo,
    is idempotent).
    """

    def __init__(self) -> None:
        # id(entry) -> (entry, problem); holding the entry keeps its id unique.
        self._built: Dict[int, Tuple["DesignEntry", "CoverageProblem"]] = {}
        self._lock = threading.Lock()

    def get(self, entry: "DesignEntry") -> "CoverageProblem":
        held = self._built.get(id(entry))
        if held is None:
            problem = entry.builder()
            metrics().inc("service.designs_built")
            with self._lock:
                held = self._built.setdefault(id(entry), (entry, problem))
        return held[1]


def execute_job(
    request: JobRequest, problems: Optional[ProblemMemo] = None
) -> Dict[str, object]:
    """Run one validated job and return its JSON-ready response payload.

    ``problems`` is the caller's memo of built designs (``None``: a fresh
    one, as for a one-shot run).  Raises :class:`JobTimeout` when
    ``request.timeout`` fires first; any other exception propagates (the
    HTTP layer maps it to a 500).
    """
    if problems is None:
        problems = ProblemMemo()
    runner = {"check": _run_check, "analyze": _run_analyze}[request.kind]
    if request.timeout is None:
        return runner(request, problems)
    try:
        with cancel_after(request.timeout):
            return runner(request, problems)
    except Cancelled:
        raise JobTimeout(request.timeout) from None


def exit_code_for(payload: Dict[str, object]) -> int:
    """The one-shot CLI exit code a job payload maps to.

    Mirrors the existing subcommands: ``check`` fails (1) when the verdict
    contradicts the catalog's expected coverage, ``analyze`` always succeeds.
    """
    if payload.get("job") == "check":
        expected = payload.get("expected_covered")
        if expected is None:
            return 0
        return 0 if payload["verdict"]["covered"] == expected else 1
    return 0


# -- job runners ---------------------------------------------------------------


def _cache_block(lookups) -> Dict[str, int]:
    return {"hits": lookups.hits, "misses": lookups.misses, "stores": lookups.stores}


def _run_check(request: JobRequest, problems: ProblemMemo) -> Dict[str, object]:
    from ..designs import get_design
    from ..engines import get_engine
    from ..obs import PhaseAggregator
    from ..runner.cache import CacheStats, counting_lookups, encode_trace

    entry = get_design(request.design)
    problem = problems.get(entry)
    if request.index is not None and request.index >= len(problem.architectural):
        from .validation import RequestValidationError, ValidationError

        raise RequestValidationError(
            [
                ValidationError(
                    "index",
                    f"design {request.design!r} has "
                    f"{len(problem.architectural)} architectural conjunct(s), "
                    f"index {request.index} is out of range",
                )
            ]
        )
    architectural = (
        problem.architectural[request.index] if request.index is not None else None
    )
    engine = get_engine(request.engine, max_bound=request.bound)
    # This job's own result-cache lookups (its portfolio members' included),
    # not the shared cache's counters, which concurrent jobs move too.
    lookups = CacheStats()
    with PhaseAggregator() as phases, counting_lookups(lookups):
        verdict = engine.check_primary(problem, architectural=architectural)
    return {
        "job": "check",
        "design": request.design,
        "index": request.index,
        "engine": verdict.engine,
        "verdict": {
            "covered": bool(verdict.covered),
            "complete": bool(verdict.complete),
            "bound": verdict.bound,
            "witness": encode_trace(verdict.witness),
        },
        "expected_covered": entry.expected_covered,
        "winner": verdict.winner,
        "features": verdict.features,
        "cache": _cache_block(lookups),
        "timings": phases.timings(),
        "elapsed_seconds": round(verdict.elapsed_seconds, 6),
    }


def _run_analyze(request: JobRequest, problems: ProblemMemo) -> Dict[str, object]:
    from ..core import CoverageOptions, analyze_problem, format_report
    from ..designs import get_design
    from ..obs import PhaseAggregator
    from ..runner.cache import CacheStats, counting_lookups

    problem = problems.get(get_design(request.design))
    options = CoverageOptions(
        engine=request.engine,
        bmc_max_bound=request.bound,
        max_witnesses=request.max_witnesses,
        unfold_depth=request.depth,
    )
    lookups = CacheStats()
    with PhaseAggregator() as phases, counting_lookups(lookups):
        report = analyze_problem(problem, options)
    gaps = [analysis.describe() for analysis in report.analyses if not analysis.covered]
    return {
        "job": "analyze",
        "design": request.design,
        "engine": request.engine,
        "covered": bool(report.covered),
        "gap_count": len(gaps),
        "gaps": gaps,
        "report": format_report(report, show_witnesses=request.witnesses),
        "cache": _cache_block(lookups),
        "timings": phases.timings(),
        "elapsed_seconds": round(
            report.primary_seconds + report.tm_seconds + report.gap_seconds, 6
        ),
    }
