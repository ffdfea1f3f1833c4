"""The daemon builds each design once and counts each job's own cache lookups.

Covers :class:`repro.service.ProblemMemo` (one built ``CoverageProblem`` per
catalog entry object, ``service.designs_built``), the per-job ``cache`` block
and ``timings`` of a payload under concurrent jobs, and job timeouts of the
racing ``portfolio`` engine.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.designs import DesignEntry, get_design
from repro.engines import register_engine, unregister_engine
from repro.engines.coverage import ExplicitEngine
from repro.obs import metrics
from repro.runner.cache import ResultCache, using_result_cache
from repro.service import (
    CoverageService,
    JobRequest,
    JobTimeout,
    ProblemMemo,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    execute_job,
)

VOLATILE = {"elapsed_seconds", "timings", "cache"}
STRESS_DESIGNS = ("mal_fig2", "mal_fig4", "paper_example", "telemetry_bank")


def _built() -> int:
    return metrics().snapshot()["counters"].get("service.designs_built", 0)


def _stable(payload) -> str:
    kept = {key: value for key, value in payload.items() if key not in VOLATILE}
    return json.dumps(kept, indent=2, sort_keys=True)


@pytest.fixture
def daemon():
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0, request_timeout=120.0))
    port = svc.start()
    try:
        yield ServiceClient(port=port, client_id="memo")
    finally:
        assert svc.drain(timeout=30.0)


# -- the memo ------------------------------------------------------------------


def test_design_asked_n_times_is_built_once(daemon):
    before = _built()
    payloads = [daemon.check("mal_fig4", engine="explicit") for _ in range(4)]
    assert _built() - before == 1
    assert len({_stable(payload) for payload in payloads}) == 1
    counters = daemon.metrics_snapshot()["counters"]
    assert counters["service.designs_built"] == _built()


def test_analyze_shares_the_built_problem(daemon):
    before = _built()
    daemon.check("mal_fig2", engine="explicit")
    daemon.analyze("mal_fig2", engine="explicit")
    assert _built() - before == 1


def test_memo_keys_on_the_entry_object():
    calls = []

    def builder():
        calls.append(1)
        return get_design("mal_fig2").builder()

    entry = DesignEntry("memo_probe", builder, True, "memo probe")
    memo = ProblemMemo()
    first = memo.get(entry)
    assert memo.get(entry) is first
    assert len(calls) == 1
    # Registering the name again gives an equal but new entry: built afresh.
    again = DesignEntry("memo_probe", builder, True, "memo probe")
    assert again == entry
    assert memo.get(again) is not first
    assert len(calls) == 2


def test_one_shot_jobs_build_with_a_fresh_memo():
    before = _built()
    request = JobRequest(kind="check", design="mal_fig2", engine="explicit")
    execute_job(request)
    execute_job(request)
    assert _built() - before == 2


def test_concurrent_first_requests_agree_and_later_ones_build_nothing(daemon):
    # Decided without the daemon's cache, so the racing requests run engines.
    with using_result_cache(None):
        serial = {
            design: _stable(
                json.loads(json.dumps(execute_job(JobRequest(kind="check", design=design))))
            )
            for design in STRESS_DESIGNS
        }
    barrier = threading.Barrier(16)
    results = {}

    def send(slot: int) -> None:
        design = STRESS_DESIGNS[slot % len(STRESS_DESIGNS)]
        barrier.wait(timeout=60)
        results[slot] = (design, daemon.check(design))

    before = _built()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=send, args=(slot,)) for slot in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "a stress request never finished"
    finally:
        sys.setswitchinterval(interval)
    raced = _built() - before
    assert len(STRESS_DESIGNS) <= raced <= 16
    assert len(results) == 16
    for design, payload in results.values():
        assert _stable(payload) == serial[design], design
    for design in STRESS_DESIGNS:
        assert _stable(daemon.check(design)) == serial[design]
    assert _built() - before == raced


# -- per-job cache blocks ----------------------------------------------------------


class _HeldExplicit(ExplicitEngine):
    """Explicit engine whose search waits until the test releases it."""

    name = "held_explicit"
    entered = threading.Event()
    release = threading.Event()

    def _find_run(self, problem):
        type(self).entered.set()
        type(self).release.wait(timeout=30)
        return super()._find_run(problem)


def test_cache_block_counts_only_the_jobs_own_lookups():
    _HeldExplicit.entered.clear()
    _HeldExplicit.release.clear()
    register_engine("held_explicit", _HeldExplicit)
    outcome = {}
    try:
        with using_result_cache(ResultCache()):
            slow = threading.Thread(
                target=lambda: outcome.setdefault(
                    "payload",
                    execute_job(JobRequest(kind="check", design="mal_fig2", engine="held_explicit")),
                )
            )
            slow.start()
            assert _HeldExplicit.entered.wait(timeout=30)
            others = [
                execute_job(JobRequest(kind="check", design=design, engine="explicit"))
                for design in ("mal_fig4", "paper_example", "telemetry_bank")
            ]
            _HeldExplicit.release.set()
            slow.join(timeout=60)
            assert not slow.is_alive()
    finally:
        _HeldExplicit.release.set()
        unregister_engine("held_explicit")
    assert outcome["payload"]["cache"] == {"hits": 0, "misses": 1, "stores": 1}
    for payload in others:
        assert payload["cache"] == {"hits": 0, "misses": 1, "stores": 1}


def test_serial_portfolio_block_matches_the_shared_counters():
    """Alone, a job's block equals the process metrics' delta, members included."""
    request = JobRequest(kind="check", design="mal_fig4", engine="portfolio", bound=6)
    fields = ("hits", "misses", "stores")
    with using_result_cache(ResultCache()):
        before = {field: metrics().counter(f"result_cache.{field}") for field in fields}
        cold = execute_job(request)
        shared = {field: metrics().counter(f"result_cache.{field}") - before[field] for field in fields}
        warm = execute_job(request)
    assert cold["cache"] == shared
    # The race's own key plus at least one member's.
    assert cold["cache"]["misses"] >= 2
    assert warm["cache"] == {"hits": 1, "misses": 0, "stores": 0}


# -- per-job timings ------------------------------------------------------------------


def test_timings_hold_only_the_jobs_own_phases():
    """Other jobs' bmc phases, run while an explicit job waits, stay out of it."""
    _HeldExplicit.entered.clear()
    _HeldExplicit.release.clear()
    register_engine("held_explicit", _HeldExplicit)
    outcome = {}
    try:
        with using_result_cache(None):
            slow = threading.Thread(
                target=lambda: outcome.setdefault(
                    "payload",
                    execute_job(JobRequest(kind="check", design="mal_fig2", engine="held_explicit")),
                )
            )
            slow.start()
            assert _HeldExplicit.entered.wait(timeout=30)
            other = execute_job(JobRequest(kind="check", design="mal_fig4", engine="bmc", bound=4))
            _HeldExplicit.release.set()
            slow.join(timeout=60)
            assert not slow.is_alive()
    finally:
        _HeldExplicit.release.set()
        unregister_engine("held_explicit")
    assert "bmc_bound" in other["timings"]
    assert "explicit_product" in outcome["payload"]["timings"]
    assert "bmc_bound" not in outcome["payload"]["timings"]


def test_portfolio_members_phases_land_in_the_jobs_timings():
    request = JobRequest(kind="check", design="mal_fig2", engine="portfolio", bound=4)
    with using_result_cache(None):
        payload = execute_job(request)
    # mal_fig2 is covered, so a complete member wins, in its own thread.
    winner_phase = {"explicit": "explicit_product", "symbolic": "symbolic_encode"}
    assert {"portfolio_race", winner_phase[payload["winner"]]} <= set(payload["timings"])


# -- portfolio timeouts ----------------------------------------------------------------


PORTFOLIO_ANALYZE = dict(
    design="paper_example", engine="portfolio", bound=6, max_witnesses=2, depth=3
)


def test_portfolio_analyze_honours_its_timeout():
    started = time.monotonic()
    with using_result_cache(None):
        with pytest.raises(JobTimeout):
            execute_job(JobRequest(kind="analyze", timeout=1.0, **PORTFOLIO_ANALYZE))
    assert time.monotonic() - started < 5.0
    # The race joined its members before raising.
    assert not [t for t in threading.enumerate() if t.name.startswith("portfolio-")]


def test_portfolio_analyze_times_out_with_504(daemon):
    started = time.monotonic()
    with pytest.raises(ServiceError) as excinfo:
        daemon.analyze(timeout=1.0, **PORTFOLIO_ANALYZE)
    assert excinfo.value.status == 504
    assert excinfo.value.payload["error"] == "timeout"
    assert time.monotonic() - started < 10.0
