"""Shard deadlines hold off the main thread; a drained daemon restores the cache.

``specmatcher suite`` runs each shard under a cancel-token deadline, in the
caller's thread (``workers=1``) or in a process-pool worker.  Neither needs
``SIGALRM``, so a deadline holds when the suite is started from a thread
that is not the main thread.
"""

from __future__ import annotations

import threading

import pytest

from repro.runner import expand_jobs, run_suite
from repro.runner.cache import ResultCache, active_result_cache, using_result_cache
from repro.service import CoverageService, ServiceConfig


def test_shard_deadline_holds_off_the_main_thread():
    jobs = expand_jobs(["mal_table1"])
    results = {}

    def run():
        for workers in (1, 2):
            results[workers] = run_suite(jobs, workers=workers, shard_timeout=0.001)

    with using_result_cache(None):
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    assert not thread.is_alive()
    for workers in (1, 2):
        statuses = [shard.status for shard in results[workers].shards]
        assert statuses and set(statuses) == {"timeout"}, (workers, statuses)


@pytest.mark.parametrize("with_cache_dir", [False, True])
def test_drain_reinstalls_the_cache_start_found(tmp_path, with_cache_dir):
    previous = ResultCache() if with_cache_dir else None
    cache_dir = str(tmp_path / "cache") if with_cache_dir else None
    with using_result_cache(previous):
        service = CoverageService(ServiceConfig(port=0, quota_rate=0, cache_dir=cache_dir))
        service.start()
        daemon_cache = active_result_cache()
        assert daemon_cache is not None and daemon_cache is not previous
        assert service.drain(timeout=30.0)
        assert active_result_cache() is previous
