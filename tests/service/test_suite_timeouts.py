"""A served suite job honours its timeouts; a drained daemon restores the cache.

The suite runs in the caller's thread (``workers=1``) or on a process pool,
and a daemon handler calls :func:`repro.service.execute_job` from a thread
that is not the main thread.  In every case the job's timeout must end the
job with :class:`JobTimeout` (the HTTP 504), and a shard deadline must stop
its shard, without ``SIGALRM``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runner.cache import ResultCache, active_result_cache, using_result_cache
from repro.service import CoverageService, JobRequest, JobTimeout, ServiceConfig, execute_job

#: 22 shards that take well over a second to decide, on one worker or two.
SLOW_SUITE = dict(kind="suite", designs=("mal_table1", "paper_example"))


@pytest.mark.parametrize("workers", [1, 2])
def test_suite_job_raises_its_timeout(workers):
    started = time.monotonic()
    with using_result_cache(None):
        with pytest.raises(JobTimeout):
            execute_job(JobRequest(workers=workers, timeout=0.05, **SLOW_SUITE))
    # The job stops at its deadline instead of deciding every shard.
    assert time.monotonic() - started < 1.0


def test_shard_deadline_holds_off_the_main_thread():
    outcome = {}

    def handler():
        request = JobRequest(kind="suite", designs=("mal_table1",), shard_timeout=0.001)
        outcome["payload"] = execute_job(request)

    with using_result_cache(None):
        thread = threading.Thread(target=handler)
        thread.start()
        thread.join(timeout=120)
    payload = outcome["payload"]
    assert payload["counts"]["ok"] == 0, payload["counts"]
    assert payload["counts"]["timeout"] == payload["shard_count"]


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
