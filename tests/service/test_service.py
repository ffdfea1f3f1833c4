"""Live-daemon tests: concurrency, agreement, quotas, timeouts and drain.

One module-scoped :class:`CoverageService` (quota disabled) serves most
tests; quota and drain behaviour get short-lived dedicated instances.
"""

from __future__ import annotations

import math
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.designs import get_design
from repro.engines import get_engine
from repro.service import (
    CoverageService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceUnavailable,
)

# The "sleepy" engine used by the timeout/drain tests is registered by
# conftest.py loading sleepy_plugin.py, exactly like `serve --preload` would.


@pytest.fixture(scope="module")
def service():
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0, request_timeout=120.0))
    svc.start()
    yield svc
    svc.drain(timeout=30.0)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(port=service.port, client_id="pytest")


# -- introspection endpoints ---------------------------------------------------


def test_healthz(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["inflight"] == 0
    assert health["uptime_seconds"] >= 0


def test_info_lists_endpoints(client):
    info = client.info()
    assert info["service"] == "specmatcher"
    assert info["endpoints"] == ["/v1/check", "/v1/analyze", "/healthz", "/metrics"]


def test_metrics_carries_service_counters(client):
    client.check("mal_fig2")
    snapshot = client.metrics_snapshot()
    assert snapshot["service"]["draining"] is False
    counters = snapshot.get("counters", {})
    assert counters.get("service.requests", 0) >= 1
    assert counters.get("service.responses.200", 0) >= 1


def test_unknown_paths_are_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.submit("prove", {"design": "mal_fig2"})
    assert excinfo.value.status == 404
    assert "/v1/check" in excinfo.value.payload["known"]


def test_unreachable_daemon_raises_service_unavailable():
    dead = ServiceClient(port=1, timeout=2.0)  # port 1: nothing listens
    with pytest.raises(ServiceUnavailable):
        dead.health()


# -- verdict agreement ---------------------------------------------------------


def test_served_verdict_matches_direct_engine(client):
    payload = client.check("paper_example", engine="explicit")
    direct = get_engine("explicit").check_primary(get_design("paper_example").builder())
    assert payload["verdict"]["covered"] == direct.covered
    assert payload["verdict"]["complete"] == direct.complete
    assert payload["expected_covered"] == get_design("paper_example").expected_covered
    assert payload["features"]["coi_size"] == direct.features["coi_size"]
    assert payload["features"]["bound"] == direct.features["bound"]


def test_concurrent_submits_agree_with_direct_engines(client):
    jobs = [
        ("mal_fig2", "explicit"),
        ("mal_fig2", "bmc"),
        ("mal_fig4", "explicit"),
        ("mal_fig4", "bmc"),
        ("paper_example", "explicit"),
        ("paper_example", "bmc"),
        ("telemetry_bank", "explicit"),
        ("amba_ahb", "bmc"),
    ]
    expected = {
        (design, engine): get_engine(engine, max_bound=12).check_primary(
            get_design(design).builder()
        )
        for design, engine in jobs
    }
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        futures = {
            (design, engine): pool.submit(client.check, design, engine=engine)
            for design, engine in jobs
        }
        for key, future in futures.items():
            payload = future.result(timeout=120)
            direct = expected[key]
            assert payload["verdict"]["covered"] == direct.covered, key
            assert payload["verdict"]["complete"] == direct.complete, key
            assert payload["verdict"]["bound"] == direct.bound, key


@pytest.mark.parametrize("engine", ["explicit", "bmc", "symbolic", "portfolio", "auto"])
def test_served_check_payload_per_engine(client, engine):
    payload = client.check("mal_fig4", engine=engine, bound=6)
    direct = get_engine(engine, max_bound=6).check_primary(get_design("mal_fig4").builder())
    assert payload["engine"] == engine
    assert payload["verdict"]["covered"] is False
    assert payload["verdict"]["covered"] == direct.covered
    assert payload["features"] == direct.features
    assert payload["winner"] == direct.winner
    assert "sched" not in payload


def test_second_identical_check_hits_warm_cache(client):
    first = client.check("mal_table1", engine="explicit")
    second = client.check("mal_table1", engine="explicit")
    assert second["verdict"] == first["verdict"]
    assert second["cache"]["hits"] >= 1
    assert second["cache"]["misses"] == 0


def test_analyze_and_suite_jobs(client):
    """An analyze job is served; a suite job is not (`specmatcher suite` runs it)."""
    analysis = client.analyze("mal_fig2", engine="explicit")
    assert analysis["covered"] is True
    assert analysis["gap_count"] == 0
    assert "covered" in analysis["report"]
    with pytest.raises(ServiceError) as excinfo:
        client.submit("suite", {"designs": ["mal_fig2"], "include_signals": False})
    assert excinfo.value.status == 404
    assert excinfo.value.payload["known"] == ["/v1/check", "/v1/analyze"]


def test_check_index_selects_one_conjunct(client):
    payload = client.check("mal_fig2", index=0)
    assert payload["index"] == 0
    out_of_range = len(get_design("mal_fig2").builder().architectural)
    with pytest.raises(ServiceError) as excinfo:
        client.check("mal_fig2", index=out_of_range)
    assert excinfo.value.status == 400
    (entry,) = excinfo.value.payload["errors"]
    assert entry["field"] == "index"


# -- structured 400s over the wire ---------------------------------------------


def test_http_validation_failure_is_structured(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit("check", {"design": "zz", "bound": "12"})
    error = excinfo.value
    assert error.status == 400
    assert error.payload["error"] == "validation"
    fields = sorted(entry["field"] for entry in error.payload["errors"])
    assert fields == ["bound", "design"]


@pytest.mark.parametrize("field,value", [("prop_backend", "auto"), ("slicing", False)])
def test_http_removed_field_is_unknown(client, field, value):
    with pytest.raises(ServiceError) as excinfo:
        client.submit("check", {"design": "mal_fig2", field: value})
    assert excinfo.value.status == 400
    assert excinfo.value.payload["errors"] == [{"field": field, "message": "unknown field"}]


def test_http_non_json_body_is_structured_400(client):
    import http.client

    connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.request(
            "POST", "/v1/check", body=b"not json", headers={"Content-Type": "text/plain"}
        )
        response = connection.getresponse()
        import json

        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["errors"][0]["field"] == "body"
    finally:
        connection.close()


# -- a cache directory shared with `specmatcher suite` ---------------------------


def test_daemon_replays_what_a_local_suite_stored(tmp_path):
    """The daemon runs no suite; `suite --cache-dir D` and a daemon on D share entries."""
    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "suite", "--designs", "mal_fig2",
         "--no-signals", "--cache-dir", cache_dir],
        env=env, check=True, capture_output=True, timeout=300,
    )
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0, cache_dir=cache_dir))
    port = svc.start()
    try:
        payload = ServiceClient(port=port).check("mal_fig2")
    finally:
        assert svc.drain(timeout=30.0)
    assert payload["cache"]["hits"] >= 1
    assert payload["cache"]["misses"] == 0


# -- stalled connections -------------------------------------------------------


def test_handler_timeout_is_finite():
    from repro.service.server import _Handler

    assert isinstance(_Handler.timeout, (int, float))
    assert 0 < _Handler.timeout < math.inf


def test_stalled_body_is_dropped_and_the_daemon_keeps_serving(monkeypatch):
    """A body shorter than its Content-Length must not hold a handler thread."""
    from repro.service.server import _Handler

    monkeypatch.setattr(_Handler, "timeout", 0.5)
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0))
    port = svc.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as stalled:
            stalled.sendall(
                b"POST /v1/check HTTP/1.0\r\nContent-Length: 100\r\n\r\n" + b'{"design"'
            )
            started = time.monotonic()
            assert stalled.recv(1024) == b""  # the daemon closed the connection
            assert time.monotonic() - started < 5.0
        assert ServiceClient(port=port).check("mal_fig2")["verdict"]["covered"] is True
    finally:
        assert svc.drain(timeout=30.0)


def test_stalled_headers_are_dropped(monkeypatch):
    """Headers that never end are timed out like a short body, before any job runs."""
    from repro.service.server import _Handler

    monkeypatch.setattr(_Handler, "timeout", 0.5)
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0))
    port = svc.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as stalled:
            stalled.sendall(b"POST /v1/check HTTP/1.0\r\nContent-Le")
            started = time.monotonic()
            assert stalled.recv(1024) == b""
            assert time.monotonic() - started < 5.0
    finally:
        assert svc.drain(timeout=30.0)


# -- quotas --------------------------------------------------------------------


def test_quota_429_with_retry_after():
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0.001, quota_burst=2))
    port = svc.start()
    try:
        c = ServiceClient(port=port, client_id="greedy")
        c.check("mal_fig2")
        c.check("mal_fig2")
        with pytest.raises(ServiceError) as excinfo:
            c.check("mal_fig2")
        error = excinfo.value
        assert error.status == 429
        assert error.payload["error"] == "quota"
        assert error.retry_after is not None and error.retry_after > 0
        # A different client has its own bucket.
        other = ServiceClient(port=port, client_id="patient")
        assert other.check("mal_fig2")["verdict"]["covered"] is True
    finally:
        assert svc.drain(timeout=30.0)


# -- per-request timeouts ------------------------------------------------------


def test_slow_job_times_out_with_504(monkeypatch):
    monkeypatch.setenv("SPECMATCHER_SLEEPY_SECONDS", "30")
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0, request_timeout=120.0))
    port = svc.start()
    try:
        c = ServiceClient(port=port)
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            c.check("mal_fig2", engine="sleepy", timeout=0.5)
        elapsed = time.monotonic() - started
        assert excinfo.value.status == 504
        assert excinfo.value.payload["error"] == "timeout"
        assert elapsed < 10  # cancelled cooperatively, not after 30 s
    finally:
        assert svc.drain(timeout=30.0)


# -- graceful drain ------------------------------------------------------------


def test_drain_finishes_inflight_slow_job(monkeypatch):
    monkeypatch.setenv("SPECMATCHER_SLEEPY_SECONDS", "2.0")
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0, request_timeout=120.0))
    port = svc.start()
    c = ServiceClient(port=port)
    result = {}

    def slow_check():
        result["payload"] = c.check("mal_fig2", engine="sleepy")

    thread = threading.Thread(target=slow_check)
    thread.start()
    deadline = time.monotonic() + 10
    while svc.inflight() == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert svc.inflight() == 1, "slow job never went in flight"
    started = time.monotonic()
    assert svc.drain(timeout=30.0), "drain timed out with a job in flight"
    drain_seconds = time.monotonic() - started
    thread.join(timeout=10)
    # The in-flight job finished and its response was delivered.
    assert result["payload"]["verdict"]["covered"] is True
    assert result["payload"]["engine"] == "sleepy"
    assert drain_seconds >= 0.5  # the drain actually waited for the job
    # The port is closed afterwards.
    with pytest.raises(ServiceUnavailable):
        ServiceClient(port=port, timeout=2.0).health()


def test_drain_waits_for_the_response_body(monkeypatch):
    """Regression: writing a finished job's 200 response counts as in flight.

    The handler's 200 write is held until ``drain()`` has begun and is either
    blocked on the in-flight count or has already returned.  ``drain()`` must
    not return before the whole body was written, or a SIGTERM'd daemon exits
    under a client still reading its response.
    """
    from repro.service.server import _Handler

    holding = threading.Event()
    drain_settled = threading.Event()
    written = threading.Event()
    real_send = _Handler._send

    def held_send(self, status, payload, headers=None):
        if status == 200 and self.path.startswith("/v1/"):
            holding.set()
            drain_settled.wait(timeout=30)
            real_send(self, status, payload, headers)
            written.set()
        else:
            real_send(self, status, payload, headers)

    class WatchedCondition(threading.Condition):
        def wait(self, timeout=None):
            drain_settled.set()  # drain() is blocked on an in-flight job
            return super().wait(timeout)

    monkeypatch.setattr(_Handler, "_send", held_send)
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0))
    svc._inflight_cv = WatchedCondition()
    port = svc.start()
    result = {}

    def check():
        result["payload"] = ServiceClient(port=port).check("mal_fig2")

    thread = threading.Thread(target=check)
    thread.start()
    try:
        assert holding.wait(timeout=60), "the job never reached its 200 write"
        drained = svc.drain(timeout=30.0)
        written_before_drain_returned = written.is_set()
    finally:
        drain_settled.set()
        thread.join(timeout=30)
    assert drained
    assert written_before_drain_returned, "drain() returned before the 200 body was written"
    assert result["payload"]["verdict"]["covered"] is True


def test_drain_rejects_new_requests_with_503():
    svc = CoverageService(ServiceConfig(port=0, quota_rate=0))
    port = svc.start()
    svc.draining = True  # simulate a drain in progress, accept loop still up
    try:
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(port=port).check("mal_fig2")
        assert excinfo.value.status == 503
        assert excinfo.value.payload["error"] == "draining"
        # Introspection stays available while draining.
        assert ServiceClient(port=port).health()["status"] == "draining"
    finally:
        svc.drain(timeout=10.0)
