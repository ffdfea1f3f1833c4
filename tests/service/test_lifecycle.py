"""End-to-end daemon lifecycle: `specmatcher serve` as a real subprocess.

Boots the daemon with ``--port 0 --ready-file``, submits jobs over the wire,
then delivers SIGTERM while a slow job is in flight and asserts the graceful
drain the CI service lane relies on: the in-flight response is delivered,
the process exits 0, and the port is released.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient, ServiceUnavailable

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
SLEEPY_PLUGIN = Path(__file__).with_name("sleepy_plugin.py")


@pytest.mark.slow
def test_serve_sigterm_drains_inflight_job(tmp_path):
    ready = tmp_path / "ready.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["SPECMATCHER_SLEEPY_SECONDS"] = "2.0"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--ready-file", str(ready),
            "--preload", str(SLEEPY_PLUGIN),
            "--quota-rate", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not ready.exists() and time.monotonic() < deadline:
            if proc.poll() is not None:
                out, _ = proc.communicate(timeout=10)
                pytest.fail(f"serve exited early ({proc.returncode}):\n{out}")
            time.sleep(0.05)
        assert ready.exists(), "ready file never appeared"
        info = json.loads(ready.read_text())
        assert info["pid"] == proc.pid
        port = info["port"]

        client = ServiceClient(port=port, client_id="lifecycle")
        assert client.health()["status"] == "ok"
        # A first fast request proves the daemon serves real verdicts.
        warm = client.check("mal_fig2")
        assert warm["verdict"]["covered"] is True
        # A second identical one hits the daemon's warm cache.
        assert client.check("mal_fig2")["cache"]["hits"] >= 1

        # Put a slow (sleepy-engine) job in flight...
        result = {}

        def slow_check():
            result["payload"] = client.check("mal_fig2", engine="sleepy")

        worker = threading.Thread(target=slow_check)
        worker.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.health()["inflight"] > 0:
                break
            time.sleep(0.05)
        assert client.health()["inflight"] > 0, "slow job never went in flight"

        # ... and SIGTERM the daemon mid-job.
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        worker.join(timeout=30)

        assert proc.returncode == 0, out
        assert "listening on" in out
        assert "draining" in out
        assert "specmatcher service stopped" in out
        # The in-flight job's response was delivered before shutdown.
        assert result.get("payload"), "in-flight response was dropped by the drain"
        assert result["payload"]["engine"] == "sleepy"
        assert result["payload"]["verdict"]["covered"] is True
        # The port is actually released.
        with pytest.raises(ServiceUnavailable):
            ServiceClient(port=port, timeout=2.0).health()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)


def test_service_tests_leave_the_process_pristine():
    """The ``sleepy`` engine and a daemon's result cache end with the service tests.

    Engine tests run after a daemon-starting service test must see only the
    built-in engines, and must run their races rather than replay them from
    the cache the daemon installed: the portfolio tests named here fail on a
    replayed race, which starts no member thread and closes no
    ``portfolio_race`` span.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    engine_tests = REPO / "tests" / "engines"
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{Path(__file__).with_name('test_service.py')}::test_healthz",
            f"{engine_tests / 'test_agreement.py'}::TestEngineRegistry::test_known_names",
            f"{engine_tests / 'test_portfolio.py'}::TestPollCounters",
            f"{engine_tests / 'test_portfolio.py'}::TestMode",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-3000:]
