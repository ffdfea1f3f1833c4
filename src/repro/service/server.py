"""The coverage-as-a-service HTTP daemon (stdlib ``http.server`` only).

One long-lived process keeps everything a one-shot invocation pays for over
and over *warm*: each catalog design's built ``CoverageProblem`` (built on
its first request, counted by ``service.designs_built``), the interned
``BoolExpr`` kernel with its cached fingerprints, the memoized
``CompiledProblem`` IR and the result-cache LRU (optionally
directory-backed).  Requests are plain JSON over HTTP/1.0 (one
connection per request — which keeps the graceful drain story simple: no
idle keep-alive sockets to wait out):

``POST /v1/check`` / ``POST /v1/analyze``
    One job each; bodies are validated by
    :mod:`repro.service.validation` (400 with a structured error list),
    throttled by per-client token buckets (429 + ``Retry-After``), bounded
    by the worker semaphore, and executed by
    :mod:`repro.service.jobs` under a cancel-token timeout (504 on expiry).
``GET /healthz``
    Liveness: status (``ok`` / ``draining``), in-flight job count, uptime.
``GET /metrics``
    The full process metrics registry (:mod:`repro.obs.metrics`) plus
    service-level counters — the machine-readable contract CI uses to
    assert warm-cache behaviour without grepping logs.

Lifecycle: :meth:`CoverageService.start` binds and serves from a background
thread; :meth:`CoverageService.drain` performs the graceful shutdown the CI
lane exercises — stop accepting, let every in-flight job finish and flush
its response, then close.  ``specmatcher serve`` wires SIGTERM/SIGINT to
exactly that sequence and flushes the trace exporter on the way out.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .. import __version__
from ..obs import metrics
from .jobs import JobTimeout, ProblemMemo, execute_job
from .quota import QuotaRegistry
from .validation import JOB_KINDS, RequestValidationError, validate_request

__all__ = ["ServiceConfig", "CoverageService"]

#: Largest request body accepted (a validated job is a few hundred bytes;
#: anything near this limit is garbage or abuse).
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`CoverageService` instance."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (read it back from ``service.port``).
    port: int = 8000
    #: Maximum concurrently *executing* jobs; excess requests queue on the
    #: semaphore (each still holds only one cheap handler thread).
    workers: int = 8
    #: Persistent result-cache directory (``None`` = warm in-memory only).
    cache_dir: Optional[str] = None
    #: Token-bucket refill rate per client (tokens/second); ``<= 0`` disables
    #: quota enforcement.
    quota_rate: float = 20.0
    #: Token-bucket capacity per client.
    quota_burst: int = 40
    #: Default per-request budget (seconds) when the job names none.
    request_timeout: float = 300.0


class _Handler(BaseHTTPRequestHandler):
    """One request-per-connection JSON handler (HTTP/1.0, explicit close)."""

    protocol_version = "HTTP/1.0"
    server_version = f"specmatcher/{__version__}"
    #: Seconds a connection may stall mid-request (say, a body shorter than
    #: its ``Content-Length``) before the handler closes it and frees its
    #: thread.  ``StreamRequestHandler`` applies it to the socket.
    timeout = 30.0
    #: Set by :class:`CoverageService` on the server object.
    service: "CoverageService"

    # -- plumbing -------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Request logging goes through the metrics registry / trace spans,
        # not stderr (a daemon under concurrent load must not interleave
        # free-text writes).
        pass

    def _send(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ):
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in dict(headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        metrics().inc(f"service.responses.{status}")

    def _client_id(self) -> str:
        header = self.headers.get("X-Specmatcher-Client")
        if header:
            return header.strip()[:128]
        return self.client_address[0] if self.client_address else "unknown"

    def _read_body(self) -> object:
        length = self.headers.get("Content-Length")
        if length is None:
            raise RequestValidationError.single("body", "Content-Length is required")
        try:
            size = int(length)
        except ValueError:
            raise RequestValidationError.single("body", f"bad Content-Length {length!r}")
        if size < 0 or size > MAX_BODY_BYTES:
            raise RequestValidationError.single(
                "body", f"body size {size} outside [0, {MAX_BODY_BYTES}]"
            )
        raw = self.rfile.read(size)
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError):
            raise RequestValidationError.single("body", "request body is not valid JSON")

    # -- endpoints ------------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib naming
        service = self.server.service
        if self.path == "/healthz":
            self._send(200, service.health_payload())
            return
        if self.path == "/metrics":
            self._send(200, service.metrics_payload())
            return
        if self.path == "/":
            self._send(200, service.info_payload())
            return
        self._send(404, {"ok": False, "error": "not_found", "path": self.path})

    def do_POST(self):  # noqa: N802 - stdlib naming
        service = self.server.service
        if not self.path.startswith("/v1/"):
            self._send(404, {"ok": False, "error": "not_found", "path": self.path})
            return
        kind = self.path[len("/v1/"):]
        if kind not in JOB_KINDS:
            self._send(
                404,
                {"ok": False, "error": "not_found", "path": self.path,
                 "known": [f"/v1/{k}" for k in JOB_KINDS]},
            )
            return
        metrics().inc("service.requests")
        metrics().inc(f"service.requests.{kind}")
        if service.draining:
            self._send(503, {"ok": False, "error": "draining"})
            return
        granted, retry_after = service.quotas.try_acquire(self._client_id())
        if not granted:
            metrics().inc("service.quota_rejections")
            retry = max(retry_after, 0.001)
            self._send(
                429,
                {"ok": False, "error": "quota", "retry_after": round(retry, 3)},
                headers={"Retry-After": f"{retry:.3f}"},
            )
            return
        try:
            body = self._read_body()
            request = validate_request(kind, body)
        except RequestValidationError as exc:
            metrics().inc("service.validation_failures")
            self._send(400, {"ok": False, "error": "validation", "errors": exc.entries()})
            return
        if request.timeout is None:
            request = service.with_default_timeout(request)
        with service.track_inflight():
            with service.worker_slot():
                # A drain may have begun while this request queued for a
                # worker slot; it was already in flight (counted) by then,
                # so it runs to completion — the drain waits for it.
                try:
                    payload = execute_job(request, service.problems)
                except JobTimeout as exc:
                    metrics().inc("service.timeouts")
                    self._send(
                        504,
                        {"ok": False, "error": "timeout", "seconds": exc.seconds,
                         "kind": kind},
                    )
                    return
                except RequestValidationError as exc:
                    # Semantic failures only detectable during execution
                    # (e.g. a conjunct index past the design's count).
                    metrics().inc("service.validation_failures")
                    self._send(
                        400, {"ok": False, "error": "validation", "errors": exc.entries()}
                    )
                    return
                except Exception as exc:  # noqa: BLE001 - a job must not kill the daemon
                    metrics().inc("service.errors")
                    self._send(
                        500,
                        {"ok": False, "error": "internal",
                         "detail": f"{type(exc).__name__}: {exc}"},
                    )
                    return
            # Still in flight, so a drain waits for the whole body; the
            # worker slot is already free for the next job.
            self._send(200, payload)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Listen backlog.  The socketserver default of 5 makes the kernel reset
    #: connections of a burst of concurrent clients before the accept loop
    #: gets to them.
    request_queue_size = 128
    #: The drain waits on the service's own in-flight accounting, not on
    #: thread joins — an idle handler thread must not block ``server_close``.
    block_on_close = False
    allow_reuse_address = True


class CoverageService:
    """The daemon: lifecycle, shared warm state and request accounting."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.quotas = QuotaRegistry(config.quota_rate, max(1, config.quota_burst))
        #: Each design's problem, built on its first request; lives as long
        #: as the daemon.
        self.problems = ProblemMemo()
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._slots = threading.Semaphore(max(1, config.workers))
        self._started = 0.0
        #: The result cache that was active before :meth:`start` installed
        #: the daemon's; :meth:`drain` reinstalls it.
        self._previous_cache = None
        self.draining = False

    # -- warm state -----------------------------------------------------------
    def install_cache(self) -> None:
        """Install the process-wide result cache the engines will consult.

        Directory-backed when configured (so restarts and local
        ``specmatcher suite --cache-dir`` runs share entries), warm in-memory
        otherwise.  Idempotent.
        """
        from ..runner.cache import ResultCache, active_result_cache, cache_for_dir, set_result_cache

        if self.config.cache_dir:
            set_result_cache(cache_for_dir(self.config.cache_dir))
        elif active_result_cache() is None:
            set_result_cache(ResultCache())

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> int:
        """Bind, install warm state and serve from a background thread.

        Returns the bound port (useful with ``port=0``).
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        from ..runner.cache import active_result_cache

        self._previous_cache = active_result_cache()
        self.install_cache()
        server = _Server((self.config.host, self.config.port), _Handler)
        server.service = self
        self._server = server
        self._started = time.monotonic()
        self._thread = threading.Thread(
            target=server.serve_forever, name="specmatcher-serve", daemon=True
        )
        self._thread.start()
        return self.port

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.server_address[1]

    def inflight(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight jobs, close.

        Returns ``True`` when every in-flight job finished within
        ``timeout`` (``None`` = wait forever).  Responses of jobs that were
        already executing are always written before their sockets close.
        The result cache that was active before :meth:`start` is active
        again afterwards, so a program embedding the daemon does not keep
        answering from the daemon's cache.
        """
        if self._server is None:
            return True
        self.draining = True
        # Stop the accept loop first: no new connections are dispatched, and
        # connections already dispatched answer 503 via the draining flag.
        self._server.shutdown()
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    drained = False
                    break
                self._inflight_cv.wait(timeout=remaining)
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None
        from ..runner.cache import set_result_cache

        set_result_cache(self._previous_cache)
        return drained

    # -- request accounting ----------------------------------------------------
    def track_inflight(self):
        service = self

        class _Tracker:
            def __enter__(self):
                with service._inflight_cv:
                    service._inflight += 1
                    metrics().gauge("service.inflight", service._inflight)
                return self

            def __exit__(self, *exc):
                with service._inflight_cv:
                    service._inflight -= 1
                    metrics().gauge("service.inflight", service._inflight)
                    service._inflight_cv.notify_all()
                return False

        return _Tracker()

    def worker_slot(self):
        service = self

        class _Slot:
            def __enter__(self):
                service._slots.acquire()
                return self

            def __exit__(self, *exc):
                service._slots.release()
                return False

        return _Slot()

    def with_default_timeout(self, request):
        from dataclasses import replace

        if self.config.request_timeout and self.config.request_timeout > 0:
            return replace(request, timeout=self.config.request_timeout)
        return request

    # -- introspection payloads -------------------------------------------------
    def health_payload(self) -> Dict[str, object]:
        return {
            "status": "draining" if self.draining else "ok",
            "inflight": self.inflight(),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "version": __version__,
        }

    def metrics_payload(self) -> Dict[str, object]:
        snapshot = metrics().snapshot()
        snapshot["service"] = {
            "inflight": self.inflight(),
            "draining": self.draining,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "quota_clients": self.quotas.client_count(),
            "workers": self.config.workers,
        }
        return snapshot

    def info_payload(self) -> Dict[str, object]:
        return {
            "service": "specmatcher",
            "version": __version__,
            "endpoints": [f"/v1/{kind}" for kind in JOB_KINDS] + ["/healthz", "/metrics"],
            "cache_dir": self.config.cache_dir,
        }
