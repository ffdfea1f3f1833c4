"""``repro.service`` — the long-lived coverage-as-a-service daemon.

Every one-shot ``specmatcher`` invocation pays interpreter startup, catalog
registration and cold caches; this package keeps all of that warm across
requests.  The pieces:

* :mod:`repro.service.validation` — a strict typed request-validation layer:
  every field of an incoming job is checked by a dedicated validator and
  *all* failures are collected into one structured 400 payload
  (``[{"field", "message"}, ...]``), never a bare string;
* :mod:`repro.service.jobs` — executes a validated :class:`JobRequest`
  (``check`` / ``analyze``) on the existing engine registry, returning the
  same ``features`` / ``timings`` records the suite runner emits.
  Shared by the HTTP server *and* the one-shot ``specmatcher check`` /
  ``analyze`` commands, so a served verdict byte-matches the CLI's;
* :mod:`repro.service.quota` — per-client token-bucket quotas (429 with a
  ``Retry-After`` hint when a bucket runs dry);
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer`` daemon:
  ``POST /v1/{check,analyze}``, ``GET /healthz``, ``GET /metrics``
  (backed by :mod:`repro.obs.metrics`), per-request cancel-token timeouts and
  a graceful SIGTERM drain (stop accepting, finish in-flight jobs, flush the
  trace exporter);
* :mod:`repro.service.client` — the thin stdlib client behind
  ``specmatcher submit``.

The daemon serves single-query jobs only: the sharded batch runner is
``specmatcher suite`` (:mod:`repro.runner`), and a daemon started with
``--cache-dir D`` shares its result cache with ``specmatcher suite
--cache-dir D``.

Everything is standard library only, like the rest of the repository.
"""

from .validation import (
    RequestValidationError,
    ValidationError,
    validate_request,
)
from .jobs import (
    JobRequest,
    JobTimeout,
    ProblemMemo,
    execute_job,
    exit_code_for,
)
from .quota import QuotaRegistry, TokenBucket
from .server import CoverageService, ServiceConfig
from .client import ServiceClient, ServiceError, ServiceUnavailable

__all__ = [
    "ValidationError",
    "RequestValidationError",
    "validate_request",
    "JobRequest",
    "JobTimeout",
    "ProblemMemo",
    "execute_job",
    "exit_code_for",
    "TokenBucket",
    "QuotaRegistry",
    "ServiceConfig",
    "CoverageService",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
]
