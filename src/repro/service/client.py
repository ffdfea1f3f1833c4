"""Thin stdlib client for the coverage service (``specmatcher submit``).

One :class:`ServiceClient` per daemon address; every call is one HTTP
request on a fresh connection (the daemon speaks HTTP/1.0).  Non-200
responses raise :class:`ServiceError` carrying the status and the server's
structured JSON body, so callers — the CLI, tests, CI scripts — branch on
``error.status`` instead of parsing prose.
"""

from __future__ import annotations

import json
import socket
from http.client import HTTPConnection, HTTPException
from typing import Dict, Optional

__all__ = ["ServiceClient", "ServiceError", "ServiceUnavailable"]


class ServiceError(Exception):
    """The daemon answered with a non-200 status."""

    def __init__(self, status: int, payload: Dict[str, object]):
        detail = payload.get("error", "error") if isinstance(payload, dict) else "error"
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload if isinstance(payload, dict) else {}

    @property
    def retry_after(self) -> Optional[float]:
        """Seconds to wait before retrying (429 quota responses)."""
        value = self.payload.get("retry_after")
        return float(value) if value is not None else None


class ServiceUnavailable(Exception):
    """The daemon could not be reached at all (refused / reset / DNS)."""


class ServiceClient:
    """JSON-over-HTTP client for one ``specmatcher serve`` daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        client_id: Optional[str] = None,
        timeout: float = 600.0,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Dict[str, object]:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Specmatcher-Client"] = self.client_id
        encoded = json.dumps(body).encode("utf-8") if body is not None else None
        try:
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except (ConnectionError, socket.timeout, socket.gaierror, HTTPException, OSError) as exc:
            raise ServiceUnavailable(
                f"{method} http://{self.host}:{self.port}{path}: {exc}"
            ) from exc
        finally:
            connection.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            payload = {"error": "bad_response", "body": raw.decode("utf-8", "replace")[:512]}
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    # -- jobs -----------------------------------------------------------------
    def submit(self, kind: str, job: Dict[str, object]) -> Dict[str, object]:
        """POST one job body to ``/v1/<kind>`` and return the 200 payload."""
        return self._request("POST", f"/v1/{kind}", body=job)

    def check(self, design: str, **fields) -> Dict[str, object]:
        return self.submit("check", {"design": design, **fields})

    def analyze(self, design: str, **fields) -> Dict[str, object]:
        return self.submit("analyze", {"design": design, **fields})

    # -- introspection ---------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics_snapshot(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def info(self) -> Dict[str, object]:
        return self._request("GET", "/")
