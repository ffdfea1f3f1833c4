"""Per-client token-bucket quotas for the coverage service.

Each client (the ``X-Specmatcher-Client`` header, falling back to the peer
address) owns one :class:`TokenBucket`: ``burst`` tokens of capacity refilled
at ``rate`` tokens per second.  A job request spends one token; when the
bucket is dry the service answers 429 with a ``Retry-After`` hint — the
seconds until the next token exists — instead of queueing unbounded work for
one noisy client while everyone else starves.

``rate <= 0`` disables quota enforcement entirely (the single-user / CI
default is generous instead: the point is per-client *fairness* under
multi-user load, not throttling the only user).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Tuple

__all__ = ["TokenBucket", "QuotaRegistry"]


class TokenBucket:
    """A classic token bucket: ``burst`` capacity, ``rate`` tokens/second."""

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_lock")

    def __init__(self, rate: float, burst: int):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> Tuple[bool, float]:
        """Spend ``tokens`` if available.

        Returns ``(granted, retry_after_seconds)``; ``retry_after_seconds``
        is 0 on success and the time until enough tokens accrue on refusal.
        """
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True, 0.0
            deficit = tokens - self._tokens
            return False, deficit / self.rate


class QuotaRegistry:
    """One token bucket per client id, created lazily.

    The registry is bounded: when more than :attr:`MAX_CLIENTS` distinct ids
    accumulate, the least-recently-seen buckets are dropped (a dropped
    client simply starts over with a full bucket — quotas are a fairness
    mechanism, not an accounting ledger).
    """

    #: Caps the daemon's memory for buckets, whatever ids clients send.
    MAX_CLIENTS = 4096

    def __init__(self, rate: float, burst: int):
        #: ``rate <= 0`` turns the registry into a no-op (everything granted).
        self.enabled = rate > 0
        self.rate = float(rate)
        self.burst = int(burst)
        self._buckets: Dict[str, TokenBucket] = {}
        self._order: Dict[str, float] = {}
        self._lock = threading.Lock()

    def try_acquire(self, client: str) -> Tuple[bool, float]:
        """Spend one token from ``client``'s bucket (created full)."""
        if not self.enabled:
            return True, 0.0
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self.MAX_CLIENTS:
                    stalest = min(self._order, key=self._order.get)
                    del self._buckets[stalest]
                    del self._order[stalest]
                bucket = TokenBucket(self.rate, self.burst)
                self._buckets[client] = bucket
            self._order[client] = time.monotonic()
        return bucket.try_acquire()

    def client_count(self) -> int:
        with self._lock:
            return len(self._buckets)
