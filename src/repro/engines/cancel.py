"""Cooperative cancellation for racing coverage engines.

The portfolio engine (:mod:`repro.engines.portfolio`) runs the explicit,
bounded and symbolic engines concurrently and wants the losers to stop as
soon as one of them produces a decisive verdict.  Python threads cannot be
killed, so cancellation is *cooperative*: the racing thread installs a
:class:`CancelToken` (a context variable, via :func:`using_cancel_token`) and
the long-running search loops — Kripke enumeration, product construction, the
CDCL decision loop, the BMC bound ladder, the symbolic fixpoints — call
:func:`check_cancelled` at their loop heads.  When the token has been
cancelled the call raises :class:`Cancelled`, unwinding the losing engine
promptly.

A poll reads the context's token and, when there is one, its flag and
deadline; a context with no installed token never raises, so every
single-engine entry point is unaffected.  A new thread starts with no token.

:func:`cancel_after` is the deadline form of the same mechanism: a token
that counts as cancelled once ``time.monotonic()`` reaches its deadline, so
no timer thread is started.  Service jobs and suite shards are bounded with
it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = [
    "Cancelled",
    "CancelToken",
    "using_cancel_token",
    "cancel_after",
    "check_cancelled",
]


class Cancelled(Exception):
    """Raised inside a search loop whose cancel token has been triggered."""


class CancelToken:
    """A shared flag the race winner sets, or a deadline, to stop a search."""

    __slots__ = ("_cancelled", "_deadline")

    def __init__(self) -> None:
        self._cancelled = False
        self._deadline = math.inf  # time.monotonic() value; set by cancel_after

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled or time.monotonic() >= self._deadline


_TOKEN: ContextVar[Optional[CancelToken]] = ContextVar("cancel_token", default=None)


@contextmanager
def using_cancel_token(token: Optional[CancelToken]) -> Iterator[Optional[CancelToken]]:
    """Install ``token`` as the current context's cancel token."""
    previous = _TOKEN.set(token)
    try:
        yield token
    finally:
        _TOKEN.reset(previous)


@contextmanager
def cancel_after(seconds: float) -> Iterator[CancelToken]:
    """Run the body under a fresh token whose deadline is ``seconds`` from now."""
    token = CancelToken()
    token._deadline = time.monotonic() + seconds
    with using_cancel_token(token):
        yield token


def check_cancelled() -> None:
    """Raise :class:`Cancelled` when the current context's token is set."""
    token = _TOKEN.get()
    if token is not None and token.cancelled:
        raise Cancelled()
