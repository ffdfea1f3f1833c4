"""Cooperative cancellation for racing coverage engines.

The portfolio engine (:mod:`repro.engines.portfolio`) runs the explicit,
bounded and symbolic engines concurrently and wants the losers to stop as
soon as one of them produces a decisive verdict.  Python threads cannot be
killed, so cancellation is *cooperative*: the racing thread installs a
:class:`CancelToken` (thread-local, via :func:`using_cancel_token`) and the
long-running search loops — Kripke enumeration, product construction, the
CDCL decision loop, the BMC bound ladder, the symbolic fixpoints — call
:func:`check_cancelled` at their loop heads.  When the token has been
cancelled the call raises :class:`Cancelled`, unwinding the losing engine
promptly.

A poll reads the thread's token and, when there is one, its flag; a thread
with no installed token never raises, so every single-engine entry point is
unaffected.

:func:`cancel_after` is the deadline form of the same mechanism: a token
that a timer cancels.  Service jobs and suite shards are bounded with it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
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
    """A shared flag the race winner (or a deadline) sets to stop a search."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


_LOCAL = threading.local()


@contextmanager
def using_cancel_token(token: Optional[CancelToken]) -> Iterator[Optional[CancelToken]]:
    """Install ``token`` as the current thread's cancel token."""
    previous = getattr(_LOCAL, "token", None)
    _LOCAL.token = token
    try:
        yield token
    finally:
        _LOCAL.token = previous


@contextmanager
def cancel_after(seconds: float) -> Iterator[CancelToken]:
    """Run the body under a fresh token that a timer cancels after ``seconds``."""
    token = CancelToken()
    timer = threading.Timer(seconds, token.cancel)
    timer.daemon = True
    timer.start()
    try:
        with using_cancel_token(token):
            yield token
    finally:
        timer.cancel()


def check_cancelled() -> None:
    """Raise :class:`Cancelled` when the current thread's token is set."""
    token = getattr(_LOCAL, "token", None)
    if token is not None and token.cancelled:
        raise Cancelled()
