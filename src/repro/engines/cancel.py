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

A thread with no installed token pays one thread-local attribute read per
poll and never raises — every existing single-engine entry point is
unaffected.

:func:`cancel_after` is the deadline form of the same mechanism: a token
that a timer cancels.  Service jobs and suite shards are bounded with it, and
a shard's deadline nests inside its job's.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "Cancelled",
    "CancelToken",
    "active_cancel_token",
    "using_cancel_token",
    "cancel_after",
    "check_cancelled",
]


class Cancelled(Exception):
    """Raised inside a search loop whose cancel token has been triggered."""


class CancelToken:
    """A shared flag the race winner sets to stop the losing engines.

    The token also keeps per-member **poll counters**: every
    :func:`check_cancelled` from a thread registered with a member name
    (``using_cancel_token(token, member="bmc")``) bumps ``polls[member]``,
    and — once the token is cancelled — ``polls_after_cancel[member]``.  The
    portfolio reports these as each loser's progress at cancellation, and
    the counters make cooperative shutdown *testable*: a well-behaved search
    loop observes the cancel within a handful of polls, so
    ``polls_after_cancel`` stays tiny.

    Counter updates are plain dict mutations without a lock: each member
    name is only ever written by its own racing thread, and single-key dict
    operations are atomic under the GIL — a lock here would tax the hottest
    loops (CDCL decisions, product expansion) for nothing.
    """

    __slots__ = ("_event", "polls", "polls_after_cancel")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.polls: dict = {}
        self.polls_after_cancel: dict = {}

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def note_poll(self, member: str) -> None:
        """Record one cancellation poll by ``member``'s search loop."""
        self.polls[member] = self.polls.get(member, 0) + 1
        if self._event.is_set():
            self.polls_after_cancel[member] = (
                self.polls_after_cancel.get(member, 0) + 1
            )

    def progress_snapshot(self) -> dict:
        """Member → {polls, polls_after_cancel} at the time of the call."""
        return {
            member: {
                "polls": count,
                "polls_after_cancel": self.polls_after_cancel.get(member, 0),
            }
            for member, count in sorted(self.polls.items())
        }


class _NestedToken(CancelToken):
    """A token that also reads as cancelled while an enclosing one is."""

    __slots__ = ("_outer",)

    def __init__(self, outer: CancelToken) -> None:
        super().__init__()
        self._outer = outer

    @property
    def cancelled(self) -> bool:
        return self._event.is_set() or self._outer.cancelled


_LOCAL = threading.local()


def active_cancel_token() -> Optional[CancelToken]:
    """The token installed for the current thread (``None`` when absent)."""
    return getattr(_LOCAL, "token", None)


@contextmanager
def using_cancel_token(
    token: Optional[CancelToken], member: Optional[str] = None
) -> Iterator[Optional[CancelToken]]:
    """Install ``token`` as the current thread's cancel token.

    ``member`` names this thread in the token's poll counters (the portfolio
    passes the racing engine's name); unnamed threads poll without counting.
    """
    previous = getattr(_LOCAL, "token", None)
    previous_member = getattr(_LOCAL, "member", None)
    _LOCAL.token = token
    _LOCAL.member = member
    try:
        yield token
    finally:
        _LOCAL.token = previous
        _LOCAL.member = previous_member


@contextmanager
def cancel_after(seconds: float) -> Iterator[CancelToken]:
    """Run the body under a fresh token that a timer cancels after ``seconds``.

    The token nests: it also reads as cancelled while the token it shadows
    (the caller's) is, so a suite shard's deadline inside a service job's
    deadline stops the shard at whichever fires first.
    """
    outer = active_cancel_token()
    token = CancelToken() if outer is None else _NestedToken(outer)
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
    if token is None:
        return
    member = getattr(_LOCAL, "member", None)
    if member is not None:
        token.note_poll(member)
    if token.cancelled:
        raise Cancelled()
