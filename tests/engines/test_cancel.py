"""The cancel layer: thread-local tokens that the search loops poll.

A thread with no token never raises; a token stops only the thread that
installed it; :func:`cancel_after` arms a timer-cancelled token for the
length of its block, then stops its timer and puts the caller's token back.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engines.cancel import (
    CancelToken,
    Cancelled,
    cancel_after,
    check_cancelled,
    using_cancel_token,
)


def poll_until_cancelled(limit: float = 5.0) -> None:
    """Poll like a search loop until the thread's token trips (at most ``limit`` s)."""
    started = time.monotonic()
    while time.monotonic() - started < limit:
        check_cancelled()
        time.sleep(0.001)
    pytest.fail(f"no cancel within {limit} s")


def test_a_thread_without_a_token_never_raises():
    check_cancelled()
    with using_cancel_token(None):
        check_cancelled()


def test_a_cancelled_token_stops_only_the_thread_that_installed_it():
    token = CancelToken()
    token.cancel()
    assert token.cancelled
    other = {}

    def poll():
        try:
            check_cancelled()
            other["raised"] = False
        except Cancelled:
            other["raised"] = True

    with using_cancel_token(token):
        with pytest.raises(Cancelled):
            check_cancelled()
        thread = threading.Thread(target=poll)
        thread.start()
        thread.join(timeout=10)
    assert other == {"raised": False}
    check_cancelled()  # the token left with its block


def test_using_cancel_token_restores_the_previous_token_on_error():
    outer, inner = CancelToken(), CancelToken()
    inner.cancel()
    with using_cancel_token(outer):
        with pytest.raises(Cancelled):
            with using_cancel_token(inner):
                check_cancelled()
        check_cancelled()  # the outer token is back, and it is live
        outer.cancel()
        with pytest.raises(Cancelled):
            check_cancelled()


def test_cancel_after_trips_its_token_at_the_deadline():
    started = time.monotonic()
    with pytest.raises(Cancelled):
        with cancel_after(0.2) as token:
            assert not token.cancelled
            poll_until_cancelled()
    assert token.cancelled
    assert 0.1 < time.monotonic() - started < 5.0


def test_cancel_after_stops_its_timer_when_the_block_ends_first():
    """A job that finishes early must not leave its deadline's thread behind."""
    before = set(threading.enumerate())
    with cancel_after(30) as token:
        timers = [
            thread
            for thread in threading.enumerate()
            if thread not in before and isinstance(thread, threading.Timer)
        ]
    assert len(timers) == 1
    timers[0].join(timeout=5)
    assert not timers[0].is_alive()
    assert not token.cancelled
    check_cancelled()


def test_cancel_after_puts_the_callers_token_back():
    outer = CancelToken()
    with using_cancel_token(outer):
        with pytest.raises(Cancelled):
            with cancel_after(0.01):
                poll_until_cancelled()
        check_cancelled()  # the deadline ended with its block
        assert not outer.cancelled
        outer.cancel()
        with pytest.raises(Cancelled):
            check_cancelled()
