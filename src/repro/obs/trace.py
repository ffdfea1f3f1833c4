"""Nestable, thread-safe span tracing for the coverage pipeline.

A **span** is one timed phase of work — compiling a problem, building the
explicit product, one BMC bound, a symbolic fixpoint — opened with

.. code-block:: python

    with span("compile_problem", design=module.name) as sp:
        ...
        sp.set(coi_size=kept)          # attach attributes discovered mid-phase

Spans nest per thread (a thread-local name stack gives each record its
``path``) and are safe to open concurrently from racing portfolio threads.
Each finished span carries wall-clock *and* thread-CPU time, so a blocked
phase (a losing race member waiting on the GIL) is distinguishable from a
computing one.

Recording is **sink-based and off by default**: when no sink is installed
and the thread has entered no aggregator, :func:`span` returns a shared no-op
object — the hot paths stay untraced-speed.  There are two kinds of sink:

* :class:`PhaseAggregator` (here) folds the spans of the thread that entered
  it, and of helper threads that join it with :func:`aggregating` (portfolio
  race members), into a ``name -> seconds`` table — the ``timings`` record of
  a job, a suite shard or a cached engine run;
* ``JsonlExporter`` (:mod:`repro.obs.export`) is installed process-wide
  (:func:`add_sink`) and streams every thread's spans as JSON lines — the CLI
  installs it for ``--trace <file>``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "SpanRecord",
    "span",
    "tracing_active",
    "add_sink",
    "remove_sink",
    "PhaseAggregator",
    "active_aggregators",
    "aggregating",
]


@dataclass
class SpanRecord:
    """One finished span, as handed to every sink."""

    name: str
    path: str
    started: float  # epoch seconds (time.time) at span open
    wall_seconds: float
    cpu_seconds: float
    pid: int
    thread: str
    attrs: Dict[str, object] = field(default_factory=dict)


# Installed sinks (process-wide).  Mutated rarely; read on every span close.
_SINKS: List[object] = []
_SINKS_LOCK = threading.Lock()
_STACK = threading.local()
# The PhaseAggregators this thread's spans also go to (``.entered``).
_AGGREGATORS = threading.local()


def add_sink(sink: object) -> None:
    """Install a sink; it will receive every :class:`SpanRecord` from now on."""
    with _SINKS_LOCK:
        if sink not in _SINKS:
            _SINKS.append(sink)


def remove_sink(sink: object) -> None:
    """Uninstall a sink (missing sinks are ignored)."""
    with _SINKS_LOCK:
        try:
            _SINKS.remove(sink)
        except ValueError:
            pass


def tracing_active() -> bool:
    """True when this thread's spans are being recorded by some sink."""
    return bool(_SINKS) or bool(active_aggregators())


def active_aggregators() -> Tuple["PhaseAggregator", ...]:
    """The aggregators this thread's spans also go to (innermost last)."""
    return getattr(_AGGREGATORS, "entered", ())


@contextmanager
def aggregating(aggregators: Sequence["PhaseAggregator"]) -> Iterator[None]:
    """Also fold this thread's spans into ``aggregators`` inside the block.

    A helper thread working for a job passes the job thread's
    :func:`active_aggregators`, so the job's ``timings`` include its phases.
    """
    previous = active_aggregators()
    _AGGREGATORS.entered = previous + tuple(aggregators)
    try:
        yield
    finally:
        _AGGREGATORS.entered = previous


class _NullSpan:
    """The shared no-op span returned while no sink is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """A recording span: times the block and dispatches to every sink."""

    __slots__ = ("name", "attrs", "_t0", "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        stack: List[str] = getattr(_STACK, "names", None)
        if stack is None:
            stack = []
            _STACK.names = stack
        stack.append(self.name)
        self._t0 = time.time()
        self._wall0 = time.perf_counter()
        try:
            self._cpu0 = time.thread_time()
        except (AttributeError, OSError):  # pragma: no cover - exotic platforms
            self._cpu0 = 0.0
        return self

    def __exit__(self, *exc) -> bool:
        wall = time.perf_counter() - self._wall0
        try:
            cpu = time.thread_time() - self._cpu0
        except (AttributeError, OSError):  # pragma: no cover - exotic platforms
            cpu = 0.0
        stack: List[str] = getattr(_STACK, "names", [])
        path = "/".join(stack)
        if stack:
            stack.pop()
        record = SpanRecord(
            name=self.name,
            path=path,
            started=self._t0,
            wall_seconds=wall,
            cpu_seconds=cpu,
            pid=os.getpid(),
            thread=threading.current_thread().name,
            attrs=self.attrs,
        )
        with _SINKS_LOCK:
            sinks = list(_SINKS)
        sinks.extend(active_aggregators())
        for sink in sinks:
            try:
                sink.record(record)
            except Exception:  # pragma: no cover - a broken sink must not kill work
                pass
        return False


def span(name: str, **attrs):
    """Open a span named ``name`` (context manager).

    Free when tracing is off: without an installed sink or an aggregator on
    this thread this returns a shared no-op object immediately.  ``attrs``
    become the span's attributes; more can be attached with ``.set(...)``
    while the span is open.
    """
    if not _SINKS and not getattr(_AGGREGATORS, "entered", None):
        return _NULL_SPAN
    return _LiveSpan(name, attrs)


class PhaseAggregator:
    """A sink folding spans into per-phase totals (wall / CPU / count).

    Used as a context manager: from entry to exit it receives the spans the
    entering thread closes, and those of helper threads that join it with
    :func:`aggregating` (a racing portfolio's members, so their phases land
    in the job's table).  Aggregation is by span *name*.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phases: Dict[str, List[float]] = {}  # name -> [wall, cpu, count]

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            entry = self._phases.get(record.name)
            if entry is None:
                self._phases[record.name] = [
                    record.wall_seconds,
                    record.cpu_seconds,
                    1,
                ]
            else:
                entry[0] += record.wall_seconds
                entry[1] += record.cpu_seconds
                entry[2] += 1

    def timings(self, precision: int = 6) -> Dict[str, float]:
        """Phase name → total wall seconds (rounded), the shard-row record."""
        with self._lock:
            return {
                name: round(entry[0], precision)
                for name, entry in sorted(self._phases.items())
            }

    def detailed(self) -> Dict[str, Dict[str, float]]:
        """Phase name → {seconds, cpu_seconds, count} (profile reports)."""
        with self._lock:
            return {
                name: {
                    "seconds": round(entry[0], 6),
                    "cpu_seconds": round(entry[1], 6),
                    "count": int(entry[2]),
                }
                for name, entry in sorted(self._phases.items())
            }

    def __enter__(self) -> "PhaseAggregator":
        _AGGREGATORS.entered = active_aggregators() + (self,)
        return self

    def __exit__(self, *exc) -> bool:
        _AGGREGATORS.entered = tuple(a for a in active_aggregators() if a is not self)
        return False
