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
and the current context has entered no aggregator, :func:`span` returns a
shared no-op object — the hot paths stay untraced-speed.  There are two kinds
of sink:

* :class:`PhaseAggregator` (here) folds the spans closed in the context that
  entered it — a context variable holds the entered aggregators, so helper
  threads started in a copy of that context (portfolio race members) count
  too — into a ``name -> seconds`` table: the ``timings`` record of a job or
  a suite shard;
* ``JsonlExporter`` (:mod:`repro.obs.export`) is installed process-wide
  (:func:`add_sink`) and streams every thread's spans as JSON lines — the CLI
  installs it for ``--trace <file>``.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "SpanRecord",
    "span",
    "tracing_active",
    "add_sink",
    "remove_sink",
    "PhaseAggregator",
    "active_aggregators",
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
# The open span names of this thread: a list each thread mutates on its own.
_STACK = threading.local()
# The PhaseAggregators this context's spans also go to (innermost last).
_AGGREGATORS: ContextVar[Tuple["PhaseAggregator", ...]] = ContextVar(
    "phase_aggregators", default=()
)


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
    """True when this context's spans are being recorded by some sink."""
    return bool(_SINKS) or bool(active_aggregators())


def active_aggregators() -> Tuple["PhaseAggregator", ...]:
    """The aggregators this context's spans also go to (innermost last)."""
    return _AGGREGATORS.get()


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

    Free when tracing is off: without an installed sink or an aggregator in
    this context this returns a shared no-op object immediately.  ``attrs``
    become the span's attributes; more can be attached with ``.set(...)``
    while the span is open.
    """
    if not _SINKS and not _AGGREGATORS.get():
        return _NULL_SPAN
    return _LiveSpan(name, attrs)


class PhaseAggregator:
    """A sink folding spans into per-phase totals (wall / CPU / count).

    Used as a context manager: from entry to exit it receives the spans
    closed in the entering context, which includes helper threads started in
    a copy of it (a racing portfolio's members, so their phases land in the
    job's table).  Aggregation is by span *name*.
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

    def timings(self) -> Dict[str, float]:
        """Phase name → total wall seconds (rounded), the shard-row record."""
        with self._lock:
            return {
                name: round(entry[0], 6)
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
        _AGGREGATORS.set(_AGGREGATORS.get() + (self,))
        return self

    def __exit__(self, *exc) -> bool:
        _AGGREGATORS.set(tuple(a for a in _AGGREGATORS.get() if a is not self))
        return False
