"""JSONL trace export: spans and metrics as an append-only line stream.

The CLI's ``--trace <file>`` installs a :class:`JsonlExporter`: every span
closed anywhere in the process becomes one JSON line, and closing the
exporter appends a final ``{"type": "metrics", ...}`` record with the full
snapshot of the process-wide registry (:mod:`repro.obs.metrics`).

Multi-process safety: suite workers install their own exporter on the *same*
path (opened ``O_APPEND``) and each line is emitted with a single ``write``
call, so concurrent writers interleave only at line boundaries — the stream
stays valid JSONL.  Each worker flushes its own metrics record when the pool
shuts it down, so a trace of a parallel suite run holds one metrics record
per participating process; consumers sum the counters across records.

Record shapes
-------------
``{"type": "span", "name", "path", "t", "wall", "cpu", "pid", "thread",
"attrs"}``
    One finished span; ``path`` is the slash-joined nesting of the recording
    thread, ``wall``/``cpu`` are seconds.
``{"type": "metrics", "pid", "t", "counters", "gauges", "histograms"}``
    One process's registry snapshot at exporter close.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Optional

from .metrics import metrics
from .trace import SpanRecord, add_sink, remove_sink

__all__ = ["JsonlExporter", "install_trace_exporter", "active_trace_exporter"]


class JsonlExporter:
    """Streams spans (and a final metrics snapshot) to a JSONL file."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        self.pid = os.getpid()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # O_APPEND + one write() per line keeps concurrent writers (suite
        # worker processes sharing the path) from tearing each other's lines.
        self._fd: Optional[int] = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()
        self._closed = False

    def _write_line(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._fd is None:
                return
            try:
                os.write(self._fd, line.encode("utf-8"))
            except OSError:  # pragma: no cover - disk full / closed fd
                pass

    # -- sink protocol --------------------------------------------------------
    def record(self, record: SpanRecord) -> None:
        self._write_line(
            {
                "type": "span",
                "name": record.name,
                "path": record.path,
                "t": round(record.started, 6),
                "wall": round(record.wall_seconds, 6),
                "cpu": round(record.cpu_seconds, 6),
                "pid": record.pid,
                "thread": record.thread,
                "attrs": record.attrs,
            }
        )

    # -- lifecycle ------------------------------------------------------------
    def write_metrics(self) -> None:
        """Append one metrics record with the current registry snapshot."""
        snapshot = metrics().snapshot()
        self._write_line(
            {
                "type": "metrics",
                "pid": os.getpid(),
                "t": round(time.time(), 6),
                "counters": snapshot["counters"],
                "gauges": snapshot["gauges"],
                "histograms": snapshot["histograms"],
            }
        )

    def close(self) -> None:
        """Flush the metrics record, detach from the span stream, close the fd."""
        if self._closed:
            return
        self._closed = True
        remove_sink(self)
        self.write_metrics()
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:  # pragma: no cover
                    pass
                self._fd = None
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None


_ACTIVE: Optional[JsonlExporter] = None


def active_trace_exporter() -> Optional[JsonlExporter]:
    """The exporter installed in this process (``None`` when untraced)."""
    return _ACTIVE


def install_trace_exporter(path: str) -> JsonlExporter:
    """Install a :class:`JsonlExporter` on ``path`` for this process.

    Idempotent per path: re-installing on the already-active path returns the
    active exporter.  An exporter inherited through ``fork`` belongs to the
    parent: it stops being a sink here, unclosed (closing it would write the
    parent's counters as this process's record), and this process gets its
    own.  The exporter is registered with ``atexit`` so a process that never
    calls :meth:`JsonlExporter.close` still flushes its metrics record on a
    normal exit.
    """
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE.pid != os.getpid():
        remove_sink(_ACTIVE)
        _ACTIVE = None
    if _ACTIVE is not None and _ACTIVE.path == os.path.abspath(path):
        return _ACTIVE
    exporter = JsonlExporter(path)
    add_sink(exporter)
    atexit.register(exporter.close)
    _ACTIVE = exporter
    return exporter
