"""``repro.obs`` — dependency-free observability: spans, metrics, trace export.

BENCH_engines.json can say *that* slicing slows a design down; before this
package nothing in the codebase could say *why* — there was not a single
counter or timer in ``src/``.  The three pieces here close that gap:

* :mod:`repro.obs.trace` — a nestable, thread-safe **span** tracer
  (``with span("compile_problem", design=...)``) producing per-phase
  wall/CPU timings through pluggable sinks; free when no sink is installed;
* :mod:`repro.obs.metrics` — a process-wide **registry** of named counters,
  gauges and histograms (SAT decisions, product states, BDD node peaks,
  cache hits) recorded at phase boundaries;
* :mod:`repro.obs.export` — a **JSONL exporter** streaming spans and a final
  metrics snapshot, wired to ``--trace <file>`` on every CLI subcommand and
  safe under concurrent suite workers (O_APPEND, one write per line).

Everything is standard library only and import-light, so the foundational
layers (``logic``, ``sat``) can import it without cycles.
"""

from .metrics import Metrics, metrics, set_metrics
from .trace import (
    PhaseAggregator,
    SpanRecord,
    active_aggregators,
    add_sink,
    aggregating,
    remove_sink,
    span,
    tracing_active,
)
from .export import JsonlExporter, active_trace_exporter, install_trace_exporter

__all__ = [
    "Metrics",
    "metrics",
    "set_metrics",
    "PhaseAggregator",
    "SpanRecord",
    "active_aggregators",
    "add_sink",
    "aggregating",
    "remove_sink",
    "span",
    "tracing_active",
    "JsonlExporter",
    "active_trace_exporter",
    "install_trace_exporter",
]
