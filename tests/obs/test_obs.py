"""Unit tests of the observability layer (repro.obs): spans, metrics, export."""

import json
import os
import threading

import pytest

from repro.designs import get_design
from repro.engines import get_engine
from repro.obs import (
    JsonlExporter,
    Metrics,
    PhaseAggregator,
    active_aggregators,
    add_sink,
    aggregating,
    install_trace_exporter,
    metrics,
    remove_sink,
    set_metrics,
    span,
    tracing_active,
)
from repro.obs.trace import _NULL_SPAN
from repro.runner.cache import using_result_cache


class _ListSink:
    def __init__(self):
        self.records = []

    def record(self, record):
        self.records.append(record)


@pytest.fixture()
def sink():
    collector = _ListSink()
    add_sink(collector)
    try:
        yield collector
    finally:
        remove_sink(collector)


@pytest.fixture()
def registry():
    fresh = Metrics()
    previous = set_metrics(fresh)
    try:
        yield fresh
    finally:
        set_metrics(previous)


class TestSpan:
    def test_null_fast_path_without_sinks(self):
        assert not tracing_active()
        with span("anything", key="value") as sp:
            sp.set(more="attrs")  # must be a silent no-op
        assert sp is _NULL_SPAN

    def test_records_name_timing_and_attrs(self, sink):
        with span("phase", design="mal_fig2") as sp:
            sp.set(states=17)
        (record,) = sink.records
        assert record.name == "phase"
        assert record.path == "phase"
        assert record.attrs == {"design": "mal_fig2", "states": 17}
        assert record.wall_seconds >= 0.0
        assert record.cpu_seconds >= 0.0

    def test_nesting_builds_slash_path(self, sink):
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = sink.records  # inner closes first
        assert inner.path == "outer/inner"
        assert outer.path == "outer"

    def test_exception_still_closes_span(self, sink):
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        assert [r.name for r in sink.records] == ["doomed"]
        # The name stack must be unwound: a fresh span is top-level again.
        with span("after"):
            pass
        assert sink.records[-1].path == "after"

    def test_thread_local_nesting(self, sink):
        done = threading.Event()

        def worker():
            with span("thread_side"):
                pass
            done.set()

        with span("main_side"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.is_set()
        paths = {r.path for r in sink.records}
        # The worker thread's span must NOT inherit the main thread's stack.
        assert "thread_side" in paths and "main_side" in paths
        assert "main_side/thread_side" not in paths


class TestMetrics:
    def test_counters_accumulate(self, registry):
        metrics().inc("a.b")
        metrics().inc("a.b", 2)
        assert metrics().counter("a.b") == 3
        assert metrics().counter("never.touched") == 0

    def test_gauge_max_tracks_peak(self, registry):
        metrics().gauge_max("peak", 5)
        metrics().gauge_max("peak", 3)
        metrics().gauge_max("peak", 9)
        assert metrics().gauge_value("peak") == 9

    def test_histogram_summary(self, registry):
        for value in (0.5, 1.5, 1.0):
            metrics().observe("h", value)
        snap = metrics().snapshot()["histograms"]["h"]
        assert snap == {"count": 3, "sum": 3.0, "min": 0.5, "max": 1.5}

    def test_snapshot_is_a_copy(self, registry):
        metrics().inc("x")
        snap = metrics().snapshot()
        snap["counters"]["x"] = 999
        assert metrics().counter("x") == 1

    def test_thread_safety_of_inc(self, registry):
        def bump():
            for _ in range(1000):
                metrics().inc("race")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics().counter("race") == 4000


class TestPhaseAggregator:
    def test_folds_spans_by_name(self):
        with PhaseAggregator() as phases:
            with span("compile"):
                pass
            with span("solve"):
                pass
            with span("solve"):
                pass
        timings = phases.timings()
        assert set(timings) == {"compile", "solve"}
        detailed = phases.detailed()
        assert detailed["solve"]["count"] == 2
        assert detailed["compile"]["count"] == 1

    def test_detaches_on_exit(self):
        with PhaseAggregator() as phases:
            pass
        with span("late"):
            pass
        assert "late" not in phases.timings()

    def test_folds_only_its_own_threads_spans(self):
        """Another request's phases, closed while this one runs, stay out."""

        def other_request():
            with span("other_request_phase"):
                pass

        with using_result_cache(None), PhaseAggregator() as phases:
            other = threading.Thread(target=other_request)
            other.start()
            get_engine("explicit").check_primary(get_design("mal_fig2").builder())
            other.join()
        timings = phases.timings()
        assert "other_request_phase" not in timings
        assert {"engine_run", "explicit_product"} <= set(timings)

    def test_aggregating_joins_a_helper_thread(self):
        with PhaseAggregator() as phases:
            joined = active_aggregators()

            def helper():
                with aggregating(joined), span("helper_phase"):
                    pass

            thread = threading.Thread(target=helper)
            thread.start()
            thread.join()
        assert active_aggregators() == ()
        assert "helper_phase" in phases.timings()


class TestJsonlExporter:
    def test_stream_is_valid_jsonl_ending_with_metrics(self, tmp_path, registry):
        path = str(tmp_path / "trace.jsonl")
        exporter = JsonlExporter(path)
        add_sink(exporter)
        try:
            with span("phase_one", design="d"):
                pass
            metrics().inc("result_cache.hits", 7)
        finally:
            exporter.close()  # also removes the sink
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert [r["type"] for r in records] == ["span", "metrics"]
        assert records[0]["name"] == "phase_one"
        assert records[0]["attrs"] == {"design": "d"}
        assert records[0]["pid"] == os.getpid()
        assert records[1]["counters"]["result_cache.hits"] == 7

    def test_install_is_idempotent_per_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        first = install_trace_exporter(path)
        try:
            assert install_trace_exporter(path) is first
        finally:
            first.close()

    def test_close_is_idempotent(self, tmp_path, registry):
        path = str(tmp_path / "trace.jsonl")
        exporter = install_trace_exporter(path)
        exporter.close()
        exporter.close()
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert sum(1 for r in records if r["type"] == "metrics") == 1
