"""Suite-level observability: feature records, timings, tracing, cache LRU."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics
from repro.runner import expand_jobs, run_suite, suite_to_dict
from repro.runner.cache import (
    ResultCache,
    merge_persistent_stats,
    read_persistent_stats,
)
from repro.runner.report import profile_suite, render_markdown, render_text

RANDOM_JOBS = dict(designs=[], random_count=3, random_seed=11)

REQUIRED_FEATURES = ("coi_size", "registers", "automaton_states", "bound")


@pytest.fixture(scope="module")
def suite_result():
    jobs = expand_jobs(**RANDOM_JOBS)
    return run_suite(jobs, workers=1, use_cache=False)


class TestShardFeatureRecords:
    def test_every_ok_shard_has_features_and_timings(self, suite_result):
        assert suite_result.succeeded
        for shard in suite_result.shards:
            assert shard.features is not None, shard.job.job_id
            for key in REQUIRED_FEATURES:
                assert shard.features.get(key) is not None, (shard.job.job_id, key)
            assert shard.timings, shard.job.job_id
            assert all(seconds >= 0 for seconds in shard.timings.values())

    def test_features_reach_the_json_report(self, suite_result):
        payload = suite_to_dict(suite_result)
        for row in payload["shards"]:
            for key in REQUIRED_FEATURES:
                assert row["features"].get(key) is not None, row["job_id"]
            assert row["timings"]
        json.dumps(payload)  # must stay JSON-serialisable

    def test_bound_filled_even_for_complete_engines(self):
        jobs = expand_jobs(["mal_fig2"], include_signals=False, bound=9)
        result = run_suite(jobs, workers=1, use_cache=False)
        assert result.succeeded
        for shard in result.shards:
            # Complete engines cache with bound=None; the shard row must
            # still carry the job's bound for the feature record.
            assert shard.features["bound"] == 9

    def test_bmc_shards_record_bounded_features(self):
        jobs = expand_jobs(
            ["mal_fig2"], include_signals=False, engine="bmc", bound=6
        )
        result = run_suite(jobs, workers=1, use_cache=False)
        assert result.succeeded
        for shard in result.shards:
            assert shard.features["bound"] == 6
            assert shard.features["registers"] >= 1


class TestProfile:
    def test_profile_breaks_down_by_design_and_phase(self, suite_result):
        profile = profile_suite(suite_result)
        assert profile["designs"], "profile must cover at least one design"
        for entry in profile["designs"].values():
            assert entry["phases"]
            assert entry["slowest_phase"] is not None
            # The wrapper span encloses the real phases; it must never be
            # reported as the slowest one.
            assert entry["slowest_phase"] != "engine_run"

    def test_profile_renders_in_text_and_markdown(self, suite_result):
        text = render_text(suite_result, profile=True)
        assert "slowest:" in text
        markdown = render_markdown(suite_result, profile=True)
        assert "## Profile" in markdown

    def test_profile_key_only_when_requested(self, suite_result):
        assert "profile" not in suite_to_dict(suite_result)
        assert "profile" in suite_to_dict(suite_result, profile=True)


class TestTracedRuns:
    def test_traced_run_is_bit_identical_and_emits_valid_jsonl(self, tmp_path):
        jobs = expand_jobs(**RANDOM_JOBS)
        untraced = run_suite(jobs, workers=1, use_cache=False)
        trace_path = str(tmp_path / "suite-trace.jsonl")
        traced = run_suite(jobs, workers=1, use_cache=False, trace=trace_path)
        try:
            assert traced.verdicts() == untraced.verdicts()
            with open(trace_path, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle]
            assert any(r["type"] == "span" for r in records)
            span_names = {r["name"] for r in records if r["type"] == "span"}
            assert "engine_run" in span_names
        finally:
            from repro.obs import active_trace_exporter

            exporter = active_trace_exporter()
            if exporter is not None:
                exporter.close()

    def test_cache_metrics_reach_the_registry(self, tmp_path):
        jobs = expand_jobs(**RANDOM_JOBS)
        cache_dir = str(tmp_path / "cache")
        before = metrics().counter("result_cache.hits")
        run_suite(jobs, workers=1, cache_dir=cache_dir)
        warm = run_suite(jobs, workers=1, cache_dir=cache_dir)
        assert warm.cache_hit_ratio >= 0.9
        assert metrics().counter("result_cache.hits") >= before + warm.cache_hits


class TestSidecarMerge:
    def test_counters_accumulate_across_merges(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        merge_persistent_stats(cache_dir, hits=3, misses=1, stores=4, evictions=0)
        totals = merge_persistent_stats(
            cache_dir, hits=2, misses=2, stores=0, evictions=1
        )
        assert totals == {"hits": 5, "misses": 3, "stores": 4, "evictions": 1}
        assert read_persistent_stats(cache_dir) == totals

    def test_merge_survives_concurrent_writers(self, tmp_path):
        import threading

        cache_dir = str(tmp_path / "cache")

        def bump():
            for _ in range(25):
                merge_persistent_stats(cache_dir, hits=1, misses=1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        totals = read_persistent_stats(cache_dir)
        # The flock-serialised read-modify-write must not lose increments.
        assert totals["hits"] == 100 and totals["misses"] == 100


class TestMemoryLru:
    def test_memory_only_cache_is_unbounded_by_default(self):
        cache = ResultCache()
        assert cache.memory_limit is None

    def test_dir_backed_cache_gets_default_limit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.memory_limit == ResultCache.DEFAULT_MEMORY_LIMIT

    def test_lru_evicts_least_recently_used(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), memory_limit=2)
        cache.put("a" * 64, {"satisfiable": True})
        cache.put("b" * 64, {"satisfiable": False})
        assert cache.get("a" * 64) is not None  # refresh "a"
        cache.put("c" * 64, {"satisfiable": True})  # evicts "b", not "a"
        assert cache.stats.evictions == 1
        assert ("a" * 64) in cache._memory and ("c" * 64) in cache._memory
        assert ("b" * 64) not in cache._memory
        # The evicted entry refills from disk — a hit, not a miss.
        assert cache.get("b" * 64) == {"satisfiable": False}
        assert cache.stats.misses == 0
