"""Result cache: structural fingerprints, persistence, engine integration."""

from __future__ import annotations

import contextvars
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.designs import build_mal, build_simple_latch
from repro.engines import get_engine
from repro.logic.boolexpr import and_, not_, or_, var, xor
from repro.ltl.parser import parse
from repro.ltl.traces import LassoTrace
from repro.obs import metrics
from repro.rtl.netlist import Module
from repro.runner.cache import (
    CacheStats,
    ResultCache,
    cache_dir_stats,
    cache_for_dir,
    clear_cache_dir,
    counting_lookups,
    decode_trace,
    encode_trace,
    expr_fingerprint,
    formula_fingerprint,
    module_fingerprint,
    query_key,
    using_result_cache,
)


def _example_expr():
    a, b, c = var("a"), var("b"), var("c")
    return or_(and_(a, not_(b)), xor(b, c), and_(a, b, c))


class TestFingerprints:
    def test_expr_fingerprint_is_structural(self):
        assert expr_fingerprint(_example_expr()) == expr_fingerprint(_example_expr())

    def test_expr_fingerprint_distinguishes_structure(self):
        a, b = var("a"), var("b")
        assert expr_fingerprint(and_(a, b)) != expr_fingerprint(or_(a, b))
        assert expr_fingerprint(var("a")) != expr_fingerprint(var("b"))
        assert expr_fingerprint(a) != expr_fingerprint(not_(a))

    def test_expr_fingerprint_shared_subdag(self):
        """A deep DAG with heavy sharing fingerprints in linear time/size."""
        expr = var("x0")
        for index in range(1, 200):
            expr = and_(or_(expr, var(f"x{index}")), expr)
        assert len(expr_fingerprint(expr)) == 64

    def test_formula_fingerprint_round(self):
        first = parse("G(r1 -> X(!d2 U d1))")
        second = parse("G(r1 -> X(!d2 U d1))")
        other = parse("G(r1 -> X(!d1 U d2))")
        assert formula_fingerprint(first) == formula_fingerprint(second)
        assert formula_fingerprint(first) != formula_fingerprint(other)

    def test_module_fingerprint_ignores_name_not_structure(self):
        left = build_simple_latch("one")
        right = build_simple_latch("two")
        assert module_fingerprint(left) == module_fingerprint(right)

        changed = Module("three")
        changed.add_input("a")
        changed.add_input("b")
        changed.add_output("c")
        changed.add_register("c", or_(var("a"), var("b")), init=False)
        assert module_fingerprint(changed) != module_fingerprint(left)

    def test_module_fingerprint_sensitive_to_init(self):
        hot = Module("m")
        hot.add_input("a")
        hot.add_register("q", var("a"), init=True)
        cold = Module("m")
        cold.add_input("a")
        cold.add_register("q", var("a"), init=False)
        assert module_fingerprint(hot) != module_fingerprint(cold)

    def test_query_key_components_matter(self):
        module = build_simple_latch()
        formulas = [parse("G(c -> X c)")]
        base = query_key("k", module, formulas, engine="explicit")
        assert base != query_key("k2", module, formulas, engine="explicit")
        assert base != query_key("k", module, formulas, engine="bmc")
        assert base != query_key("k", module, formulas, engine="explicit", bound=8)
        assert base != query_key("k", module, formulas, engine="explicit", extra=("members=bmc",))
        assert base == query_key("k", module, formulas, engine="explicit")

    def test_fingerprints_stable_across_hash_seeds(self):
        """Suite workers must agree on keys regardless of PYTHONHASHSEED."""
        script = (
            "from repro.designs import build_mal\n"
            "from repro.runner.cache import query_key\n"
            "problem = build_mal()\n"
            "key = query_key('t', problem.composed_module(),"
            " problem.all_rtl_formulas() + problem.architectural,"
            " engine='explicit')\n"
            "print(key)\n"
        )
        keys = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            output = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            keys.add(output.stdout.strip())
        assert len(keys) == 1


class TestTraceCodec:
    def test_round_trip(self):
        trace = LassoTrace(
            [{"a": True, "b": False}],
            [{"a": False, "b": True}, {"a": True, "b": True}],
        )
        decoded = decode_trace(json.loads(json.dumps(encode_trace(trace))))
        assert decoded == trace

    def test_none_passthrough(self):
        assert encode_trace(None) is None
        assert decode_trace(None) is None


class TestResultCache:
    def test_memory_hit_miss_stats(self):
        cache = ResultCache()
        before = metrics().snapshot()["counters"]
        with counting_lookups(CacheStats()) as lookups:
            assert cache.get("k") is None
            cache.put("k", {"satisfiable": False})
            assert cache.get("k") == {"satisfiable": False}
        assert lookups == CacheStats(hits=1, misses=1, stores=1)
        after = metrics().snapshot()["counters"]
        # The process metrics count the same lookups (nothing else runs here).
        for field in ("hits", "misses", "stores"):
            name = f"result_cache.{field}"
            assert after[name] - before.get(name, 0) == 1, name

    def test_threads_in_copied_contexts_count_into_the_jobs_counter(self):
        """Helper threads started in a copy of the job's context (as portfolio
        members are) share its counter, which counts every thread's lookups."""
        cache = ResultCache()
        together = threading.Barrier(8)

        def look_up():
            together.wait(timeout=30)
            for _ in range(200):
                cache.get("k")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with counting_lookups(CacheStats()) as lookups:
                threads = [
                    threading.Thread(target=contextvars.copy_context().run, args=(look_up,))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lookups == CacheStats(misses=8 * 200)

    def test_disk_persistence_across_instances(self, tmp_path):
        first = ResultCache(str(tmp_path / "cache"))
        key = "ab" + "0" * 62
        first.put(key, {"satisfiable": True, "witness": None})
        assert cache_dir_stats(str(tmp_path / "cache"))["entries"] == 1

        second = ResultCache(str(tmp_path / "cache"))
        with counting_lookups(CacheStats()) as lookups:
            assert second.get(key) == {"satisfiable": True, "witness": None}
        assert lookups.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "cd" + "1" * 62
        path = os.path.join(str(tmp_path), key[:2], key + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with counting_lookups(CacheStats()) as lookups:
            assert cache.get(key) is None
        assert lookups.misses == 1

    def test_cache_for_dir_is_shared(self, tmp_path):
        assert cache_for_dir(str(tmp_path)) is cache_for_dir(str(tmp_path))

    def test_directory_holds_only_entries(self, tmp_path):
        """Stats count, and clear deletes, only ``<key[:2]>/<key>.json`` files."""
        directory = tmp_path / "cache"
        key = "ef" + "2" * 62
        ResultCache(str(directory)).put(key, {"satisfiable": True})
        foreign = [
            directory / "notes.json",
            directory / "reports" / "suite.json",
            directory / ".stats.json",
            directory / ".stats.lock",
            directory / "ef" / "not-a-key.json",
            directory / "ab" / (key + ".json"),  # a key filed under another prefix
        ]
        for path in foreign:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}", encoding="utf-8")
        stats = cache_dir_stats(str(directory))
        assert stats["entries"] == 1
        assert stats["size_bytes"] == (directory / "ef" / (key + ".json")).stat().st_size
        assert set(stats) == {"dir", "exists", "entries", "size_bytes"}
        assert clear_cache_dir(str(directory)) == 1
        assert not (directory / "ef" / (key + ".json")).exists()
        assert all(path.exists() for path in foreign)
        assert cache_dir_stats(str(directory))["entries"] == 0


class TestEngineIntegration:
    def test_explicit_engine_replays_decided_queries(self):
        problem = build_mal()
        engine = get_engine("explicit")
        with using_result_cache(ResultCache()), counting_lookups(CacheStats()) as lookups:
            cold = engine.check_primary(problem)
            warm = engine.check_primary(problem)
        assert cold.covered == warm.covered
        assert lookups.hits == 1
        assert lookups.misses == 1

    def test_bmc_engine_replays_with_witness(self):
        problem = build_mal()
        target = problem.architectural[0]
        engine = get_engine("bmc", max_bound=6)
        module = problem.composed_module()
        from repro.ltl.ast import Not

        formulas = [Not(target)] + problem.all_rtl_formulas()
        with using_result_cache(ResultCache()), counting_lookups(CacheStats()) as lookups:
            cold = engine.find_run(module, formulas)
            warm = engine.find_run(module, formulas)
        assert warm.satisfiable == cold.satisfiable
        if cold.satisfiable:
            assert warm.witness is not None
            assert warm.witness.stem == cold.witness.stem
            assert warm.witness.loop == cold.witness.loop
        assert lookups.hits >= 1

    @pytest.mark.parametrize("engine_name", ["explicit", "bmc", "symbolic", "portfolio", "auto"])
    def test_stored_entry_keeps_what_replay_reads(self, engine_name):
        """Every entry a run stores (a race's member entries included) holds
        exactly the fields replay reads, with an explicit completeness, and
        replays to the same verdict."""
        problem = build_mal()
        engine = get_engine(engine_name, max_bound=6)
        cache = ResultCache()
        with using_result_cache(cache):
            first = engine.check_primary(problem)
            with counting_lookups(CacheStats()) as lookups:
                second = engine.check_primary(problem)
        assert cache._memory
        for payload in cache._memory.values():
            assert sorted(payload) == ["bound", "complete", "satisfiable", "winner", "witness"]
            assert isinstance(payload["complete"], bool)
        assert lookups.hits == 1
        assert (second.covered, second.complete, second.winner) == (
            first.covered, first.complete, first.winner
        )

    @pytest.mark.parametrize(
        "engine_name, complete", [("explicit", True), ("bmc", False), ("symbolic", True)]
    )
    def test_entry_without_completeness_replays_with_the_engines_own(
        self, engine_name, complete
    ):
        """An entry in the older shape (``complete: None``, plus ``loop_start``,
        ``elapsed_seconds``, ``features`` and ``timings``) replays with the
        engine's own completeness."""
        problem = build_mal()
        engine = get_engine(engine_name, max_bound=6)
        cache = ResultCache()
        with using_result_cache(cache):
            engine.check_primary(problem)
        [key] = list(cache._memory)
        cache.put(key, {
            "satisfiable": False,
            "witness": None,
            "bound": 6 if engine_name == "bmc" else None,
            "loop_start": None,
            "elapsed_seconds": 0.25,
            "complete": None,
            "winner": None,
            "features": {"coi_size": 4, "registers": 2, "automaton_states": 32, "bound": 6},
            "timings": {"engine_run": 0.25},
        })
        with using_result_cache(cache), counting_lookups(CacheStats()) as lookups:
            verdict = engine.check_primary(problem)
        assert lookups.hits == 1
        assert verdict.covered is True
        assert verdict.complete is complete

    def test_bound_is_part_of_the_key(self):
        """A bounded 'no witness' verdict must never answer a larger bound."""
        module = build_simple_latch()
        formulas = [parse("F(a & b & c)")]
        with using_result_cache(ResultCache()), counting_lookups(CacheStats()) as lookups:
            get_engine("bmc", max_bound=2).find_run(module, formulas)
            get_engine("bmc", max_bound=6).find_run(module, formulas)
        # Two lookups, one per bound, under distinct keys.
        assert (lookups.hits, lookups.misses) == (0, 2)

    def test_no_cache_active_means_no_caching(self):
        problem = build_mal()
        engine = get_engine("explicit")
        with using_result_cache(None):
            verdict = engine.check_primary(problem)
        assert verdict.covered is True


class TestAnalysisCaching:
    def test_analyze_with_cache_dir_warm_rerun(self, tmp_path):
        from repro.core import CoverageOptions, analyze_problem
        from repro.designs import build_paper_example

        options = CoverageOptions(
            max_witnesses=1, unfold_depth=3, max_closure_checks=2, max_reported_gaps=1
        )
        problem = build_paper_example()
        cache = cache_for_dir(str(tmp_path / "cache"))
        with using_result_cache(cache):
            with counting_lookups(CacheStats()) as cold_lookups:
                cold = analyze_problem(problem, options)
            with counting_lookups(CacheStats()) as warm_lookups:
                warm = analyze_problem(problem, options)
        assert [a.covered for a in cold.analyses] == [a.covered for a in warm.analyses]
        assert cold_lookups.stores > 0
        # The warm run decided everything from the cache: no new stores.
        assert warm_lookups.stores == 0

    def test_masked_cache_sees_no_lookups(self):
        from repro.core import CoverageOptions, find_coverage_gap
        from repro.designs import build_mal

        problem = build_mal()
        options = CoverageOptions(max_witnesses=1, unfold_depth=3)
        with using_result_cache(ResultCache()) as cache:
            with using_result_cache(None), counting_lookups(CacheStats()) as lookups:
                find_coverage_gap(problem, problem.architectural[0], options)
        assert lookups == CacheStats()
        assert len(cache) == 0
