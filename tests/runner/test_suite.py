"""Sharded suite runner: expansion, determinism, parallelism, cache reuse."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.designs import CATALOG
from repro.engines.auto import pick_engine
from repro.runner import (
    CoverageJob,
    expand_jobs,
    render_json,
    render_markdown,
    render_text,
    run_suite,
    suite_to_dict,
)

# Random-only job sets keep these tests fast (tiny designs, ~ms per shard).
RANDOM_JOBS = dict(designs=[], random_count=3, random_seed=11)


class TestExpansion:
    def test_jobs_are_sorted_and_deterministic(self):
        first = expand_jobs(["paper_example", "mal_fig2"], random_count=2, random_seed=5)
        second = expand_jobs(["mal_fig2", "paper_example"], random_count=2, random_seed=5)
        assert first == second
        assert first == sorted(first, key=CoverageJob.sort_key)

    def test_one_primary_shard_per_conjunct_plus_signals(self):
        from repro.designs import get_design

        jobs = expand_jobs(["mal_fig2"])
        problem = get_design("mal_fig2").builder()
        primaries = [job for job in jobs if job.kind == "primary"]
        signals = [job for job in jobs if job.kind == "signal"]
        assert len(primaries) == len(problem.architectural)
        assert len(signals) == len(set(problem.composed_module().interface_signals()))

    def test_no_signals_flag(self):
        jobs = expand_jobs(["mal_fig2"], include_signals=False)
        assert all(job.kind == "primary" for job in jobs)

    def test_random_jobs_carry_spec(self):
        jobs = expand_jobs(**RANDOM_JOBS)
        assert jobs, "random designs must produce shards"
        assert all(job.random_spec is not None for job in jobs)
        # The spec rebuilds the same problem anywhere (no catalog mutation).
        problem = jobs[0].problem()
        problem.validate()

    def test_engine_options_thread_through(self):
        jobs = expand_jobs(["mal_fig2"], engine="bmc", bound=7)
        assert all(job.engine == "bmc" for job in jobs)
        assert all(job.bound == 7 for job in jobs)


class TestExecution:
    def test_serial_and_parallel_agree(self):
        jobs = expand_jobs(**RANDOM_JOBS)
        serial = run_suite(jobs, workers=1, use_cache=False)
        parallel = run_suite(jobs, workers=2, use_cache=False)
        assert serial.succeeded and parallel.succeeded
        assert serial.verdicts() == parallel.verdicts()
        # Results come back in canonical job order regardless of completion order.
        assert [s.job.job_id for s in parallel.shards] == [
            s.job.job_id for s in serial.shards
        ]

    def test_warm_cache_rerun_hits_and_matches(self, tmp_path):
        jobs = expand_jobs(**RANDOM_JOBS)
        cache_dir = str(tmp_path / "cache")
        cold = run_suite(jobs, workers=2, cache_dir=cache_dir)
        warm = run_suite(jobs, workers=2, cache_dir=cache_dir)
        assert cold.verdicts() == warm.verdicts()
        # The acceptance bar is >= 90%; a full rerun should replay everything.
        assert warm.cache_hit_ratio >= 0.9
        assert warm.cache_misses == 0

    def test_serial_run_reuses_parallel_cache(self, tmp_path):
        """Workers and the serial fallback share one persistent cache."""
        jobs = expand_jobs(**RANDOM_JOBS)
        cache_dir = str(tmp_path / "cache")
        run_suite(jobs, workers=2, cache_dir=cache_dir)
        warm = run_suite(jobs, workers=1, cache_dir=cache_dir)
        assert warm.cache_hit_ratio >= 0.9

    def test_symbolic_shards_agree_and_cache_hit_on_warm_rerun(self, tmp_path):
        """`--engine symbolic` shards: explicit-agreeing verdicts, warm hits."""
        kwargs = dict(designs=[], random_count=2, random_seed=11)
        symbolic_jobs = expand_jobs(engine="symbolic", **kwargs)
        assert all(job.engine == "symbolic" for job in symbolic_jobs)
        cache_dir = str(tmp_path / "cache")
        cold = run_suite(symbolic_jobs, workers=1, cache_dir=cache_dir)
        assert cold.succeeded
        # Job ids are engine-independent, so the verdict maps must coincide.
        explicit = run_suite(expand_jobs(**kwargs), workers=1, use_cache=False)
        assert cold.verdicts() == explicit.verdicts()
        warm = run_suite(symbolic_jobs, workers=1, cache_dir=cache_dir)
        assert warm.verdicts() == cold.verdicts()
        assert warm.cache_hit_ratio >= 0.9
        assert warm.cache_misses == 0

    @pytest.mark.parametrize("design", sorted(CATALOG))
    def test_auto_primary_shards_agree_with_explicit(self, design):
        """Every ``auto`` shard is complete, agrees with explicit and was
        decided by the engine the rule picks (or by explicit behind a
        witness-less ``bmc`` run)."""
        auto = run_suite(
            expand_jobs([design], engine="auto", bound=6, include_signals=False),
            workers=1,
            use_cache=False,
        )
        explicit = run_suite(
            expand_jobs([design], include_signals=False), workers=1, use_cache=False
        )
        assert auto.succeeded
        assert auto.verdicts() == explicit.verdicts()
        for shard in auto.shards:
            assert shard.complete is True, shard.job.job_id
            picked = pick_engine(shard.features)
            fallback = picked == "bmc" and shard.winner == "explicit"
            assert shard.winner == picked or fallback, shard.job.job_id

    def test_no_cache_records_no_lookups(self):
        jobs = expand_jobs(designs=[], random_count=1, random_seed=11)
        result = run_suite(jobs, workers=1, use_cache=False)
        assert result.cache_hits == 0
        assert result.cache_misses == 0

    def test_shard_counts_only_its_own_lookups(self):
        """A suite sharing an active cache with another thread counts only
        its shards' lookups."""
        import threading

        from repro.designs import get_design
        from repro.engines import get_engine
        from repro.runner.cache import ResultCache, using_result_cache

        jobs = expand_jobs(["mal_fig2"])
        problem = get_design("paper_example").builder()
        warm, stop = threading.Event(), threading.Event()

        def other_requests():
            engine = get_engine("explicit")
            while not stop.is_set():
                engine.check_primary(problem)
                warm.set()

        with using_result_cache(ResultCache()):
            thread = threading.Thread(target=other_requests, daemon=True)
            thread.start()
            try:
                assert warm.wait(timeout=60)
                result = run_suite(jobs, workers=1)
            finally:
                stop.set()
                thread.join(timeout=60)
        assert not thread.is_alive()
        assert result.succeeded
        # Every shard asks a query of its own, once.
        assert [(s.cache_hits, s.cache_misses) for s in result.shards] == [(0, 1)] * len(jobs)

    def test_suite_stores_into_an_installed_empty_cache(self):
        from repro.runner.cache import ResultCache, using_result_cache

        jobs = expand_jobs(["mal_fig2"])
        with using_result_cache(ResultCache()) as cache:
            assert len(cache) == 0
            result = run_suite(jobs, workers=1)
        assert result.succeeded
        assert cache.stats.stores == len(cache) == len(jobs)

    def test_shard_counts_the_evictions_its_stores_cause(self):
        from repro.runner.cache import ResultCache, using_result_cache

        jobs = expand_jobs(["mal_fig2"])
        with using_result_cache(ResultCache(memory_limit=1)) as cache:
            result = run_suite(jobs, workers=1)
        assert result.succeeded
        # One entry fits: each shard's store evicts the previous shard's.
        assert [s.cache_stores for s in result.shards] == [1] * len(jobs)
        assert [s.cache_evictions for s in result.shards] == [0] + [1] * (len(jobs) - 1)
        assert cache.stats.evictions == len(jobs) - 1

    def test_error_shard_does_not_kill_the_suite(self):
        bad = CoverageJob(design="no_such_design", kind="primary", target="0", index=0)
        jobs = expand_jobs(designs=[], random_count=1, random_seed=11) + [bad]
        result = run_suite(jobs, workers=1, use_cache=False)
        statuses = {shard.job.job_id: shard.status for shard in result.shards}
        assert statuses["no_such_design/primary/0"] == "error"
        assert not result.succeeded
        assert result.counts()["error"] == 1
        errored = [s for s in result.shards if s.status == "error"][0]
        assert "no_such_design" in errored.detail
        assert errored.verdict is None

    def test_per_shard_timeout(self):
        # paper_example's primary question takes far longer than 1 ms.
        jobs = expand_jobs(["paper_example"], include_signals=False)
        result = run_suite(jobs, workers=1, use_cache=False, shard_timeout=0.001)
        assert [shard.status for shard in result.shards] == ["timeout"]
        assert result.counts()["timeout"] == 1

    def test_timeout_in_worker_process(self):
        jobs = expand_jobs(["paper_example"], include_signals=False)
        result = run_suite(jobs, workers=2, use_cache=False, shard_timeout=0.001)
        assert [shard.status for shard in result.shards] == ["timeout"]

    def test_parallel_run_leaves_no_worker_processes(self):
        before = set(multiprocessing.active_children())
        result = run_suite(expand_jobs(**RANDOM_JOBS), workers=2, use_cache=False)
        assert result.succeeded
        assert [p for p in multiprocessing.active_children() if p not in before] == []


class TestDeterminism:
    def test_verdicts_reproducible_across_hash_seeds(self):
        """Workers are separate processes with different PYTHONHASHSEEDs.

        Shard verdicts (and the witness-driven analyses behind them) must not
        depend on set/dict iteration order, or a parallel run would disagree
        with the serial fallback.  This runs the same random-design suite in
        subprocesses with different hash seeds and diffs the verdict maps.
        """
        import os
        import subprocess
        import sys

        script = (
            "import json\n"
            "from repro.runner import expand_jobs, run_suite\n"
            "jobs = expand_jobs([], random_count=3, random_seed=11)\n"
            "result = run_suite(jobs, workers=1, use_cache=False)\n"
            "print(json.dumps(result.verdicts(), sort_keys=True))\n"
        )
        outputs = set()
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1, "suite verdicts depend on PYTHONHASHSEED"


class TestReports:
    @pytest.fixture(scope="class")
    def result(self):
        return run_suite(expand_jobs(**RANDOM_JOBS), workers=1)

    def test_json_report_shape(self, result):
        payload = json.loads(render_json(result))
        assert payload["shard_count"] == len(result.shards)
        assert payload["counts"]["ok"] == len(result.shards)
        assert set(payload["cache"]) == {
            "enabled", "dir", "hits", "misses", "stores", "evictions", "hit_ratio",
        }
        assert payload["verdicts"] == {
            key: value for key, value in sorted(result.verdicts().items())
        }
        assert payload["shards"][0]["job"] == result.shards[0].job.job_id

    def test_markdown_report(self, result):
        text = render_markdown(result)
        assert text.startswith("# Coverage suite report")
        assert text.count("|") > len(result.shards)

    def test_text_report(self, result):
        text = render_text(result)
        assert "coverage suite" in text
        assert f"{len(result.shards)} shards" in text

    def test_suite_to_dict_is_json_safe(self, result):
        json.dumps(suite_to_dict(result))


class TestCli:
    def test_cli_suite_json(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "report.json"
        code = main(
            [
                "suite",
                "--random",
                "2",
                "--seed",
                "11",
                "--designs",
                "mal_fig2",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--report",
                "json",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["counts"]["ok"] == payload["shard_count"]

        # Warm rerun through the CLI: >= 90% hits, identical verdicts.
        output2 = tmp_path / "report2.json"
        code = main(
            [
                "suite",
                "--random",
                "2",
                "--seed",
                "11",
                "--designs",
                "mal_fig2",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--report",
                "json",
                "--output",
                str(output2),
            ]
        )
        assert code == 0
        warm = json.loads(output2.read_text())
        assert warm["verdicts"] == payload["verdicts"]
        assert warm["cache"]["hit_ratio"] >= 0.9

    def test_cli_suite_no_cache_text(self, capsys):
        from repro.cli import main

        code = main(
            ["suite", "--random", "1", "--seed", "11", "--designs", "mal_fig2",
             "--no-cache", "--no-signals"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache : disabled" in out

    def test_cli_suite_symbolic_engine(self, capsys):
        from repro.cli import main

        code = main(
            ["suite", "--random", "1", "--seed", "11", "--designs", "mal_fig2",
             "--no-cache", "--no-signals", "--engine", "symbolic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status: 2 ok, 0 error, 0 timeout" in out

    def test_cli_suite_exits_nonzero_on_failing_shards(self, tmp_path, capsys):
        """CI contract: errored/timed-out shards fail the run loudly."""
        from repro.cli import main

        output = tmp_path / "report.json"
        code = main(
            ["suite", "--designs", "paper_example", "--no-cache", "--no-signals",
             "--timeout", "0.001", "--report", "json", "--output", str(output)]
        )
        assert code == 1
        captured = capsys.readouterr()
        # The failing shard is named on stderr even though the report went to
        # a file, so CI logs show *what* failed without opening artifacts.
        assert "suite FAILED shard paper_example/primary/0" in captured.err
        assert "timeout" in captured.err
        payload = json.loads(output.read_text())
        assert payload["counts"]["timeout"] == 1
