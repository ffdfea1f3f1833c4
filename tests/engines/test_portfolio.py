"""The racing portfolio engine: verdicts, winners, cancellation, caching."""

import pytest

from repro.designs import get_design
from repro.engines import (
    CancelToken,
    Cancelled,
    ExplicitEngine,
    PortfolioEngine,
    SymbolicEngine,
    check_cancelled,
    get_engine,
    using_cancel_token,
)
from repro.runner.cache import ResultCache, using_result_cache

_BMC_BOUND = 6
_DESIGNS = ["mal_fig2", "mal_fig4", "paper_example", "telemetry_bank"]


@pytest.fixture
def no_race_threads(monkeypatch):
    """No portfolio member thread can start, so every race falls back to the
    serial ladder (the path a thread-starved process takes)."""
    import threading

    real_start = threading.Thread.start

    def failing_start(self):
        if self.name.startswith("portfolio-"):
            raise RuntimeError("can't start new thread")
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", failing_start)


@pytest.fixture
def complete_members_fail(monkeypatch):
    """The explicit and symbolic members raise, so only bmc can answer: the
    path to the bounded fallback."""

    def fail(self, problem):
        raise RuntimeError(f"{self.name} unavailable")

    monkeypatch.setattr(ExplicitEngine, "_find_run", fail)
    monkeypatch.setattr(SymbolicEngine, "_find_run", fail)


def _primary_run(engine, problem):
    """The engine's raw result on a design's primary coverage query."""
    from repro.ltl.ast import Not

    return engine.find_run(
        problem.composed_module(),
        [Not(problem.architectural_conjunction())] + problem.all_rtl_formulas(),
    )


class TestCancellation:
    def test_token_starts_clear(self):
        token = CancelToken()
        assert not token.cancelled
        with using_cancel_token(token):
            check_cancelled()  # must not raise

    def test_cancelled_token_raises_at_poll(self):
        token = CancelToken()
        token.cancel()
        with using_cancel_token(token):
            with pytest.raises(Cancelled):
                check_cancelled()

    def test_no_token_never_raises(self):
        check_cancelled()

    def test_token_scoping_restores_previous(self):
        outer, inner = CancelToken(), CancelToken()
        inner.cancel()
        with using_cancel_token(outer):
            with using_cancel_token(inner):
                with pytest.raises(Cancelled):
                    check_cancelled()
            check_cancelled()  # outer token is clear again


class TestPollCounters:
    def test_cancel_observed_at_first_poll(self):
        # Cooperative shutdown: a search loop dies at its first poll after
        # the cancel, so no poll past the cancellation point returns.
        token = CancelToken()
        polls = 0
        with using_cancel_token(token):
            with pytest.raises(Cancelled):
                while True:
                    check_cancelled()
                    polls += 1
                    if polls == 3:
                        token.cancel()
        assert polls == 3

    def test_parallel_race_reports_loser_progress(self, monkeypatch):
        # A real race: all three members start in their own threads, and the
        # losers observe the winner's cancellation, so none of them is still
        # running once the race returns.
        import threading

        started = []
        real_start = threading.Thread.start

        def recording_start(self):
            started.append(self)
            return real_start(self)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        problem = get_design("paper_example").builder()
        engine = get_engine("portfolio", max_bound=_BMC_BOUND)
        compiled = engine.compile(
            problem.composed_module(), list(problem.rtl_properties)
        )
        result = engine.find_run(compiled)
        members = [thread for thread in started if thread.name.startswith("portfolio-")]
        assert sorted(thread.name for thread in members) == [
            "portfolio-bmc", "portfolio-explicit", "portfolio-symbolic"
        ]
        assert not any(thread.is_alive() for thread in members)
        assert result.winner in ("explicit", "bmc", "symbolic")


class TestRegistry:
    def test_registered(self):
        assert isinstance(get_engine("portfolio"), PortfolioEngine)

    def test_kwarg_forwarding(self):
        engine = get_engine("portfolio", max_bound=4, slicing=False)
        assert engine.max_bound == 4
        assert engine.slicing is False


@pytest.mark.parametrize("design", _DESIGNS)
class TestVerdicts:
    def test_matches_catalog_and_records_winner(self, design):
        entry = get_design(design)
        verdict = get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(
            entry.builder()
        )
        assert verdict.covered == entry.expected_covered
        assert verdict.engine == "portfolio"
        assert verdict.winner in ("explicit", "bmc", "symbolic")
        assert verdict.complete
        if not verdict.covered:
            assert verdict.witness is not None

    def test_serial_ladder_agrees(self, design, no_race_threads):
        entry = get_design(design)
        verdict = PortfolioEngine(max_bound=_BMC_BOUND).check_primary(entry.builder())
        assert verdict.covered == entry.expected_covered
        assert verdict.winner in ("explicit", "bmc", "symbolic")


class TestDecisiveness:
    def test_witness_from_bounded_member_is_decisive(self, complete_members_fail):
        # A gap design: bmc's satisfiable verdict is concrete and final.
        problem = get_design("mal_fig4").builder()
        verdict = PortfolioEngine(max_bound=_BMC_BOUND).check_primary(problem)
        assert not verdict.covered
        assert verdict.winner == "bmc"
        assert verdict.complete  # refutations are definitive

    def test_bounded_unsat_fallback_is_incomplete(self, complete_members_fail):
        # A covered design with only the bounded member answering: the race
        # has no decisive verdict and must fall back to the bounded one,
        # saying so.
        problem = get_design("mal_fig2").builder()
        verdict = PortfolioEngine(max_bound=_BMC_BOUND).check_primary(problem)
        assert verdict.covered
        assert verdict.winner == "bmc"
        assert not verdict.complete

    def test_complete_member_beats_bounded_fallback(self, no_race_threads, monkeypatch):
        # The ladder's first rung fails and bmc's bounded "covered" is not
        # decisive, so the ladder climbs on to the complete symbolic member.
        def fail(self, problem):
            raise RuntimeError("explicit unavailable")

        monkeypatch.setattr(ExplicitEngine, "_find_run", fail)
        problem = get_design("mal_fig2").builder()
        verdict = PortfolioEngine(max_bound=_BMC_BOUND).check_primary(problem)
        assert verdict.covered
        assert verdict.winner == "symbolic"
        assert verdict.complete


    def test_race_without_any_verdict_names_every_member(self, monkeypatch):
        """With every member failing, the race still ends once all three have
        reported, and names each of them, while threads switch every few
        bytecodes (a lost update would leave the race waiting)."""
        import sys

        from repro.engines import BmcEngine
        from repro.engines.cancel import cancel_after

        def fail(self, problem):
            raise RuntimeError(f"{self.name} unavailable")

        for engine_class in (ExplicitEngine, BmcEngine, SymbolicEngine):
            monkeypatch.setattr(engine_class, "_find_run", fail)
        problem = get_design("mal_fig2").builder()
        engine = PortfolioEngine(max_bound=_BMC_BOUND)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cancel_after(30):
                for _ in range(30):
                    with pytest.raises(RuntimeError, match="every portfolio member failed") as info:
                        _primary_run(engine, problem)
                    for name in ("explicit", "bmc", "symbolic"):
                        assert f"{name}=error: RuntimeError: {name} unavailable" in str(info.value)
        finally:
            sys.setswitchinterval(interval)


class TestCaching:
    def test_cached_replay_preserves_winner_and_completeness(self):
        problem = get_design("mal_fig4").builder()
        engine = get_engine("portfolio", max_bound=_BMC_BOUND)
        with using_result_cache(ResultCache()):
            first = engine.check_primary(problem)
            second = engine.check_primary(problem)
        assert first.covered == second.covered
        assert second.winner == first.winner
        assert second.complete == first.complete

    def test_member_set_is_part_of_the_cache_key(self):
        # The portfolio keys its entries with its fixed member set, so keys
        # written while the set was configurable still hit, and bmc's bounded
        # entry of the same query never shadows the race's complete proof.
        assert PortfolioEngine()._cache_extra() == ("members=explicit,bmc,symbolic",)
        problem = get_design("mal_fig2").builder()
        cache = ResultCache()
        with using_result_cache(cache):
            bounded = get_engine("bmc", max_bound=_BMC_BOUND).check_primary(problem)
            stores = cache.stats.stores
            full = get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(problem)
        assert not bounded.complete
        assert full.complete
        assert cache.stats.stores > stores

    def test_race_populates_member_cache_keys(self):
        # The winning member's own cache entry must exist so a later pinned
        # run (--engine <winner>) replays instead of re-searching.
        problem = get_design("mal_fig4").builder()
        cache = ResultCache()
        with using_result_cache(cache):
            verdict = get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(problem)
            winner = verdict.winner
            before = cache.stats.hits
            pinned = get_engine(winner, max_bound=_BMC_BOUND).check_primary(problem)
        assert pinned.covered == verdict.covered
        assert cache.stats.hits > before


class TestMode:
    @pytest.mark.parametrize("mode", ["race", "ladder"])
    def test_race_span_records_mode(self, mode, request):
        from repro.obs import add_sink, remove_sink

        if mode == "ladder":
            request.getfixturevalue("no_race_threads")

        class Sink:
            def __init__(self):
                self.records = []

            def record(self, record):
                self.records.append(record)

        sink = Sink()
        add_sink(sink)
        try:
            result = _primary_run(
                PortfolioEngine(max_bound=_BMC_BOUND), get_design("mal_fig2").builder()
            )
        finally:
            remove_sink(sink)
        [race] = [r for r in sink.records if r.name == "portfolio_race"]
        assert race.attrs["winner"] == result.winner
        assert "sched" not in race.attrs


class TestLadderWinner:
    """Regression: the serial ladder must report winners everywhere the
    parallel race does — on the verdict, in suite rows and in cache payloads
    (including the bounded-fallback rung)."""

    def test_ladder_winner_on_verdict(self, no_race_threads):
        for design in _DESIGNS:
            entry = get_design(design)
            engine = PortfolioEngine(max_bound=_BMC_BOUND)
            verdict = engine.check_primary(entry.builder())
            assert verdict.winner in ("explicit", "bmc", "symbolic"), design

    def test_ladder_bounded_fallback_still_names_winner(
        self, no_race_threads, complete_members_fail
    ):
        problem = get_design("mal_fig2").builder()
        engine = PortfolioEngine(max_bound=_BMC_BOUND)
        # The primary coverage query of a covered design: unsatisfiable, so
        # the bounded member can only answer "unsat up to the bound".
        result = _primary_run(engine, problem)
        assert result.winner == "bmc"
        assert result.complete is False

    def test_ladder_winner_survives_cache_replay(self, no_race_threads):
        problem = get_design("mal_fig2").builder()
        engine = PortfolioEngine(max_bound=_BMC_BOUND)
        with using_result_cache(ResultCache()) as cache:
            first = _primary_run(engine, problem)
            hits = cache.stats.hits
            second = _primary_run(engine, problem)
        assert first.winner is not None
        assert cache.stats.hits == hits + 1
        assert second.winner == first.winner

    def test_ladder_winner_in_suite_rows(self):
        from repro.runner import expand_jobs, run_suite

        jobs = [
            job
            for job in expand_jobs(
                ["mal_fig2"], engine="portfolio", bound=_BMC_BOUND
            )
            if job.kind == "primary"
        ]
        result = run_suite(jobs, workers=1, use_cache=False)
        assert result.succeeded
        for shard in result.shards:
            row = shard.row()
            assert row["winner"] in ("explicit", "bmc", "symbolic")

    def test_thread_start_failure_falls_back_with_winner(self, monkeypatch):
        """Mid-start thread failures must stop started members, ladder, and
        still report a winner."""
        import threading

        real_start = threading.Thread.start
        calls = {"n": 0}

        def flaky_start(self):
            if self.name.startswith("portfolio-"):
                calls["n"] += 1
                if calls["n"] >= 2:
                    raise RuntimeError("can't start new thread")
            return real_start(self)

        monkeypatch.setattr(threading.Thread, "start", flaky_start)
        entry = get_design("mal_fig2")
        result = _primary_run(
            get_engine("portfolio", max_bound=_BMC_BOUND), entry.builder()
        )
        assert (not result.satisfiable) == entry.expected_covered
        assert result.winner in ("explicit", "bmc", "symbolic")
        assert calls["n"] >= 2
