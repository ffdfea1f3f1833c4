"""Cross-engine agreement: every engine, identical verdicts.

This promotes the invariant previously only exercised by
``benchmarks/bench_backends.py`` into the tier-1 suite: on every catalogued
design the explicit-state, bounded SAT and symbolic BDD fixpoint coverage
engines must return the catalogued coverage verdict.
"""

import re

import pytest

from repro.core import CoverageOptions, primary_coverage_check
from repro.designs import get_design
from repro.engines import (
    BmcEngine,
    ExplicitEngine,
    SymbolicEngine,
    engine_from_options,
    engine_names,
    get_engine,
)

_DESIGNS = ["mal_fig2", "mal_fig4", "paper_example"]
_MATRIX_DESIGNS = _DESIGNS + ["telemetry_bank", "intel_like"]
_ENGINES = ["explicit", "bmc"]
_BMC_BOUND = 6


@pytest.fixture(scope="module")
def problems():
    return {name: get_design(name).builder() for name in _MATRIX_DESIGNS}


class TestEngineRegistry:
    def test_known_names(self):
        assert set(engine_names()) == {"explicit", "bmc", "symbolic", "portfolio", "auto"}

    def test_lookup(self):
        assert isinstance(get_engine("explicit"), ExplicitEngine)
        assert isinstance(get_engine("bmc"), BmcEngine)
        assert isinstance(get_engine("symbolic"), SymbolicEngine)

    @pytest.mark.parametrize("name", ["explicit", "bmc", "symbolic", "portfolio", "auto"])
    def test_engine_reports_its_registered_name(self, name):
        engine = get_engine(name, max_bound=6)
        assert engine.name == name
        verdict = engine.check_primary(get_design("mal_fig4").builder())
        assert verdict.engine == name

    @pytest.mark.parametrize("alias", ["mc", "nested-dfs", "sym", "bdd-fixpoint", "race", "learned"])
    def test_removed_alias_rejected_with_known_names(self, alias, capsys):
        from repro.cli import main

        message = f"unknown coverage engine {alias!r} (known: {', '.join(engine_names())})"
        with pytest.raises(KeyError, match=re.escape(message)):
            get_engine(alias)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "mal_fig4", "--engine", alias])
        assert excinfo.value.code == 2
        assert f"invalid choice: {alias!r}" in capsys.readouterr().err

    def test_unknown_keyword_rejected(self):
        # Every factory takes exactly max_bound: a misspelt
        # option fails loudly instead of running with the defaults.
        for name in engine_names():
            with pytest.raises(TypeError):
                get_engine(name, max_bnd=4)

    def test_bmc_bound_forwarding(self):
        assert get_engine("bmc", max_bound=4).max_bound == 4

    def test_symbolic_kwarg_forwarding(self, monkeypatch):
        import repro.mc.symbolic as symbolic
        from repro.runner.cache import using_result_cache

        engine = get_engine("symbolic", max_bound=4)
        assert isinstance(engine, SymbolicEngine)
        assert engine.max_bound == 4
        # Every witness is replayed on the simulator before it is reported.
        replayed = []
        replay = symbolic._replay_witness
        monkeypatch.setattr(
            symbolic, "_replay_witness", lambda *args: replayed.append(replay(*args))
        )
        with using_result_cache(None):
            verdict = engine.check_primary(get_design("mal_fig4").builder())
        assert not verdict.covered and verdict.witness is not None
        assert len(replayed) == 1

    def test_unknown_engine_raises(self):
        with pytest.raises(KeyError):
            get_engine("qbf")

    def test_explicit_ignores_bmc_kwargs(self):
        assert isinstance(get_engine("explicit", max_bound=4), ExplicitEngine)


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("design", _MATRIX_DESIGNS)
class TestMatrixAgreement:
    def test_verdict_matches_catalog(self, problems, design, engine):
        entry = get_design(design)
        engine_instance = get_engine(engine, max_bound=_BMC_BOUND)
        verdict = engine_instance.check_primary(problems[design])
        assert verdict.covered == entry.expected_covered
        assert verdict.engine == engine
        # Witness runs accompany every negative verdict, for either engine;
        # a refutation is definitive regardless of engine.
        if not verdict.covered:
            assert verdict.witness is not None
            assert verdict.complete
        else:
            # A covered verdict is a full proof only for the complete engine.
            assert verdict.complete == (engine == "explicit")


class TestSymbolicAgreement:
    """The symbolic engine matches the catalogued verdict on every design."""

    @pytest.mark.parametrize("design", _DESIGNS)
    def test_verdict_matches_catalog(self, problems, design):
        entry = get_design(design)
        verdict = get_engine("symbolic").check_primary(problems[design])
        assert verdict.covered == entry.expected_covered
        assert verdict.engine == "symbolic"
        # Complete in both directions: proofs when covered, replay-checked
        # witnesses when not.
        assert verdict.complete
        if not verdict.covered:
            assert verdict.witness is not None

    def test_closure_check_routes_symbolically(self, problems):
        problem = problems["mal_fig4"]
        engine = get_engine("symbolic")
        assert engine.is_covered_with(problem, [problem.architectural_conjunction()])

    @pytest.mark.parametrize("design", ["intel_like", "mal_table1", "amba_ahb"])
    def test_symbolic_agrees_with_explicit_on_large_catalog_designs(self, design):
        """Completes the catalog sweep: symbolic == explicit, conjunct by conjunct."""
        problem = get_design(design).builder()
        explicit = get_engine("explicit")
        symbolic = get_engine("symbolic")
        for target in problem.architectural:
            reference = explicit.check_primary(problem, architectural=target)
            fixpoint = symbolic.check_primary(problem, architectural=target)
            assert reference.covered == fixpoint.covered, (design, str(target))


class TestOptionsRouting:
    """CoverageOptions carries the same selection through the core layer."""

    @pytest.mark.parametrize("engine", _ENGINES + ["symbolic"])
    def test_primary_coverage_check_routes_engine(self, problems, engine):
        options = CoverageOptions(engine=engine, bmc_max_bound=_BMC_BOUND)
        result = primary_coverage_check(problems["mal_fig4"], options=options)
        assert not result.covered
        assert result.engine == engine
        # A refutation is definitive regardless of engine.
        assert result.complete

    def test_bounded_covered_verdict_is_incomplete(self, problems):
        options = CoverageOptions(engine="bmc", bmc_max_bound=_BMC_BOUND)
        result = primary_coverage_check(problems["mal_fig2"], options=options)
        assert result.covered
        assert not result.complete

    @pytest.mark.parametrize("engine", _ENGINES)
    def test_is_covered_with_routes_engine(self, problems, engine):
        problem = problems["mal_fig4"]
        options = CoverageOptions(engine=engine, bmc_max_bound=_BMC_BOUND)
        # Adding the architectural intent itself always closes the gap.
        closes = engine_from_options(options).is_covered_with(
            problem, [problem.architectural_conjunction()]
        )
        assert closes

    def test_engines_agree_on_gap_analysis(self, problems, fast_options):
        from dataclasses import replace

        from repro.core import find_coverage_gap

        problem = problems["mal_fig4"]
        architectural = problem.architectural[0]
        explicit = find_coverage_gap(
            problem, architectural, replace(fast_options, engine="explicit")
        )
        bounded = find_coverage_gap(
            problem,
            architectural,
            replace(fast_options, engine="bmc", bmc_max_bound=_BMC_BOUND),
        )
        symbolic = find_coverage_gap(
            problem, architectural, replace(fast_options, engine="symbolic")
        )
        assert explicit.covered == bounded.covered == symbolic.covered == False  # noqa: E712
        assert explicit.primary.engine == "explicit"
        assert bounded.primary.engine == "bmc"
        assert symbolic.primary.engine == "symbolic"
        # Positive sub-verdicts (gap closure) are proofs on the complete
        # engines, bounded on BMC — and the report says so.
        assert explicit.complete
        assert symbolic.complete
        assert not bounded.complete
        assert "bounded" not in explicit.describe()
        assert "bounded" not in symbolic.describe()
        assert "bounded" in bounded.describe()
