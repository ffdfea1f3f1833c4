"""The rule-scheduled ``auto`` engine: its threshold and its choice on every
catalog conjunct, the explicit fallback behind ``bmc``, agreement with the
explicit engine, both sides of the slicing rule and cache identity."""

import inspect

import pytest

from repro.designs import CATALOG, get_design, random_design_entries
from repro.engines import AutoEngine, get_engine
from repro.engines.auto import EXPLICIT_ABOVE_STATES, pick_engine
from repro.runner.cache import ResultCache, using_result_cache

_BMC_BOUND = 6
_RANDOM_SEED = 20260808

#: Design → (engine the rule runs, summed automaton states per conjunct,
#: number of architectural conjuncts).
_CATALOG_CHOICES = {
    "amba_ahb": ("explicit", 169, 2),
    "intel_like": ("explicit", 54, 1),
    "mal_fig2": ("explicit", 32, 1),
    "mal_fig4": ("explicit", 32, 1),
    "mal_table1": ("explicit", 146, 1),
    "telemetry_bank": ("explicit", 29, 3),
    "paper_example": ("bmc", 28, 1),
}

_CATALOG_CONJUNCTS = [
    (name, index)
    for name, (_, _, conjuncts) in sorted(_CATALOG_CHOICES.items())
    for index in range(conjuncts)
]


def test_registered():
    assert isinstance(get_engine("auto"), AutoEngine)
    assert EXPLICIT_ABOVE_STATES == 28


def test_constructor_takes_only_the_bound():
    parameters = inspect.signature(AutoEngine).parameters
    assert sorted(parameters) == ["max_bound"]
    assert AutoEngine(max_bound=4).max_bound == 4


@pytest.mark.parametrize(
    "states,engine_name",
    [
        (0, "bmc"),
        (1, "bmc"),
        (27, "bmc"),
        (28, "bmc"),
        (29, "explicit"),
        (30, "explicit"),
        (169, "explicit"),
    ],
)
def test_pick_engine_threshold(states, engine_name):
    assert pick_engine({"automaton_states": states}) == engine_name


def test_catalog_table_covers_every_conjunct():
    assert sorted(CATALOG) == sorted(_CATALOG_CHOICES)
    for name, (_, _, conjuncts) in _CATALOG_CHOICES.items():
        assert len(CATALOG[name].builder().architectural) == conjuncts, name
    assert len(_CATALOG_CONJUNCTS) == 10


@pytest.mark.parametrize("design,index", _CATALOG_CONJUNCTS)
def test_catalog_conjunct_runs_the_ruled_engine_alone(design, index):
    engine_name, states, _ = _CATALOG_CHOICES[design]
    problem = get_design(design).builder()
    target = problem.architectural[index]
    expected = get_engine("explicit").check_primary(problem, architectural=target)
    verdict = get_engine("auto", max_bound=_BMC_BOUND).check_primary(
        problem, architectural=target
    )
    assert verdict.features["automaton_states"] == states
    assert verdict.winner == engine_name
    assert verdict.covered == expected.covered
    assert verdict.complete is True


def test_covered_small_query_falls_back_to_a_complete_verdict():
    """bmc finding no witness only holds up to the bound: the complete
    explicit engine must finish the job."""
    problem = random_design_entries(4, _RANDOM_SEED)[3].builder()
    verdict = AutoEngine(max_bound=_BMC_BOUND).check_primary(problem)
    assert verdict.features["automaton_states"] <= EXPLICIT_ABOVE_STATES
    assert verdict.covered is True
    assert verdict.complete is True
    assert verdict.winner == "explicit"


def test_fallback_starts_no_thread(monkeypatch):
    """When bmc finds no witness, explicit decides in the caller's thread."""
    import threading

    problem = random_design_entries(4, _RANDOM_SEED)[3].builder()
    started = []
    real_start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    verdict = AutoEngine(max_bound=_BMC_BOUND).check_primary(problem)
    assert started == []
    assert verdict.winner == "explicit"
    assert verdict.covered is True
    assert verdict.complete is True


def test_gap_deeper_than_the_bound_falls_back_to_explicits_witness():
    """paper_example's shortest gap run is longer than bound 1, so bmc finds
    no witness and explicit's concrete one decides."""
    verdict = AutoEngine(max_bound=1).check_primary(get_design("paper_example").builder())
    assert verdict.features["automaton_states"] <= EXPLICIT_ABOVE_STATES
    assert verdict.covered is False
    assert verdict.complete is True
    assert verdict.winner == "explicit"
    assert verdict.witness is not None


def test_gap_query_stays_on_bmc():
    """On a refutable query the bounded engine's witness is decisive."""
    verdict = AutoEngine(max_bound=_BMC_BOUND).check_primary(
        get_design("paper_example").builder()
    )
    assert verdict.covered is False
    assert verdict.complete is True
    assert verdict.winner == "bmc"
    assert verdict.witness is not None


@pytest.mark.parametrize("index", range(8))
def test_agrees_with_explicit_on_random_designs(index):
    entry = random_design_entries(8, _RANDOM_SEED)[index]
    problem = entry.builder()
    expected = get_engine("explicit").check_primary(problem)
    actual = AutoEngine(max_bound=_BMC_BOUND).check_primary(problem)
    assert actual.covered == expected.covered, entry.name
    assert actual.complete is True, entry.name
    assert actual.winner == pick_engine(actual.features) or (
        pick_engine(actual.features) == "bmc" and actual.winner == "explicit"
    ), entry.name


def test_cache_replay_keeps_winner():
    problem = get_design("mal_fig2").builder()
    engine = AutoEngine(max_bound=_BMC_BOUND)
    cache = ResultCache()
    with using_result_cache(cache):
        first = engine.check_primary(problem)
        hits_before = cache.stats.hits
        second = engine.check_primary(problem)
    assert cache.stats.hits > hits_before
    assert second.covered == first.covered
    assert second.complete is True
    assert second.winner == first.winner == "explicit"


def test_fallback_winner_survives_cache_replay():
    problem = random_design_entries(4, _RANDOM_SEED)[3].builder()
    engine = AutoEngine(max_bound=_BMC_BOUND)
    cache = ResultCache()
    with using_result_cache(cache):
        first = engine.check_primary(problem)
        hits_before = cache.stats.hits
        second = engine.check_primary(problem)
    assert cache.stats.hits > hits_before
    assert first.winner == "explicit"
    assert second.winner == first.winner
    assert second.covered is first.covered is True
    assert second.complete is True


@pytest.mark.parametrize("index", range(3))
def test_unsliced_run_agrees_with_sliced(index, force_slicing):
    """The unsliced query has the same automata as the sliced one, so the
    rule picks the same engine and it gives the same verdict."""
    problem = get_design("telemetry_bank").builder()
    target = problem.architectural[index]
    sliced = AutoEngine(max_bound=_BMC_BOUND).check_primary(problem, architectural=target)
    force_slicing(False)
    unsliced = AutoEngine(max_bound=_BMC_BOUND).check_primary(problem, architectural=target)
    assert sliced.features["sliced"] is True
    assert unsliced.features["sliced"] is False
    assert unsliced.features["automaton_states"] == sliced.features["automaton_states"]
    assert unsliced.winner == sliced.winner
    assert unsliced.covered == sliced.covered


def test_auto_and_portfolio_cache_keys_do_not_collide():
    problem = get_design("mal_fig2").builder()
    cache = ResultCache()
    with using_result_cache(cache):
        AutoEngine(max_bound=_BMC_BOUND).check_primary(problem)
        stores = cache.stats.stores
        get_engine("portfolio", max_bound=_BMC_BOUND).check_primary(problem)
    # A colliding key would replay auto's entry and store nothing new.
    assert cache.stats.stores > stores
