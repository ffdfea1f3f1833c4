"""Differential tests: sliced and unsliced runs must return identical verdicts.

The acceptance contract of the compiled problem IR — on every catalog design
and on seeded random designs, for every engine including the portfolio, the
cone-of-influence slice never changes a verdict.  Each test runs both sides of
the slicing rule by pinning it with the ``force_slicing`` fixture.
"""

import pytest

from repro.designs import design_names, get_design
from repro.designs.random import random_design_entries
from repro.engines import get_engine

_BMC_BOUND = 6
_SMALL_DESIGNS = ["mal_fig2", "mal_fig4", "paper_example", "telemetry_bank"]
_LARGE_DESIGNS = ["intel_like", "mal_table1", "amba_ahb"]
_ENGINES = ["explicit", "bmc", "symbolic", "portfolio"]


def _conjunct_verdicts(problem, engine_name, force_slicing, slice_every_query):
    force_slicing(slice_every_query)
    engine = get_engine(engine_name, max_bound=_BMC_BOUND)
    return [
        bool(engine.check_primary(problem, architectural=target).covered)
        for target in problem.architectural
    ]


def test_catalog_is_fully_partitioned():
    """Every catalog design is exercised by the fast or the slow sweep."""
    assert set(_SMALL_DESIGNS) | set(_LARGE_DESIGNS) == set(design_names())


@pytest.mark.parametrize("engine_name", _ENGINES)
@pytest.mark.parametrize("design", _SMALL_DESIGNS)
class TestSmallCatalogAgreement:
    def test_sliced_matches_unsliced_per_conjunct(self, design, engine_name, force_slicing):
        entry = get_design(design)
        problem = entry.builder()
        sliced = _conjunct_verdicts(problem, engine_name, force_slicing, True)
        unsliced = _conjunct_verdicts(problem, engine_name, force_slicing, False)
        assert sliced == unsliced
        assert all(sliced) == entry.expected_covered


@pytest.mark.slow
@pytest.mark.parametrize("engine_name", ["explicit", "symbolic", "portfolio"])
@pytest.mark.parametrize("design", _LARGE_DESIGNS)
class TestLargeCatalogAgreement:
    def test_sliced_matches_unsliced_per_conjunct(self, design, engine_name, force_slicing):
        problem = get_design(design).builder()
        sliced = _conjunct_verdicts(problem, engine_name, force_slicing, True)
        unsliced = _conjunct_verdicts(problem, engine_name, force_slicing, False)
        assert sliced == unsliced


class TestRandomDesignAgreement:
    """Seeded random designs: the differential the catalog cannot anticipate."""

    @pytest.mark.parametrize("engine_name", ["explicit", "bmc", "portfolio"])
    def test_sliced_matches_unsliced(self, engine_name, force_slicing):
        for entry in random_design_entries(3, seed=20260730):
            problem = entry.builder()
            sliced = _conjunct_verdicts(problem, engine_name, force_slicing, True)
            unsliced = _conjunct_verdicts(problem, engine_name, force_slicing, False)
            assert sliced == unsliced, entry.name

    @pytest.mark.slow
    def test_symbolic_sliced_matches_unsliced(self, force_slicing):
        for entry in random_design_entries(3, seed=20260730):
            problem = entry.builder()
            sliced = _conjunct_verdicts(problem, "symbolic", force_slicing, True)
            unsliced = _conjunct_verdicts(problem, "symbolic", force_slicing, False)
            assert sliced == unsliced, entry.name


class TestSlicedWitnesses:
    def test_sliced_witness_still_replays_on_full_module(self, force_slicing):
        """A witness found on the slice is a genuine run of the cone signals."""
        from repro.ltl.traces import evaluate as evaluate_on_trace
        from repro.ltl.ast import Not

        force_slicing(True)
        problem = get_design("mal_fig4").builder()
        engine = get_engine("explicit")
        target = problem.architectural[0]
        verdict = engine.check_primary(problem, architectural=target)
        assert not verdict.covered and verdict.witness is not None
        # The witness refutes the intent and satisfies every RTL property
        # under direct LTL semantics.
        assert evaluate_on_trace(Not(target), verdict.witness)
        for formula in problem.all_rtl_formulas():
            assert evaluate_on_trace(formula, verdict.witness)
