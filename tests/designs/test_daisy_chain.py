"""Tests for the parametric daisy-chain arbiter family."""

import pytest

from repro.core.primary import primary_coverage_check
from repro.engines import get_engine
from repro.designs.daisy_chain import (
    build_daisy_problem,
    build_grant_datapath,
    daisy_architectural_property,
    daisy_rtl_properties,
)
from repro.ltl.ast import atoms_of
from repro.rtl.simulator import Stimulus, simulate


class TestDatapath:
    def test_structure_scales_with_requesters(self):
        module = build_grant_datapath(4)
        assert len(module.registers) == 5  # four grants + busy
        assert set(module.inputs) == {"win0", "win1", "win2", "win3", "release"}

    def test_minimum_width_enforced(self):
        with pytest.raises(ValueError):
            build_grant_datapath(1)

    def test_grant_follows_win_by_one_cycle(self):
        module = build_grant_datapath(2)
        trace = simulate(
            module,
            Stimulus.from_vectors(win0=[1, 0, 0], win1=[0, 0, 0], release=[0, 0, 1]),
            cycles=4,
        )
        assert trace.signal("g0") == [False, True, False, False]
        assert trace.signal("busy") == [False, True, True, False]


class TestProperties:
    def test_property_count_grows_linearly(self):
        assert len(daisy_rtl_properties(2)) == 4
        assert len(daisy_rtl_properties(5)) == 10

    def test_architectural_alphabet_uses_interface_names(self):
        names = atoms_of(daisy_architectural_property(3))
        assert names == {"busy", "r0", "r2", "g0", "g2"}

    def test_problem_satisfies_assumption1(self):
        problem = build_daisy_problem(3)
        problem.validate()
        assert problem.apa <= problem.apr


class TestCoverage:
    @pytest.mark.parametrize("requesters", [2, 3])
    def test_explicit_engine_proves_coverage(self, requesters):
        result = primary_coverage_check(build_daisy_problem(requesters))
        assert result.covered

    @pytest.mark.parametrize("requesters", [2, 3, 4, 5])
    def test_bmc_engine_finds_no_refutation(self, requesters):
        verdict = get_engine("bmc", max_bound=4).check_primary(build_daisy_problem(requesters))
        # Covered up to the bound: no refuting run, and no complete proof.
        assert verdict.covered and not verdict.complete

    def test_dropping_the_priority_property_opens_a_gap(self):
        problem = build_daisy_problem(2)
        # Remove the property that says stage 1 defers to stage 0.
        problem.rtl_properties = [
            formula
            for formula in problem.rtl_properties
            if "win1" not in str(formula) or "r0" not in str(formula)
        ]
        result = primary_coverage_check(problem)
        assert not result.covered
