"""Counterexample validation: every uncovered verdict replays on the RTL.

A "NOT covered" verdict comes with a witness lasso produced by
:mod:`repro.mc.counterexample` (explicit engine) or the BMC decoder.  These
tests close the loop the paper's methodology relies on: the witness must be a
*real run* of the concrete modules — replaying its input stimulus on the cycle
simulator must reproduce every driven signal — and that run must actually
violate the architectural intent while satisfying the whole RTL specification.

A witness from a sliced query speaks about exactly the signals of its
query's cone: the replay asserts every driven signal *the witness records*.
The unsliced runs keep the original full-alphabet check, so both contracts
stay pinned; the ``force_slicing`` fixture picks the side of the slicing rule.
"""

from __future__ import annotations

import pytest

from repro.designs import get_design
from repro.designs.random import RandomDesignSpec, random_problem
from repro.engines import get_engine
from repro.ltl.traces import LassoTrace, evaluate
from repro.rtl.simulator import Simulator


def _free_signals(module):
    driven = set(module.assigns) | set(module.registers)
    free = [name for name in module.inputs if name not in driven]
    for name in sorted(module.undriven_signals()):
        if name not in free:
            free.append(name)
    return free


def _replay(problem, witness: LassoTrace) -> LassoTrace:
    """Drive the composed module with the witness's inputs; return the replayed lasso.

    Asserts cycle-by-cycle that every module-driven signal *recorded by the
    witness* matches — i.e. the witness is a genuine run of the RTL, not an
    artefact of the product construction.  A witness from a sliced query
    records exactly its cone; an unsliced witness records every driven
    signal, so there the check degenerates to the original full-alphabet one.
    """
    module = problem.composed_module()
    free = _free_signals(module)
    cycles = len(witness.stem) + 2 * len(witness.loop)
    simulator = Simulator(module)
    recorded = set(witness.signals())
    driven = sorted((set(module.assigns) | set(module.registers)) & recorded)
    replayed_states = []
    for cycle in range(cycles):
        valuation = simulator.step(
            {name: witness.value(name, cycle) for name in free}
        )
        for name in driven:
            assert valuation[name] == witness.value(name, cycle), (
                f"replay diverges at cycle {cycle} on {name!r}"
            )
        replayed_states.append(dict(valuation))
    loop_start = len(witness.stem)
    return LassoTrace(
        replayed_states[:loop_start],
        replayed_states[loop_start : loop_start + len(witness.loop)],
    )


def _assert_witness_violates(problem, target, witness):
    """The witness must refute the intent and satisfy R — on the *replayed* run."""
    replayed = _replay(problem, witness)
    merged_states = [
        {**dict(witness.state_at(i)), **dict(replayed.state_at(i))}
        for i in range(len(witness.stem) + len(witness.loop))
    ]
    merged = LassoTrace(
        merged_states[: len(witness.stem)], merged_states[len(witness.stem) :]
    )
    assert not evaluate(target, merged), "witness does not violate the intent"
    for formula in problem.all_rtl_formulas():
        assert evaluate(formula, merged), "witness violates the RTL specification"


def _uncovered_witnesses(problem, engine_name: str, bound: int = 12):
    engine = get_engine(engine_name, max_bound=bound)
    found = []
    for target in problem.architectural:
        verdict = engine.check_primary(problem, architectural=target)
        if not verdict.covered:
            assert verdict.witness is not None, "uncovered verdict without witness"
            found.append((target, verdict.witness))
    return found


class TestCatalogCounterexamples:
    @pytest.mark.parametrize("slicing", [True, False], ids=["sliced", "unsliced"])
    @pytest.mark.parametrize("design", ["mal_fig4", "paper_example"])
    @pytest.mark.parametrize("engine_name", ["explicit", "bmc", "symbolic"])
    def test_uncovered_designs_replay_and_violate(self, design, engine_name, slicing, force_slicing):
        force_slicing(slicing)
        problem = get_design(design).builder()
        witnesses = _uncovered_witnesses(problem, engine_name)
        assert witnesses, f"{design} is expected to have a coverage gap"
        for target, witness in witnesses:
            if not slicing:
                # Unsliced witnesses must record the full driven alphabet, so
                # this exercises the original full-replay contract.
                module = problem.composed_module()
                assert set(module.assigns) | set(module.registers) <= set(
                    witness.signals()
                )
            _assert_witness_violates(problem, target, witness)

    @pytest.mark.slow
    def test_amba_counterexample_replays(self, force_slicing):
        force_slicing(True)
        problem = get_design("amba_ahb").builder()
        for target, witness in _uncovered_witnesses(problem, "explicit"):
            _assert_witness_violates(problem, target, witness)


class TestRandomCounterexamples:
    @pytest.mark.parametrize("seed", [11, 23, 37, 53])
    def test_random_gap_witnesses_replay(self, seed, force_slicing):
        force_slicing(True)
        checked = 0
        for index in range(4):
            problem = random_problem(RandomDesignSpec(seed=seed, index=index))
            for target, witness in _uncovered_witnesses(problem, "explicit"):
                _assert_witness_violates(problem, target, witness)
                checked += 1
        # The seeds are chosen so at least one design per seed has a gap.
        assert checked > 0

    def test_gap_analysis_witnesses_replay(self):
        """The witness list of the full pipeline replays too, not just primary."""
        from repro.core import CoverageOptions, find_coverage_gap

        problem = get_design("mal_fig4").builder()
        options = CoverageOptions(
            max_witnesses=2, unfold_depth=4, max_closure_checks=2, max_reported_gaps=1
        )
        analysis = find_coverage_gap(problem, problem.architectural[0], options)
        assert not analysis.covered
        assert analysis.terms is not None and analysis.terms.witnesses
        for witness in analysis.terms.witnesses:
            _replay(problem, witness)
