"""Scaling ablation: how the analysis cost grows with the concrete block size.

Section 5 of the paper warns that admitting larger RTL blocks explodes two
steps: the primary coverage question (model checking on the blocks) and the
``T_M`` construction.  This benchmark quantifies that on the parametric
daisy-chain arbiter (``repro.designs.daisy_chain``): the number of requesters
``n`` controls both the property count (≈ 2n) and the concrete datapath size
(n + 1 registers).

Series reproduced (one pytest-benchmark entry per point):

* explicit-state primary coverage — exponential in ``n`` (capped at ``n = 3``
  to keep the suite fast; ``n = 4`` already takes minutes),
* SAT-based (BMC) primary coverage — stays cheap across the sweep, showing
  why a bounded engine is a useful companion for the definite "not covered"
  answers,
* ``T_M`` construction — exponential in ``n`` (the FSM of the block is
  enumerated explicitly), matching the paper's warning that the method is
  meant for glue-logic-sized blocks only.
"""

from __future__ import annotations

import pytest

from repro.core.primary import primary_coverage_check
from repro.core.tm import build_tm_for_modules
from repro.designs.daisy_chain import build_daisy_problem
from repro.engines import get_engine

_EXPLICIT_SIZES = [2, 3]
_BMC_SIZES = [2, 3, 4, 5, 6]
_TM_SIZES = [2, 3, 4, 5]


@pytest.mark.parametrize("requesters", _EXPLICIT_SIZES)
def test_scaling_explicit_primary(benchmark, requesters):
    problem = build_daisy_problem(requesters)
    result = benchmark.pedantic(
        lambda: primary_coverage_check(problem), rounds=1, iterations=1
    )
    assert result.covered


@pytest.mark.parametrize("requesters", _BMC_SIZES)
def test_scaling_bmc_primary(benchmark, requesters):
    problem = build_daisy_problem(requesters)
    engine = get_engine("bmc", max_bound=4)
    result = benchmark.pedantic(
        lambda: engine.check_primary(problem), rounds=1, iterations=1
    )
    # Covered up to the bound: no refuting run, and no complete proof.
    assert result.covered and not result.complete


@pytest.mark.parametrize("requesters", _TM_SIZES)
def test_scaling_tm_construction(benchmark, requesters):
    problem = build_daisy_problem(requesters)
    modules = problem.concrete_modules
    _, results, _ = benchmark.pedantic(
        lambda: build_tm_for_modules(modules), rounds=1, iterations=1
    )
    # The characteristic formula covers every register of the datapath.
    assert len(results) == 1
    assert not results[0].combinational
