"""Invariants decided by the explicit, bmc and symbolic engines.

An invariant ``G p`` holds exactly when no run satisfies ``F !p``, so each
case asks the three run searches for such a run and expects the same answer.
A found run is a counterexample and must reach the violating state.
"""

import pytest

from repro.bmc.engine import find_run_bmc
from repro.designs import build_cache_logic, build_simple_latch
from repro.logic.boolexpr import not_, var
from repro.ltl.parser import parse
from repro.ltl.traces import evaluate
from repro.mc import find_run, find_run_symbolic
from repro.rtl.netlist import Module

ENGINES = ("explicit", "bmc", "symbolic")
# Deep enough for every counterexample below; the counter needs 7 steps.
BMC_BOUND = 8


def search(engine, module, formulas):
    if engine == "explicit":
        return find_run(module, formulas)
    if engine == "bmc":
        return find_run_bmc(module, formulas, max_bound=BMC_BOUND)
    return find_run_symbolic(module, formulas)


def build_toggle() -> Module:
    module = Module("toggle")
    module.add_input("en")
    module.add_register("q", var("q") ^ var("en"), init=False)
    module.add_output("q")
    return module


def build_and_glue() -> Module:
    module = Module("and_glue")
    module.add_input("a").add_input("b")
    module.add_assign("y", var("a") & var("b"))
    module.add_output("y")
    return module


def build_counter() -> Module:
    """A free-running 3-bit counter from zero: all bits are set first at cycle 7."""
    module = Module("counter")
    carry = None
    for name in ("b0", "b1", "b2"):
        if carry is None:
            module.add_register(name, not_(var(name)), init=False)
            carry = var(name)
        else:
            module.add_register(name, var(name) ^ carry, init=False)
            carry = carry & var(name)
    module.add_output("b2")
    return module


def first_cycle(trace, *signals, low=()):
    """The first cycle of ``trace`` with every one of ``signals`` high and ``low`` low."""
    return next(
        i
        for i in range(len(trace))
        if all(trace.value(s, i) for s in signals) and not any(trace.value(s, i) for s in low)
    )


@pytest.mark.parametrize("engine", ENGINES)
class TestInvariantsHold:
    def test_cache_data_strobes_exclusive(self, engine):
        assert not search(engine, build_cache_logic(), [parse("F(d1 & d2)")]).satisfiable

    def test_glue_output_implies_input(self, engine):
        assert not search(engine, build_and_glue(), [parse("F(y & !a)")]).satisfiable

    def test_latch_captures_both_inputs(self, engine):
        assert not search(engine, build_simple_latch(), [parse("F(a & b & X !c)")]).satisfiable


@pytest.mark.parametrize("engine", ENGINES)
class TestInvariantsViolated:
    def test_toggle_rises_after_enable(self, engine):
        result = search(engine, build_toggle(), [parse("F q")])
        assert result.satisfiable
        trace = result.witness
        assert evaluate(parse("F q"), trace)
        rise = first_cycle(trace, "q")
        assert rise > 0 and trace.value("en", rise - 1)

    def test_glue_input_does_not_imply_output(self, engine):
        result = search(engine, build_and_glue(), [parse("F(a & !y)")])
        assert result.satisfiable
        trace = result.witness
        cycle = first_cycle(trace, "a", low=("y",))
        assert not trace.value("b", cycle)

    def test_counter_reaches_seven_at_cycle_seven(self, engine):
        result = search(engine, build_counter(), [parse("F(b0 & b1 & b2)")])
        assert result.satisfiable
        trace = result.witness
        assert first_cycle(trace, "b0", "b1", "b2") == 7


class TestBoundedSearch:
    def test_counterexample_beyond_the_bound_is_not_found(self):
        # No witness up to bound 6 is not a proof: the violation is 7 steps deep.
        assert not find_run_bmc(build_counter(), [parse("F(b0 & b1 & b2)")], max_bound=6).satisfiable

    def test_counterexample_found_at_its_depth(self):
        result = find_run_bmc(build_counter(), [parse("F(b0 & b1 & b2)")], max_bound=12)
        assert result.satisfiable
        assert result.bound == 7
