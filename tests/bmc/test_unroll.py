"""Tests for the time-frame expansion (repro.bmc.unroll)."""

import pytest

from repro.designs.simple_latch import build_simple_latch
from repro.logic.boolexpr import and_, var
from repro.rtl.netlist import Module
from repro.sat.solver import SatSolver, solve
from repro.bmc.unroll import UnrolledModule, frame_name


def build_toggle() -> Module:
    """A one-bit toggle flip-flop: q flips whenever en is high."""
    module = Module("toggle")
    module.add_input("en")
    module.add_register("q", var("q") ^ var("en"), init=False)
    module.add_output("q")
    return module


class TestFrameNaming:
    def test_frame_name_format(self):
        assert frame_name("wait", 3) == "wait@3"

    def test_rename_covers_all_signals(self):
        unrolled = UnrolledModule(build_toggle())
        rename = unrolled.rename(2)
        assert rename["q"] == "q@2"
        assert rename["en"] == "en@2"


class TestFreeSignals:
    def test_inputs_are_free(self):
        unrolled = UnrolledModule(build_toggle())
        assert "en" in unrolled.free_signals

    def test_property_atoms_become_free(self):
        unrolled = UnrolledModule(build_toggle(), free_atoms=["irq"])
        assert "irq" in unrolled.free_signals
        assert "irq" in unrolled.trace_signals

    def test_driven_signals_are_not_free(self):
        unrolled = UnrolledModule(build_toggle(), free_atoms=["q"])
        assert unrolled.free_signals.count("q") == 0


class TestUnrollingSemantics:
    def test_initial_state_fixed(self):
        unrolled = UnrolledModule(build_toggle())
        unrolled.assert_initial_state()
        unrolled.extend_to(0)
        cnf = unrolled.cnf.copy()
        cnf.assume("q@0", True)
        assert not solve(cnf).satisfiable
        cnf2 = unrolled.cnf.copy()
        cnf2.assume("q@0", False)
        assert solve(cnf2).satisfiable

    def test_transition_matches_simulation(self):
        # en = 1, 1, 0  =>  q = 0, 1, 0, 0
        unrolled = UnrolledModule(build_toggle())
        unrolled.assert_initial_state()
        unrolled.extend_to(3)
        cnf = unrolled.cnf
        for frame, value in enumerate([True, True, False]):
            cnf.assume(frame_name("en", frame), value)
        result = solve(cnf)
        assert result.satisfiable
        assert [result.value(frame_name("q", i)) for i in range(4)] == [
            False,
            True,
            False,
            False,
        ]

    def test_combinational_assign_holds_each_frame(self):
        module = Module("glue")
        module.add_input("a").add_input("b")
        module.add_assign("y", and_(var("a"), var("b")))
        module.add_output("y")
        unrolled = UnrolledModule(module)
        unrolled.extend_to(1)
        cnf = unrolled.cnf
        cnf.assume("a@1", True)
        cnf.assume("b@1", True)
        cnf.assume("y@1", False)
        assert not solve(cnf).satisfiable

    def test_extend_is_incremental(self):
        unrolled = UnrolledModule(build_toggle())
        unrolled.extend_to(2)
        clauses_at_2 = unrolled.cnf.clause_count()
        unrolled.extend_to(2)
        assert unrolled.cnf.clause_count() == clauses_at_2
        unrolled.extend_to(4)
        assert unrolled.cnf.clause_count() > clauses_at_2

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            UnrolledModule(build_toggle()).extend_to(-1)


class TestLoopConstraint:
    """The activation-guarded lasso closure of the incremental BMC session."""

    def _closed(self, depth, loop_start):
        """An unrolling to ``depth`` with the ``(depth, loop_start)`` closure
        guarded by a fresh activation literal."""
        unrolled = UnrolledModule(build_toggle())
        unrolled.assert_initial_state()
        unrolled.extend_to(depth)
        activation = unrolled.encoder.variable_literal("act")
        unrolled.guarded_loop_constraint(depth, loop_start, activation)
        return unrolled, activation

    def test_loop_to_initial_frame(self):
        # With en forced high every cycle, q alternates; a lasso of odd period
        # cannot close back onto frame 0.
        unrolled, activation = self._closed(0, 0)
        en = unrolled.signal_literal("en", 0)
        assert not SatSolver(unrolled.cnf).solve(assumptions=[activation, en]).satisfiable

    def test_loop_possible_when_en_low(self):
        unrolled, activation = self._closed(0, 0)
        en = unrolled.signal_literal("en", 0)
        assert SatSolver(unrolled.cnf).solve(assumptions=[activation, -en]).satisfiable

    def test_loop_start_out_of_range(self):
        unrolled = UnrolledModule(build_toggle())
        unrolled.extend_to(1)
        activation = unrolled.encoder.variable_literal("act")
        with pytest.raises(ValueError):
            unrolled.guarded_loop_constraint(1, 5, activation)
        with pytest.raises(ValueError):
            unrolled.guarded_loop_constraint(3, 0, activation)

    def test_base_cnf_untouched_by_loop_queries(self):
        # The closure is inert unless its activation literal is assumed: the
        # odd-period lasso excluded above stays satisfiable without it.
        unrolled, activation = self._closed(0, 0)
        en = unrolled.signal_literal("en", 0)
        solver = SatSolver(unrolled.cnf)
        assert solver.solve(assumptions=[en]).satisfiable
        assert not solver.solve(assumptions=[activation, en]).satisfiable
        assert solver.solve(assumptions=[en]).satisfiable


class TestDecodeStates:
    def test_decode_returns_one_state_per_frame(self):
        unrolled = UnrolledModule(build_simple_latch())
        unrolled.assert_initial_state()
        unrolled.extend_to(2)
        cnf = unrolled.cnf
        for frame in range(3):
            cnf.assume(frame_name("a", frame), True)
            cnf.assume(frame_name("b", frame), True)
        result = solve(cnf)
        assert result.satisfiable
        states = unrolled.decode_states(result.assignment)
        assert len(states) == 3
        assert states[0]["c"] is False
        assert states[1]["c"] is True
