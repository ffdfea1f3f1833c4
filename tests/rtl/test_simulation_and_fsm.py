"""Tests for composition, simulation, waveforms, FSM extraction and Kripke structures."""

import pytest

from repro.logic.boolexpr import not_, var
from repro.rtl import (
    Module,
    NetlistError,
    Simulator,
    Stimulus,
    compose,
    extract_fsm,
    kripke_from_module,
    render_table,
    render_waveform,
    simulate,
)
from repro.designs import (
    build_cache_logic,
    build_full_mal_fig2,
    build_simple_latch,
    hit_scenario_stimulus,
    miss_scenario_stimulus,
)


class TestCompose:
    def test_compose_connects_by_name(self):
        producer = Module("p")
        producer.add_input("a")
        producer.add_output("x")
        producer.add_assign("x", var("a"))
        consumer = Module("c")
        consumer.add_input("x")
        consumer.add_output("y")
        consumer.add_assign("y", not_(var("x")))
        combined = compose([producer, consumer], "combined")
        assert combined.inputs == ["a"]
        assert set(combined.outputs) == {"x", "y"}
        valuation = combined.evaluate_combinational({}, {"a": True})
        assert valuation["y"] is False

    def test_compose_rejects_double_drivers(self):
        one = Module("one")
        one.add_assign("x", var("a"))
        two = Module("two")
        two.add_assign("x", var("b"))
        with pytest.raises(NetlistError):
            compose([one, two])

    def test_compose_rejects_cycles(self):
        one = Module("one")
        one.add_assign("x", var("y"))
        two = Module("two")
        two.add_assign("y", var("x"))
        with pytest.raises(NetlistError):
            compose([one, two])

    def test_compose_keeps_registers(self):
        consumer = Module("consumer")
        consumer.add_input("c")
        consumer.add_output("y")
        consumer.add_assign("y", not_(var("c")))
        combined = compose([build_simple_latch(), consumer], "combined")
        assert set(combined.registers) == {"c"}
        assert combined.inputs == ["a", "b"]
        trace = simulate(combined, Stimulus.from_vectors(a=[1, 0], b=[1, 1]), cycles=3)
        assert trace.signal("c") == [False, True, False]
        assert trace.signal("y") == [True, False, True]


class TestSimulator:
    def test_stimulus_padding(self):
        stimulus = Stimulus.from_vectors(a=[1, 0], b=[1])
        assert stimulus.at(0) == {"a": True, "b": True}
        assert stimulus.at(3) == {"a": False, "b": True}
        assert stimulus.extended(4).length == 4

    def test_latch_simulation(self):
        module = build_simple_latch()
        trace = simulate(module, Stimulus.from_vectors(a=[1, 1, 0], b=[1, 0, 1]), cycles=4)
        # c is registered: it reflects a & b from the previous cycle.
        assert trace.signal("c") == [False, True, False, False]
        assert trace.first_cycle_where("c") == 1

    def test_simulator_reset(self):
        simulator = Simulator(build_simple_latch())
        simulator.step({"a": True, "b": True})
        simulator.reset()
        assert simulator.state == {"c": False}
        assert len(simulator.trace) == 0

    def test_mal_hit_scenario_matches_figure3a(self):
        design = build_full_mal_fig2()
        trace = simulate(design, Stimulus.from_vectors(**hit_scenario_stimulus()), cycles=6)
        # Grant for r1 one cycle after the request; the cache lookup result is
        # combinational with the grant in this reproduction (see the timing
        # note in repro.designs.mal), so the hit delivers d1 in the same cycle.
        assert trace.signal("g1")[1] is True
        assert trace.signal("d1")[1] is True
        # The competing r2 never completes before r1.
        d1_at = trace.first_cycle_where("d1")
        d2_at = trace.first_cycle_where("d2")
        assert d1_at == 1
        assert d2_at is None or d1_at < d2_at

    def test_mal_miss_scenario_matches_figure3b(self):
        design = build_full_mal_fig2()
        trace = simulate(design, Stimulus.from_vectors(**miss_scenario_stimulus()), cycles=6)
        # The miss raises wait, which masks the r2 grant until the refill.
        assert trace.signal("wait")[2] is True
        assert trace.signal("g2")[2] is False
        assert trace.first_cycle_where("d1") is not None
        d1_at = trace.first_cycle_where("d1")
        d2_at = trace.first_cycle_where("d2")
        assert d2_at is None or d1_at <= d2_at


class TestWaveform:
    def test_render_waveform_contains_signals(self):
        trace = simulate(build_simple_latch(), Stimulus.from_vectors(a=[1, 1], b=[1, 1]), cycles=3)
        text = render_waveform(trace, ["a", "b", "c"], ascii_only=True)
        assert "a" in text and "c" in text and "clk" in text

    def test_render_table_of_simulation_trace(self):
        trace = simulate(build_simple_latch(), Stimulus.from_vectors(a=[1, 0], b=[1, 1]), cycles=2)
        lines = render_table(trace, ["a", "b", "c"]).splitlines()
        assert lines[0].split() == ["0", "1"]
        assert [line.split() for line in lines[1:]] == [
            ["a", "1", "0"],
            ["b", "1", "1"],
            ["c", "0", "1"],
        ]

    def test_render_table_zero_one(self):
        text = render_table({"x": [True, False]})
        assert " 1" in text and " 0" in text


class TestFSMExtraction:
    def test_simple_latch_fsm_matches_example3(self):
        fsm = extract_fsm(build_simple_latch())
        assert fsm.state_count() == 2
        assert fsm.state_variables == ("c",)
        assert fsm.label(fsm.initial_state).as_dict() == {"c": False}
        # Four transitions: from each state, a&b goes to c, otherwise to !c.
        assert fsm.transition_count() == 4
        assert fsm.is_deterministic()
        assert fsm.is_complete()
        to_c = fsm.transition_between(fsm.initial_state, 1 - fsm.initial_state)
        assert to_c is not None
        assert to_c.guard.satisfied_by({"a": True, "b": True})
        assert not to_c.guard.satisfied_by({"a": True, "b": False})

    def test_combinational_module_has_single_state(self):
        module = Module("glue")
        module.add_input("a")
        module.add_output("y")
        module.add_assign("y", not_(var("a")))
        fsm = extract_fsm(module)
        assert fsm.state_count() == 1
        assert fsm.transition_count() == 1

    def test_cache_logic_fsm_reachable_states(self):
        fsm = extract_fsm(build_cache_logic())
        # Registers p1, p2: all four valuations are reachable.
        assert fsm.state_count() == 4
        assert fsm.is_deterministic()
        assert fsm.is_complete()
        assert fsm.summary().startswith("FSM(L1)")


class TestKripke:
    def test_kripke_of_latch(self):
        kripke = kripke_from_module(build_simple_latch())
        # States: (register c) x (inputs a, b) = 8.
        assert kripke.state_count() == 8
        # Initial states: c = 0 with any inputs.
        assert len(kripke.initial) == 4
        for state in kripke.initial:
            assert kripke.value(state, "c") is False
        # Every state has 4 successors (free inputs).
        for state in range(kripke.state_count()):
            assert len(kripke.successors(state)) == 4

    def test_kripke_transition_respects_register_semantics(self):
        kripke = kripke_from_module(build_simple_latch())
        for state in range(kripke.state_count()):
            label = kripke.label(state)
            expected_next_c = label["a"] and label["b"]
            for successor in kripke.successors(state):
                assert kripke.value(successor, "c") == expected_next_c

    def test_extra_free_signals(self):
        kripke = kripke_from_module(build_simple_latch(), extra_free=["r1"])
        assert "r1" in kripke.atoms
        assert kripke.state_count() == 16

    def test_reachability_and_summary(self):
        kripke = kripke_from_module(build_simple_latch())
        assert kripke.reachable_states() == set(range(kripke.state_count()))
        assert "Kripke" in kripke.summary()
