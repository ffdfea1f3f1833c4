"""Tests for the GPVW tableau construction and the automaton classes."""

import pytest

from repro.ltl import (
    GeneralizedBuchi,
    evaluate,
    lasso_to_trace,
    ltl_to_gba,
    parse,
)
from repro.ltl.ast import atoms_of


def accepts_some_word(formula) -> bool:
    return not ltl_to_gba(formula).is_empty()


class TestTableau:
    def test_true_and_false(self):
        assert not accepts_some_word(parse("false"))
        assert accepts_some_word(parse("true"))
        assert ltl_to_gba(parse("p & !p")).is_empty()

    def test_atom_automaton_structure(self):
        automaton = ltl_to_gba(parse("p"))
        assert automaton.initial
        assert all(("p", True) in automaton.labels[state] for state in automaton.initial)

    def test_until_has_acceptance_set(self):
        assert len(ltl_to_gba(parse("p U q")).acceptance) == 1

    def test_globally_has_no_until_acceptance(self):
        assert len(ltl_to_gba(parse("G p")).acceptance) == 0

    def test_witness_word_satisfies_formula(self):
        formula = parse("(!p U q) & G(q -> X p)")
        automaton = ltl_to_gba(formula)
        lasso = automaton.accepting_lasso()
        assert lasso is not None
        trace = lasso_to_trace(automaton, lasso, sorted(atoms_of(formula)))
        assert evaluate(formula, trace)

    @pytest.mark.parametrize(
        "text",
        [
            "G F p",
            "F G p",
            "p U (q U r)",
            "(p U q) R s",
            "G(a -> F b)",
            "G(req -> X grant)",
        ],
    )
    def test_nonempty_for_satisfiable(self, text):
        assert accepts_some_word(parse(text))

    @pytest.mark.parametrize(
        "text",
        ["G p & F !p", "(p U q) & G !q", "F G p & G F !p & G(p | !p) & F G !p & F G p"],
    )
    def test_empty_for_unsatisfiable(self, text):
        assert not accepts_some_word(parse(text))


def _degeneralize(automaton: GeneralizedBuchi) -> GeneralizedBuchi:
    """Counter construction: the same language with one acceptance set.

    State ``(q, i)`` waits for acceptance set ``i``; leaving a state of that
    set moves on to set ``i + 1`` (mod ``k``), so the run passes every set
    between two visits of the accepting states ``F_0 x {0}``.
    """
    sets = list(automaton.acceptance) or [frozenset(automaton.labels)]
    number = {}
    result = GeneralizedBuchi()
    for state in automaton.labels:
        for layer in range(len(sets)):
            number[state, layer] = len(number)
            initial = layer == 0 and state in automaton.initial
            result.add_state(number[state, layer], automaton.labels[state], initial=initial)
    for (state, layer), source in number.items():
        after = (layer + 1) % len(sets) if state in sets[layer] else layer
        for target in automaton.transitions.get(state, ()):
            result.add_transition(source, number[target, after])
    result.acceptance = [frozenset(number[state, 0] for state in sets[0])]
    return result


class TestDegeneralization:
    """The emptiness sweep on a generalised automaton must agree with the
    sweep on its single-set degeneralisation (built above, test side)."""

    @pytest.mark.parametrize(
        "text",
        [
            "G F p & G F q",
            "G F p",
            "p U q",
            "G(a -> F b) & G(b -> F a)",
            "F G p",
            "G p & F !p",
            "(p U q) & G !q",
            "F G p & G F !p",
        ],
    )
    def test_degeneralized_emptiness_agrees(self, text):
        gba = ltl_to_gba(parse(text))
        ba = _degeneralize(gba)
        assert len(ba.acceptance) == 1
        assert gba.is_empty() == ba.is_empty()

    def test_degeneralized_accepting_states_exist_when_nonempty(self):
        gba = ltl_to_gba(parse("G F p & G F q"))
        assert len(gba.acceptance) == 2
        ba = _degeneralize(gba)
        assert ba.acceptance[0]
        assert not ba.is_empty()


class TestAutomatonClasses:
    def test_manual_gba_emptiness(self):
        automaton = GeneralizedBuchi()
        automaton.add_state(0, (), initial=True)
        automaton.add_state(1, ())
        automaton.add_transition(0, 1)
        # No cycle: language is empty.
        assert automaton.is_empty()
        automaton.add_transition(1, 1)
        assert not automaton.is_empty()

    def test_acceptance_set_must_be_hit(self):
        automaton = GeneralizedBuchi()
        automaton.add_state(0, (), initial=True)
        automaton.add_state(1, ())
        automaton.add_transition(0, 0)
        automaton.add_transition(0, 1)
        automaton.add_transition(1, 1)
        automaton.acceptance = [frozenset({1})]
        lasso = automaton.accepting_lasso()
        assert lasso is not None
        assert 1 in lasso.loop

    def test_lasso_is_a_real_path(self):
        automaton = ltl_to_gba(parse("G F p & G F !p"))
        lasso = automaton.accepting_lasso()
        assert lasso is not None
        states = list(lasso.stem) + list(lasso.loop)
        for source, target in zip(states, states[1:]):
            assert target in automaton.transitions[source]
        # The loop must close back on its first state.
        assert lasso.loop[0] in automaton.transitions[lasso.loop[-1]]
        # And visit every acceptance set.
        for accept_set in automaton.acceptance:
            assert set(lasso.loop) & accept_set
