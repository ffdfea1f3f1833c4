"""Tests for the tableau's expansion laws and for bounded temporal terms."""

import pytest

from repro.core import uncovered_terms
from repro.ltl import (
    LassoTrace,
    TemporalTerm,
    equivalent,
    implies,
    is_satisfiable,
    ltl_to_gba,
    nnf,
    parse,
    satisfying_trace,
    term_from_states,
    term_from_trace,
)
from repro.ltl.ast import And, Next, Or, Release, Until
from repro.ltl.rewrite import big_and
from repro.ltl.tableau import _new1, _new2, _next1


def _expand_once(formula):
    """The GPVW tableau's split of a ``|``/``U``/``R`` node, as one formula.

    The tableau replaces ``eta`` by a node obliged to ``New2(eta)`` now and a
    node obliged to ``New1(eta)`` now and ``Next1(eta)`` one step later; the
    disjunction of the two is the expansion law it relies on, e.g.
    ``p U q == q | (p & X (p U q))``.
    """

    def both(parts):
        return big_and(sorted(parts, key=str))

    return Or(both(_new2(formula)), And(both(_new1(formula)), Next(both(_next1(formula)))))


def _unfold(formula, depth):
    """Expand every ``U``/``R`` of an NNF formula ``depth`` steps deep.

    Obligations not under ``X`` are expanded, the ones under ``X`` one step
    shallower, so depth 1 is next normal form.
    """
    if depth <= 0:
        return formula
    if isinstance(formula, (Until, Release)):
        return _unfold(_expand_once(formula), depth)
    if isinstance(formula, And):
        return And(_unfold(formula.left, depth), _unfold(formula.right, depth))
    if isinstance(formula, Or):
        return Or(_unfold(formula.left, depth), _unfold(formula.right, depth))
    if isinstance(formula, Next):
        return Next(_unfold(formula.operand, depth - 1))
    return formula


def _obligations_outside_next(formula):
    """The ``U``/``R`` subformulas that no ``X`` guards."""
    if isinstance(formula, (Until, Release)):
        return [formula]
    if isinstance(formula, (And, Or)):
        return _obligations_outside_next(formula.left) + _obligations_outside_next(formula.right)
    return []


class TestExpansion:
    """The tableau expands ``U``/``R`` nodes by the one-step expansion laws;
    unfolding them any number of steps must preserve the formula's meaning."""

    @pytest.mark.parametrize(
        "text",
        ["p U q", "p R q", "p W q", "G p", "F p"],
    )
    def test_expand_once_preserves_semantics(self, text):
        formula = parse(text)
        normal = nnf(formula)
        assert isinstance(normal, (Until, Release))
        assert equivalent(formula, _expand_once(normal))

    def test_expand_once_leaves_others_alone(self):
        # ``&`` and ``X`` never split a tableau node: one initial state, a
        # chain {p} -> {q} -> {} and no acceptance set.  ``|`` does split.
        automaton = ltl_to_gba(parse("p & X q"))
        assert len(automaton.initial) == 1
        assert automaton.state_count() == 3
        assert not automaton.acceptance
        assert len(ltl_to_gba(parse("p | X q")).initial) == 2

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("text", ["p U q", "G(a -> X b)", "F p", "G(a -> (b U c))"])
    def test_unfold_preserves_semantics(self, text, depth):
        formula = parse(text)
        assert equivalent(formula, _unfold(nnf(formula), depth))

    def test_xnf_preserves_semantics(self):
        for text in ["p U q", "G p", "(a U b) -> (c U d)", "F(a & (b U c))"]:
            formula = parse(text)
            normal = _unfold(nnf(formula), 1)
            assert _obligations_outside_next(normal) == [], text
            assert equivalent(formula, normal)


class TestTemporalTerm:
    def test_literals_and_depth(self):
        term = TemporalTerm([{"r1": True}, {"r2": True, "hit": False}])
        assert term.depth() == 2
        assert term.literal_count() == 3
        assert (1, "hit", False) in term.literals()
        assert term.signals() == frozenset({"r1", "r2", "hit"})

    def test_to_formula(self):
        term = TemporalTerm([{"r1": True}, {"hit": False}])
        assert equivalent(term.to_formula(), parse("r1 & X !hit"))

    def test_project_and_drop(self):
        term = TemporalTerm([{"r1": True, "p1": True}, {"hit": False}])
        assert term.project({"r1", "hit"}).literals() == ((0, "r1", True), (1, "hit", False))
        assert term.drop({"p1"}).literals() == ((0, "r1", True), (1, "hit", False))

    def test_strip_trailing_empty(self):
        term = TemporalTerm([{"a": True}, {}, {}])
        assert term.strip_trailing_empty().depth() == 1

    def test_satisfied_by(self):
        term = TemporalTerm([{"r1": True}, {"r2": True}])
        trace = LassoTrace([{"r1": True}, {"r2": True}], [{}])
        assert term.satisfied_by(trace)
        assert not term.satisfied_by(LassoTrace([{"r1": True}], [{}]))

    def test_subsumes(self):
        # A term subsumes the terms whose formulas imply its own.
        general = TemporalTerm([{"r1": True}])
        specific = TemporalTerm([{"r1": True}, {"r2": True}])
        assert implies(specific.to_formula(), general.to_formula())
        assert not implies(general.to_formula(), specific.to_formula())

    def test_term_from_states_and_trace(self):
        states = [{"a": True, "b": False}, {"a": False, "b": True}]
        term = term_from_states(states, ["a"])
        assert term.literals() == ((0, "a", True), (1, "a", False))
        trace = LassoTrace(states, [{"a": True}])
        traced = term_from_trace(trace, 3, ["a"])
        assert traced.depth() == 3

    def test_to_str(self):
        term = TemporalTerm([{"r1": True}, {"hit": False, "r2": True}])
        text = term.to_str()
        assert "r1" in text and "X" in text and "!hit" in text


class TestBoundedTerms:
    """Bounded terms are read off witness runs, as Algorithm 1's step 2(a)
    does (``repro.core.terms``)."""

    def test_bounded_terms_of_until(self):
        formula = parse("p U q")
        witness = satisfying_trace(formula)
        assert witness is not None
        term = term_from_trace(witness, len(witness.stem) + len(witness.loop))
        assert term.satisfied_by(witness)
        # The term reaches the first ``q``, so it implies the formula.
        assert implies(term.to_formula(), formula)

    def test_bounded_terms_pure_boolean(self):
        witness = satisfying_trace(parse("a & !b"))
        term = term_from_trace(witness, 1, ["a", "b"])
        assert term.literals() == ((0, "a", True), (0, "b", False))

    def test_bounded_terms_inconsistent_dropped(self):
        # Terms are read off runs: an inconsistent formula has no run, hence
        # no term, and a term read off a run is always consistent.
        assert satisfying_trace(parse("a & !a")) is None
        witness = satisfying_trace(parse("a & X !a & X X (a U b)"))
        assert is_satisfiable(term_from_trace(witness, 4).to_formula())

    def test_bounded_terms_cap(self, mal_gap_problem):
        result = uncovered_terms(mal_gap_problem, max_witnesses=1, depth=4)
        assert len(result.witnesses) == 1
        assert len(result.terms) <= 1
        assert all(term.depth() <= 4 for term in result.terms)
