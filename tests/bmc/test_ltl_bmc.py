"""Tests for the bounded LTL encoding (repro.bmc.ltl_bmc)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltl.ast import F, G, U, W, X, atom
from repro.ltl.parser import parse
from repro.ltl.traces import LassoTrace, evaluate
from repro.rtl.netlist import Module
from repro.sat.solver import SatSolver
from repro.sat.tseitin import TseitinEncoder
from repro.bmc.ltl_bmc import LTLBoundedEncoder, visit_order
from repro.bmc.engine import find_run_bmc
from repro.bmc.unroll import UnrolledModule, frame_name


def empty_module(*free):
    """A module with no logic: every named signal is a free environment input."""
    module = Module("env")
    for name in free:
        module.add_input(name)
    return module


def find_word(formula, max_bound=6):
    """Use BMC on an empty module to search for a word satisfying the formula."""
    return find_run_bmc(empty_module(), [formula], max_bound=max_bound)


class TestVisitOrder:
    def test_no_wrap_when_loop_at_or_after_position(self):
        assert visit_order(2, 5, 4) == [2, 3, 4, 5]
        assert visit_order(2, 5, 2) == [2, 3, 4, 5]

    def test_wrap_when_loop_before_position(self):
        assert visit_order(3, 5, 1) == [3, 4, 5, 1, 2]

    def test_position_zero_sees_all_frames(self):
        assert visit_order(0, 3, 2) == [0, 1, 2, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            visit_order(4, 3, 0)
        with pytest.raises(ValueError):
            visit_order(0, 3, 4)


def _encode_on_lasso(formula, states, loop_start):
    """Encode the formula over a fully fixed lasso and ask the SAT solver."""
    depth = len(states) - 1
    module = empty_module()
    atoms = sorted({name for state in states for name in state})
    unrolled = UnrolledModule(module, free_atoms=atoms)
    unrolled.extend_to(depth)
    cnf = unrolled.cnf
    for frame, state in enumerate(states):
        for name in atoms:
            cnf.assume(frame_name(name, frame), bool(state.get(name, False)))
    encoder = LTLBoundedEncoder(TseitinEncoder(cnf), depth, loop_start)
    cnf.add_unit(encoder.formula_literal(formula))
    return SatSolver(cnf).solve().satisfiable


_KNOWN_CASES = [
    # (formula text, states, loop_start)
    ("G p", [{"p": True}, {"p": True}], 0),
    ("G p", [{"p": True}, {"p": False}], 0),
    ("F p", [{"p": False}, {"p": False}, {"p": True}], 1),
    ("F p", [{"p": False}, {"p": False}], 0),
    ("p U q", [{"p": True, "q": False}, {"p": True, "q": True}], 0),
    ("p U q", [{"p": True, "q": False}, {"p": False, "q": False}], 1),
    ("p W q", [{"p": True, "q": False}, {"p": True, "q": False}], 0),
    ("X p", [{"p": False}, {"p": True}], 1),
    ("X X p", [{"p": False}, {"p": True}], 1),
    ("G(p -> X q)", [{"p": True, "q": False}, {"p": False, "q": True}], 0),
    ("G F p", [{"p": False}, {"p": True}], 0),
    ("G F p", [{"p": True}, {"p": False}], 1),
    ("F G p", [{"p": False}, {"p": True}], 1),
]


class TestEncodingAgainstTraceSemantics:
    @pytest.mark.parametrize("text, states, loop_start", _KNOWN_CASES)
    def test_fixed_lasso_agrees_with_evaluate(self, text, states, loop_start):
        formula = parse(text)
        trace = LassoTrace.from_states(states, loop_start)
        expected = evaluate(formula, trace)
        assert _encode_on_lasso(formula, states, loop_start) == expected


class TestWitnessSearch:
    @pytest.mark.parametrize(
        "text",
        [
            "F p",
            "G !p",
            "p U q",
            "G F p & G F !p",
            "F G p",
            "X X p & G(p -> X !p)",
            "(p U q) & G(q -> X !q)",
        ],
    )
    def test_satisfiable_formulas_get_witnesses(self, text):
        formula = parse(text)
        result = find_word(formula)
        assert result.satisfiable
        assert evaluate(formula, result.witness)

    @pytest.mark.parametrize(
        "text",
        [
            "p & !p",
            "G p & F !p",
            "F p & G !p",
            "(p U q) & G !q",
            "X p & X !p",
        ],
    )
    def test_unsatisfiable_formulas_have_no_witness(self, text):
        result = find_word(parse(text))
        assert not result.satisfiable


# -- property-based: every BMC witness really satisfies the formula -----------

_atoms = st.sampled_from(["p", "q"])


def _formula_strategy():
    leaves = _atoms.map(atom)

    def extend(children):
        return st.one_of(
            children.map(lambda f: ~f),
            st.tuples(children, children).map(lambda t: t[0] & t[1]),
            st.tuples(children, children).map(lambda t: t[0] | t[1]),
            children.map(X),
            children.map(F),
            children.map(G),
            st.tuples(children, children).map(lambda t: U(t[0], t[1])),
            st.tuples(children, children).map(lambda t: W(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=40, deadline=None)
@given(_formula_strategy())
def test_bmc_witnesses_are_sound(formula):
    result = find_word(formula, max_bound=4)
    if result.satisfiable:
        assert evaluate(formula, result.witness)


@settings(max_examples=40, deadline=None)
@given(_formula_strategy())
def test_bmc_agrees_with_tableau_satisfiability(formula):
    from repro.ltl.sat import is_satisfiable

    result = find_word(formula, max_bound=4)
    if result.satisfiable:
        assert is_satisfiable(formula)
    if not is_satisfiable(formula):
        assert not result.satisfiable
