"""Tests for the linear bounded LTL encoding (repro.bmc.ltl_bmc)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltl.ast import F, G, U, W, X, atom
from repro.ltl.parser import parse
from repro.ltl.traces import LassoTrace, evaluate
from repro.rtl.netlist import Module
from repro.sat.solver import SatSolver
from repro.bmc.ltl_bmc import LinearLTLEncoder
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


def _linear_verdicts(formula, states):
    """The linear encoder's verdict on the lasso closing at each loop start.

    The frames are fixed by unit clauses, and each solve assumes the
    formula's root and only the one selector ``sel_l``.
    """
    depth = len(states) - 1
    atoms = sorted({name for state in states for name in state})
    unrolled = UnrolledModule(empty_module(), free_atoms=atoms)
    unrolled.extend_to(depth)
    cnf = unrolled.cnf
    for frame, state in enumerate(states):
        for name in atoms:
            cnf.assume(frame_name(name, frame), bool(state.get(name, False)))
    selectors = [cnf.pool.literal(f"sel_{l}") for l in range(depth + 1)]
    true = cnf.pool.literal("true")
    cnf.add_unit(true)
    root = LinearLTLEncoder(cnf, depth, selectors, true).root(formula)
    solver = SatSolver(cnf)
    return [solver.solve(assumptions=[selector, root]).satisfiable for selector in selectors]


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

#: Obligations that reach the last frame and continue at the loop start.
_LOOP_BACK_CASES = [
    ("G X p", [{"p": False}, {"p": True}], 0),
    ("G X p", [{"p": False}, {"p": True}], 1),
    ("X X p", [{"p": True}, {"p": False}], 0),
    ("X (p U q)", [{"p": False, "q": True}, {"p": True, "q": False}], 0),
    ("X (p U q)", [{"p": False, "q": True}, {"p": True, "q": False}], 1),
    ("X (q R p)", [{"p": False, "q": False}, {"p": True, "q": False}], 0),
    ("X (q R p)", [{"p": False, "q": False}, {"p": True, "q": False}], 1),
]


class TestEncodingAgainstTraceSemantics:
    @pytest.mark.parametrize("text, states, loop_start", _KNOWN_CASES + _LOOP_BACK_CASES)
    def test_fixed_lasso_agrees_with_evaluate(self, text, states, loop_start):
        formula = parse(text)
        trace = LassoTrace.from_states(states, loop_start)
        expected = evaluate(formula, trace)
        assert _linear_verdicts(formula, states)[loop_start] == expected


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


_lasso_states = st.lists(
    st.fixed_dictionaries({"p": st.booleans(), "q": st.booleans()}),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(_formula_strategy(), _lasso_states)
def test_linear_encoding_agrees_with_evaluate_on_every_loop(formula, states):
    """Sound and complete on each loop alone, the U eventuality included."""
    verdicts = _linear_verdicts(formula, states)
    for loop_start, verdict in enumerate(verdicts):
        trace = LassoTrace.from_states(states, loop_start)
        assert verdict == evaluate(formula, trace), (loop_start, states)
