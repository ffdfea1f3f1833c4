"""Tests of the fold encoder behind the fresh-solver BMC reference.

:class:`bmc_reference.LTLBoundedEncoder` encodes a formula over one fixed
``(k, l)`` lasso.  It is the oracle's semantics, so it is pinned here to
:func:`repro.ltl.traces.evaluate` on fully fixed lassos.
"""

import pytest

from bmc_reference import LTLBoundedEncoder, visit_order
from repro.bmc.unroll import UnrolledModule, frame_name
from repro.ltl.parser import parse
from repro.ltl.traces import LassoTrace, evaluate
from repro.rtl.netlist import Module
from repro.sat.solver import SatSolver
from repro.sat.tseitin import TseitinEncoder


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
    atoms = sorted({name for state in states for name in state})
    unrolled = UnrolledModule(Module("env"), free_atoms=atoms)
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


class TestFoldEncodingAgainstTraceSemantics:
    @pytest.mark.parametrize("text, states, loop_start", _KNOWN_CASES)
    def test_fixed_lasso_agrees_with_evaluate(self, text, states, loop_start):
        formula = parse(text)
        trace = LassoTrace.from_states(states, loop_start)
        expected = evaluate(formula, trace)
        assert _encode_on_lasso(formula, states, loop_start) == expected
