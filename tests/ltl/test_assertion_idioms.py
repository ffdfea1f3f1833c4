"""Temporal assertion idioms written in LTL.

RTL properties take a few recurring shapes: overlapping implication
(``a -> b``), non-overlapping implication (``a -> X b``), fixed and ranged
cycle delays (nested ``X``), repetition and eventuality.  These tests check
that the alternative LTL spellings of each idiom are equivalent, that the
idioms which look alike are different obligations, and how each one
evaluates on concrete lasso traces.
"""

import pytest

from repro.designs.mal import arbiter_properties_fig4
from repro.ltl.ast import conj
from repro.ltl.parser import ParseError, parse
from repro.ltl.sat import equivalent, implies, strictly_stronger_than
from repro.ltl.traces import LassoTrace, evaluate


def lasso(*states, loop_start=None):
    """A lasso from per-cycle dicts, looping on the last state by default."""
    if loop_start is None:
        loop_start = len(states) - 1
    return LassoTrace.from_states(list(states), loop_start)


class TestEquivalentSpellings:
    @pytest.mark.parametrize(
        "left, right",
        [
            pytest.param("G(req -> gnt)", "G(!req | gnt)", id="overlapping-implication"),
            pytest.param("G(req -> X gnt)", "!F(req & X !gnt)", id="non-overlapping-implication"),
            pytest.param("G(req & X req -> X gnt)", "G(req -> X(req -> gnt))", id="two-cycle-antecedent"),
            pytest.param(
                "G(req & X X ack -> X X X done)", "G(req -> X X(ack -> X done))", id="delayed-antecedent"
            ),
            pytest.param("req -> F gnt", "!req | F gnt", id="eventual-response"),
            pytest.param("G(!stall & req -> X gnt)", "G(req -> stall | X gnt)", id="guarded-response"),
            pytest.param("!(G busy)", "F !busy", id="negated-always"),
            pytest.param("G busy | F done", "!(F !busy & G !done)", id="always-or-eventually"),
            pytest.param("G(a & b) & F c", "G a & G b & F c", id="always-distributes-over-and"),
            pytest.param(
                "G((en & X fire -> X ok) & (en & X X fire -> X X ok))",
                "G(en -> X((fire -> ok) & X(fire -> ok)))",
                id="ranged-delay-antecedent",
            ),
            pytest.param("G(true -> req)", "G req", id="constant-antecedent"),
            pytest.param(
                "G((a | b) & !c -> d)", "G(a & !c -> d) & G(b & !c -> d)", id="disjunctive-antecedent"
            ),
            pytest.param("(a & X b) | (a & X X b)", "a & X(b | X b)", id="ranged-delay-match"),
        ],
    )
    def test_spellings_are_equivalent(self, left, right):
        assert equivalent(parse(left), parse(right))


class TestArbiterSpecification:
    """The Figure-4 arbiter written as implications, as ``examples/three_engines.py`` does."""

    @pytest.mark.parametrize(
        "implications, reference",
        [
            pytest.param("G(n1 -> X g1) & G(X g1 -> n1)", "G(n1 <-> X g1)", id="grant-1"),
            pytest.param(
                "G(!n1 & n2 -> X g2) & G(X g2 -> (!n1 & n2))", "G((!n1 & n2) <-> X g2)", id="grant-2"
            ),
        ],
    )
    def test_implication_pairs_match_the_catalog(self, implications, reference):
        assert equivalent(parse(implications), parse(reference))

    def test_catalog_specification_implies_exclusive_grants(self):
        specification = conj(*arbiter_properties_fig4())
        assert implies(specification, parse("G (g1 & g2 -> false)"))


class TestDistinctObligations:
    def test_overlapping_and_non_overlapping_are_incomparable(self):
        overlapping = parse("G(req -> gnt)")
        non_overlapping = parse("G(req -> X gnt)")
        assert not implies(overlapping, non_overlapping)
        assert not implies(non_overlapping, overlapping)

    def test_fixed_delay_match_is_stronger_than_ranged(self):
        assert strictly_stronger_than(parse("a & X b"), parse("(a & X b) | (a & X X b)"))

    def test_repeated_consequent_is_stronger(self):
        assert strictly_stronger_than(parse("G(req -> gnt & X gnt)"), parse("G(req -> X gnt)"))

    def test_ranged_antecedent_obliges_every_alternative(self):
        ranged = parse("G((en & X fire -> X ok) & (en & X X fire -> X X ok))")
        assert strictly_stronger_than(ranged, parse("G(en & X fire -> X ok)"))
        assert strictly_stronger_than(ranged, parse("G(en & X X fire -> X X ok)"))


class TestOnTraces:
    @pytest.mark.parametrize(
        "text, trace, expected",
        [
            pytest.param(
                "req & X X gnt",
                lasso({"req": True}, {}, {"gnt": True}, {}),
                True,
                id="delay-match",
            ),
            pytest.param(
                "req & X X gnt",
                lasso({"req": True}, {"gnt": True}, {}, {}),
                False,
                id="delay-miss",
            ),
            pytest.param(
                "G(req & X busy -> X gnt)",
                lasso({"req": True}, {"busy": True, "gnt": True}, {}),
                True,
                id="overlapping-on-last-match-cycle",
            ),
            pytest.param(
                "G(req & X busy -> X gnt)",
                lasso({"req": True}, {"busy": True}, {"gnt": True}),
                False,
                id="overlapping-one-cycle-late",
            ),
            pytest.param(
                "G(req & X busy -> X X gnt)",
                lasso({"req": True}, {"busy": True}, {"gnt": True}, {}),
                True,
                id="non-overlapping-one-cycle-later",
            ),
            pytest.param(
                "G(req & X busy -> X X gnt)",
                lasso({"req": True}, {"busy": True, "gnt": True}, {}),
                False,
                id="non-overlapping-on-last-match-cycle",
            ),
            pytest.param(
                "G(req -> gnt)",
                lasso({}, {}),
                True,
                id="vacuous-without-antecedent",
            ),
            pytest.param(
                "G((a & X b -> X c) & (a & X X b -> X X c))",
                lasso({"a": True}, {}, {"b": True}, {}),
                False,
                id="ranged-alternative-violated",
            ),
            pytest.param(
                "G((a & X b -> X c) & (a & X X b -> X X c))",
                lasso({"a": True}, {}, {"b": True, "c": True}, {}),
                True,
                id="ranged-alternative-met",
            ),
            pytest.param(
                "G(req -> F gnt)",
                lasso({}, {"req": True}, {"gnt": True}, loop_start=1),
                True,
                id="response-recurs-in-loop",
            ),
            pytest.param(
                "G(req -> F gnt)",
                lasso({"gnt": True}, {"req": True}, {}, loop_start=1),
                False,
                id="response-only-in-stem",
            ),
            pytest.param(
                "F done",
                lasso({}, {}, {}),
                False,
                id="eventuality-never-met",
            ),
        ],
    )
    def test_evaluation(self, text, trace, expected):
        assert evaluate(parse(text), trace) is expected


class TestMalformedText:
    @pytest.mark.parametrize(
        "text",
        [
            "   ",
            "G",
            "X",
            "!",
            "req ->",
            "a U",
            "a <->",
            "req @ gnt",
            "(a | b))",
            "()",
            "a & | b",
            "a -> -> b",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse(text)
