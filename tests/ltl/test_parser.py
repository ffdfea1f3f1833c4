"""Tests for the LTL parser and printer."""

import pytest

from repro.ltl import (
    Always,
    And,
    Atom,
    Eventually,
    FALSE,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Release,
    TRUE,
    Until,
    WeakUntil,
    parse,
    to_str,
)


class TestParsing:
    def test_atom(self):
        assert parse("r1") == Atom("r1")

    def test_constants(self):
        assert parse("true") == TRUE
        assert parse("false") == FALSE
        assert parse("1") == TRUE
        assert parse("0") == FALSE

    def test_unary_operators(self):
        assert parse("X p") == Next(Atom("p"))
        assert parse("F p") == Eventually(Atom("p"))
        assert parse("G p") == Always(Atom("p"))
        assert parse("!p") == Not(Atom("p"))
        assert parse("[] p") == Always(Atom("p"))
        assert parse("<> p") == Eventually(Atom("p"))

    def test_binary_operators(self):
        assert parse("p U q") == Until(Atom("p"), Atom("q"))
        assert parse("p R q") == Release(Atom("p"), Atom("q"))
        assert parse("p W q") == WeakUntil(Atom("p"), Atom("q"))
        assert parse("p & q") == And(Atom("p"), Atom("q"))
        assert parse("p | q") == Or(Atom("p"), Atom("q"))
        assert parse("p -> q") == Implies(Atom("p"), Atom("q"))
        assert parse("p <-> q") == Iff(Atom("p"), Atom("q"))

    def test_precedence_implication_weakest(self):
        formula = parse("p & q -> r | s")
        assert isinstance(formula, Implies)
        assert isinstance(formula.left, And)
        assert isinstance(formula.right, Or)

    def test_until_binds_tighter_than_and(self):
        formula = parse("a U b & c")
        assert isinstance(formula, And)
        assert isinstance(formula.left, Until)

    def test_until_right_associative(self):
        formula = parse("a U b U c")
        assert isinstance(formula, Until)
        assert isinstance(formula.right, Until)

    def test_unary_binds_tightest(self):
        formula = parse("X p U q")
        assert isinstance(formula, Until)
        assert isinstance(formula.left, Next)

    def test_paper_architectural_property(self):
        formula = parse("G( !wait & r1 & X(r1 U r2) -> X( !d2 U d1 ))")
        assert isinstance(formula, Always)
        implication = formula.operand
        assert isinstance(implication, Implies)
        assert isinstance(implication.right, Next)
        assert isinstance(implication.right.operand, Until)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("p &")
        with pytest.raises(ParseError):
            parse("(p")
        with pytest.raises(ParseError):
            parse("p q")
        with pytest.raises(ParseError):
            parse("U p")


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "!p",
            "X p",
            "G (p -> X q)",
            "p U q",
            "p U (q & r)",
            "(p U q) -> (c U d)",
            "G (!wait & r1 & X (r1 U r2) -> X (!d2 U d1))",
            "p <-> q",
            "p W q",
            "a R b",
            "F G p",
        ],
    )
    def test_roundtrip(self, text):
        formula = parse(text)
        assert parse(to_str(formula)) == formula

    def test_to_str_operator_shapes(self):
        assert to_str(parse("G p")) == "G p"
        assert to_str(parse("F p")) == "F p"
        assert to_str(parse("p & q")) == "p & q"
        assert to_str(parse("p U q")) == "p U q"
        assert to_str(parse("G(p -> F q)")) == "G (p -> F q)"

    def test_str_dunder(self):
        assert str(parse("G(p -> X q)")) == "G (p -> X q)"
