"""Formula hashing: class-aware, cached, consistent with equality."""

from __future__ import annotations

import itertools

from repro.ltl.ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    WeakUntil,
)
from repro.ltl.parser import parse

UNARY = (Not, Next, Eventually, Always)
BINARY = (And, Or, Implies, Iff, Until, Release, WeakUntil)


def test_unary_wrappings_hash_apart():
    a = Atom("a")
    assert len({hash(wrap(a)) for wrap in UNARY}) == len(UNARY)


def test_binary_wrappings_hash_apart():
    a, b = Atom("a"), Atom("b")
    assert len({hash(wrap(a, b)) for wrap in BINARY}) == len(BINARY)


def test_equal_formulas_hash_equal_and_equality_is_unchanged():
    text = "G (!wait & r1 & X (r1 U r2) -> X (!d2 U d1))"
    first, second = parse(text), parse(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert hash(first) == hash(first)  # cached value is stable
    assert TrueFormula() == TRUE and hash(TrueFormula()) == hash(TRUE)
    assert FalseFormula() == FALSE and hash(TRUE) != hash(FALSE)
    a, b = Atom("a"), Atom("b")
    for left, right in itertools.combinations(BINARY, 2):
        assert left(a, b) != right(a, b)
    for left, right in itertools.combinations(UNARY, 2):
        assert left(a) != right(a)
    assert And(a, b) != And(b, a)


def test_formulas_as_dict_keys():
    a, b = Atom("a"), Atom("b")
    table = {wrap(a, b): wrap.__name__ for wrap in BINARY}
    table.update({wrap(a): wrap.__name__ for wrap in UNARY})
    assert len(table) == len(BINARY) + len(UNARY)
    assert table[Until(Atom("a"), Atom("b"))] == "Until"
    assert table[Always(Atom("a"))] == "Always"
