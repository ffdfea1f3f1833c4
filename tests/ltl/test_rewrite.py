"""Tests for NNF conversion, the canonical key, simplification and instance substitution."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.ltl import (
    Atom,
    Not,
    atoms_of,
    conjuncts,
    equivalent,
    formula_size,
    nnf,
    parse,
    simplify,
    substitute_atom_instance,
    temporal_depth,
)
from repro.core.push import atom_instance_table
from repro.ltl.ast import Always, And, Eventually, Or, Release
from repro.ltl.rewrite import canonical, remove_derived_operators
from test_tableau_properties import formulas


class TestNNF:
    @pytest.mark.parametrize(
        "text",
        [
            "!(p & q)",
            "!(p | q)",
            "!(p -> q)",
            "!(p U q)",
            "!(p R q)",
            "!X p",
            "!G p",
            "!F p",
            "!(p <-> q)",
            "!(p W q)",
            "G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))",
        ],
    )
    def test_nnf_preserves_semantics(self, text):
        formula = parse(text)
        assert equivalent(formula, nnf(formula))

    def test_nnf_pushes_negations_to_atoms(self):
        converted = nnf(parse("!(p & X(q U r))"))
        for sub in _negations(converted):
            assert isinstance(sub.operand, Atom)

    def test_nnf_core_operators_only(self):
        converted = nnf(parse("G(a -> F b) & (c W d)"))
        from repro.ltl.ast import Implies, Iff, WeakUntil, Eventually, Always, subformulas

        for sub in subformulas(converted):
            assert not isinstance(sub, (Implies, Iff, WeakUntil, Eventually, Always))


def _negations(formula):
    from repro.ltl.ast import subformulas

    return [sub for sub in subformulas(formula) if isinstance(sub, Not)]


#: Weakenings of the paper's intent that Algorithm 1 builds in both spellings.
_PAPER_PAIR = (
    "G (!wait & (r1 & !g1) & X (r1 U r2) -> X (!d2 U d1))",
    "G (!(wait | g1) & r1 & X (r1 U r2) -> X (!d2 U d1))",
)


class TestCanonical:
    @settings(max_examples=40, deadline=None)
    @given(formulas())
    def test_key_is_equivalent_idempotent_and_keeps_the_atoms(self, formula):
        key = canonical(formula)
        assert equivalent(key, formula)
        assert canonical(key) == key
        assert atoms_of(key) == atoms_of(formula)

    @settings(max_examples=40, deadline=None)
    @given(formulas(max_leaves=3), formulas(max_leaves=3), formulas(max_leaves=3))
    def test_commuted_reassociated_and_repeated_operands_share_a_key(self, f, g, h):
        for chain in (And, Or):
            key = canonical(chain(chain(f, g), h))
            assert canonical(chain(f, chain(g, h))) == key
            assert canonical(chain(h, chain(g, f))) == key
            assert canonical(chain(chain(f, g), chain(h, f))) == key
            assert canonical(chain(f, f)) == canonical(f)

    @pytest.mark.parametrize(
        "left,right",
        [
            ("p -> q", "!p | q"),
            ("p <-> q", "(p & q) | (!p & !q)"),
            ("F p", "true U p"),
            ("G p", "false R p"),
            ("p W q", "q R (p | q)"),
            ("!(p & X q)", "X !q | !p"),
            ("(a & b) | (b & a) | c", "c | (b & a)"),
            _PAPER_PAIR,
        ],
    )
    def test_spellings_share_a_key(self, left, right):
        assert canonical(parse(left)) == canonical(parse(right))

    @pytest.mark.parametrize(
        "left,right", [("p & q", "p | q"), ("p U q", "q U p"), ("X p & q", "p & X q")]
    )
    def test_different_formulas_keep_apart(self, left, right):
        assert canonical(parse(left)) != canonical(parse(right))

    def test_printed_key_is_the_same_under_two_hash_seeds(self):
        """Operands sort by their printed text, never by a string hash."""
        script = (
            "from repro.ltl import parse, to_str\n"
            "from repro.ltl.rewrite import canonical\n"
            f"for text in {list(_PAPER_PAIR) + ['e | d | (c & b & a) | X (z | y)']!r}:\n"
            "    print(to_str(canonical(parse(text))))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, "the canonical key depends on PYTHONHASHSEED"
        lines = outputs.pop().splitlines()
        assert len(lines) == 3 and lines[0] == lines[1]


class TestSimplify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p & true", "p"),
            ("p & false", "false"),
            ("p | true", "true"),
            ("G true", "true"),
            ("F false", "false"),
            ("X true", "true"),
            ("p U true", "true"),
            ("false U p", "p"),
            ("true U p", "F p"),
            ("p & p", "p"),
            ("p | !p", "true"),
            ("p & !p", "false"),
            ("G G p", "G p"),
            ("F F p", "F p"),
            ("true -> p", "p"),
            ("p -> false", "!p"),
            ("p <-> true", "p"),
        ],
    )
    def test_rules(self, text, expected):
        assert simplify(parse(text)) == parse(expected)

    def test_simplify_is_sound(self):
        formula = parse("G((p & true) -> F(q | false)) & (r U (s & s))")
        assert equivalent(formula, simplify(formula))

    def test_remove_derived_operators(self):
        converted = remove_derived_operators(parse("G(a -> F b)"))
        assert isinstance(converted, Release)
        assert equivalent(converted, parse("G(a -> F b)"))


class TestSubstitution:
    def test_substitute_atoms(self):
        # Every instance of ``a``, each by its path in the atom-instance table.
        formula = parse("G(a -> X a)")
        replaced = formula
        for instance in atom_instance_table(formula):
            if instance.name == "a":
                replaced = substitute_atom_instance(replaced, instance.path, parse("b & c"))
        assert replaced == parse("G((b & c) -> X (b & c))")

    def test_atom_instances_paths_are_distinct(self):
        instances = atom_instance_table(parse("G(a -> X a)"))
        assert len(instances) == 2
        assert instances[0].path != instances[1].path
        assert all(instance.name == "a" for instance in instances)

    def test_substitute_single_instance(self):
        formula = parse("G(a -> X a)")
        instances = atom_instance_table(formula)
        # Replace only the second occurrence.
        replaced = substitute_atom_instance(formula, instances[1].path, parse("a & b"))
        assert replaced == parse("G(a -> X (a & b))")

    def test_substitute_instance_invalid_path(self):
        with pytest.raises(ValueError):
            substitute_atom_instance(parse("a & b"), (5,), parse("c"))


class TestStructure:
    def test_conjuncts_and_disjuncts(self):
        assert len(conjuncts(parse("a & b & c"))) == 3
        assert conjuncts(parse("a | b")) == (parse("a | b"),)

    def test_atoms_of(self):
        assert atoms_of(parse("G(a -> X b) U c")) == frozenset({"a", "b", "c"})

    def test_formula_size_and_depth(self):
        formula = parse("G(a -> X(b U c))")
        assert formula_size(formula) == 7
        assert temporal_depth(formula) == 3
        assert temporal_depth(parse("a & b")) == 0
