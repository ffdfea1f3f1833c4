"""Formulas survive pickling and copying, with their hash recomputed.

Neither the cached hash nor the cached atom set and fingerprint travel with
a copy: a round-tripped formula recomputes each on first use.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest

from repro.designs import CATALOG
from repro.ltl.ast import And, Atom, Formula, Not, atoms_of
from repro.runner.cache import formula_fingerprint


def _node_classes():
    classes, stack = [], [Formula]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if not cls.__name__.startswith("_"):
                classes.append(cls)
    return sorted(classes, key=lambda cls: cls.__name__)


def _instance(cls):
    if cls is Atom:
        return Atom("a")
    operands = (And(Atom("a"), Not(Atom("b"))), Atom("c"))
    return cls(*operands[: len(cls.__match_args__)])


ROUND_TRIPS = {
    "pickle": lambda formula: pickle.loads(pickle.dumps(formula)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_every_node_class_is_covered():
    assert len(_node_classes()) == 14


@pytest.mark.parametrize("warmed", ["fresh", "hashed", "cached"])
@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("cls", _node_classes(), ids=lambda cls: cls.__name__)
def test_node_round_trips(cls, how, warmed):
    formula = _instance(cls)
    if warmed != "fresh":
        hash(formula)
    if warmed == "cached":
        atoms_of(formula)
        formula_fingerprint(formula)
    clone = ROUND_TRIPS[how](formula)
    assert type(clone) is cls
    assert not any(hasattr(clone, slot) for slot in ("_hash", "_atoms", "_fingerprint"))
    assert clone == formula
    assert hash(clone) == hash(formula)
    assert str(clone) == str(formula)
    assert atoms_of(clone) == atoms_of(formula)
    assert formula_fingerprint(clone) == formula_fingerprint(formula)


def test_hash_is_recomputed_in_the_loading_process():
    """A pickle written under another string hash seed carries no stale hash."""
    script = (
        "import pickle, sys\n"
        "from repro.ltl.ast import And, Atom, Not\n"
        "formula = And(Atom('a'), Not(Atom('b')))\n"
        "hash(formula)\n"
        "sys.stdout.buffer.write(pickle.dumps(formula))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
    payload = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, check=True, env=env
    ).stdout
    local = And(Atom("a"), Not(Atom("b")))
    loaded = pickle.loads(payload)
    assert loaded == local
    assert hash(loaded) == hash(local)
    assert {local: "found"}[loaded] == "found"


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_formula_lists_round_trip(name):
    problem = CATALOG[name].builder()
    lists = (list(problem.architectural), problem.all_rtl_formulas())
    assert pickle.loads(pickle.dumps(lists)) == lists
