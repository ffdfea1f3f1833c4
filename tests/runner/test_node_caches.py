"""Fingerprints and atom sets cached on the immutable nodes they describe.

Formulas and interned expressions carry their own ``formula_fingerprint`` /
``expr_fingerprint`` / ``atoms_of`` value once asked.  The cached values
must equal a fresh computation, must not be recomputed, must not leak onto
subnodes or through pickling, and must leave every engine-run cache key as
it was (pinned below), so caches written before the node caches still hit.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.designs import build_simple_latch, get_design
from repro.engines import get_engine
from repro.logic.boolexpr import and_, not_, or_, var, xor
from repro.ltl import ast
from repro.ltl.ast import And, Atom, Not, atoms_of
from repro.ltl.parser import parse
from repro.runner import cache as result_cache
from repro.runner.cache import (
    ResultCache,
    expr_fingerprint,
    formula_fingerprint,
    module_fingerprint,
    using_result_cache,
)

CATALOG_DESIGNS = [
    "amba_ahb",
    "intel_like",
    "mal_fig2",
    "mal_fig4",
    "mal_table1",
    "paper_example",
    "telemetry_bank",
]


def _uncached_formula_fingerprint(formula):
    return result_cache._digest(
        formula, result_cache._formula_children, result_cache._formula_line
    )


def _uncached_expr_fingerprint(expr):
    return result_cache._digest(expr, result_cache._expr_children, result_cache._expr_line)


@pytest.mark.parametrize("name", CATALOG_DESIGNS)
def test_cached_values_equal_fresh_ones(name):
    problem = get_design(name).builder()
    for formula in list(problem.architectural) + problem.all_rtl_formulas():
        digest = formula_fingerprint(formula)
        atoms = atoms_of(formula)
        assert formula._fingerprint == digest and formula._atoms == atoms
        fresh = pickle.loads(pickle.dumps(formula))
        assert fresh == formula and fresh is not formula
        assert not hasattr(fresh, "_fingerprint") and not hasattr(fresh, "_atoms")
        assert formula_fingerprint(fresh) == digest == _uncached_formula_fingerprint(formula)
        assert atoms_of(fresh) == atoms
    module = problem.composed_module()
    drivers = list(module.assigns.values()) + [r.next_value for r in module.registers.values()]
    for expr in drivers:
        assert expr_fingerprint(expr) == _uncached_expr_fingerprint(expr)


def test_expression_rebuilt_after_collection_recomputes_the_same_value():
    def build():
        a, b, c = var("node_cache_a"), var("node_cache_b"), var("node_cache_c")
        return or_(and_(a, not_(b)), xor(b, c), and_(a, b, c))

    expr = build()
    digest = expr_fingerprint(expr)
    assert expr._fingerprint == digest
    gone = weakref.ref(expr)
    del expr
    gc.collect()
    assert gone() is None, "the interned node outlived its last reference"
    fresh = build()
    assert not hasattr(fresh, "_fingerprint")
    assert expr_fingerprint(fresh) == digest


def test_second_call_does_not_walk_again(monkeypatch):
    walks = []
    digest = result_cache._digest

    def counting_digest(root, children_of, line_of):
        walks.append(root)
        return digest(root, children_of, line_of)

    monkeypatch.setattr(result_cache, "_digest", counting_digest)
    formula = parse("G(walk_once_r -> X(!walk_once_d U walk_once_g))")
    expr = and_(var("walk_once_x"), or_(var("walk_once_y"), not_(var("walk_once_x"))))
    assert formula_fingerprint(formula) == formula_fingerprint(formula)
    assert expr_fingerprint(expr) == expr_fingerprint(expr)
    assert walks == [formula, expr]

    visits = []
    subformulas = ast.subformulas

    def counting_subformulas(node):
        visits.append(node)
        return subformulas(node)

    monkeypatch.setattr(ast, "subformulas", counting_subformulas)
    assert atoms_of(formula) == {"walk_once_r", "walk_once_d", "walk_once_g"}
    walked = len(visits)
    assert walked > 0
    assert atoms_of(formula) == {"walk_once_r", "walk_once_d", "walk_once_g"}
    assert len(visits) == walked


def test_only_the_asked_node_caches():
    formula = And(Atom("asked_p"), Not(Atom("asked_q")))
    formula_fingerprint(formula)
    atoms_of(formula)
    for sub in (formula.left, formula.right, formula.right.operand):
        assert not hasattr(sub, "_fingerprint") and not hasattr(sub, "_atoms")


def test_module_fingerprint_follows_mutation():
    module = build_simple_latch()
    before = module_fingerprint(module)
    module.add_input("late_input")
    assert module_fingerprint(module) != before


class _KeyLog(ResultCache):
    """A memory cache that records every key it is asked for."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return super().get(key)


#: Engine-run keys of mal_fig2's primary query, computed before fingerprints
#: were cached on nodes (the portfolio and auto keys: before the portfolio's
#: member set became fixed); on-disk caches written then must still hit.
PINNED_KEYS = {
    ("explicit", 12): "7c2a80b1cccc58e056690419f09fb1942b82f41014987e8d7556797400945e26",
    ("bmc", 6): "97bd0086d638d70d5758e88ba22ba92c6a27497f3ddf836a1999ecd9261e6efa",
    ("portfolio", 6): "d313fadb5c3b8524dfca1f5bef65dcd74e2922b79397b9f755dbb7f9ac832f38",
    ("auto", 6): "a60894ed7e64578a40bb792078215f6fa41ebb2473f8195bc6da46596376d704",
}


@pytest.mark.parametrize("engine, bound", sorted(PINNED_KEYS))
def test_engine_run_keys_are_pinned(engine, bound):
    log = _KeyLog()
    with using_result_cache(log):
        get_engine(engine, max_bound=bound).check_primary(get_design("mal_fig2").builder())
    # The run's own key comes first; portfolio and auto members look up
    # theirs after it (in race order), base engines look up nothing else.
    assert log.keys[0] == PINNED_KEYS[engine, bound]
    if engine in ("explicit", "bmc"):
        assert len(log.keys) == 1
