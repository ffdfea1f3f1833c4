"""Characteristic LTL formula ``T_M`` of a concrete module (Definition 4).

For an FSM ``M = <I, O, S, S0, L, T>`` the paper defines::

    T_M = L(S0) & G( OR_{(s,i,s') in T}  L(s) & i & X L(s') )

``T_M`` exactly represents the runs of ``M`` (over the state variables and
inputs).  This module builds that formula from a netlist:

* sequential modules go through FSM extraction
  (:func:`repro.rtl.fsm.extract_fsm`); transition guards are minimised cube
  covers so the printed formula matches the paper's "after minimization" form
  of Example 3;
* purely combinational modules (glue logic such as ``M1``) yield
  ``G(out <-> f(inputs))`` — "nesting a global operator G above the Boolean
  function it implements";
* combinational outputs of sequential modules are conjoined as additional
  ``G(out <-> f(state, inputs))`` constraints, so the formula speaks about the
  module's interface signals and not only its state bits.

``T_M`` for a set of concurrent modules is the conjunction of the individual
formulas, as prescribed after Definition 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.bdd import BDDManager
from ..logic.boolexpr import FALSE as BOOL_FALSE, TRUE as BOOL_TRUE, AndExpr, BoolExpr, Const, NotExpr, OrExpr, Var, XorExpr
from ..logic.cube import Cover, Cube
from ..ltl.ast import FALSE, TRUE, Always, Atom, Formula, Iff, Next, Not, conj, disj
from ..obs import metrics
from ..rtl.fsm import FSM, extract_fsm
from ..rtl.netlist import Module

__all__ = ["TMResult", "boolexpr_to_formula", "cube_to_formula", "cover_to_formula",
           "build_tm", "build_tm_for_modules"]


@dataclass
class TMResult:
    """``T_M`` for one module plus the artefacts used to build it."""

    module_name: str
    formula: Formula
    fsm: Optional[FSM] = None
    combinational: bool = False
    elapsed_seconds: float = 0.0


def boolexpr_to_formula(expr: BoolExpr) -> Formula:
    """Convert a netlist boolean expression into an (atemporal) LTL formula."""
    if isinstance(expr, Const):
        return TRUE if expr.value else FALSE
    if isinstance(expr, Var):
        return Atom(expr.name)
    if isinstance(expr, NotExpr):
        return Not(boolexpr_to_formula(expr.operand))
    if isinstance(expr, AndExpr):
        return conj(*(boolexpr_to_formula(operand) for operand in expr.operands))
    if isinstance(expr, OrExpr):
        return disj(*(boolexpr_to_formula(operand) for operand in expr.operands))
    if isinstance(expr, XorExpr):
        result = boolexpr_to_formula(expr.operands[0])
        for operand in expr.operands[1:]:
            right = boolexpr_to_formula(operand)
            result = disj(conj(result, Not(right)), conj(Not(result), right))
        return result
    raise TypeError(f"cannot convert boolean expression of type {type(expr).__name__}")


def cube_to_formula(cube: Cube) -> Formula:
    """A cube as a conjunction of literals."""
    parts: List[Formula] = []
    for name, value in cube:
        parts.append(Atom(name) if value else Not(Atom(name)))
    return conj(*parts)


def cover_to_formula(cover: Cover) -> Formula:
    """A cover as a disjunction of cube conjunctions."""
    return disj(*(cube_to_formula(cube) for cube in cover))


def _fold_constant(expr: BoolExpr) -> BoolExpr:
    """Collapse semantically constant net functions.

    A driven net whose function is a tautology (or contradiction) in disguise
    yields ``G(net <-> 1)`` / ``G(net <-> 0)`` instead of dragging the whole
    syntactic expression into ``T_M``.  One ROBDD over the net's support
    answers both questions (its root is a terminal exactly when the function
    is constant), and it stays cheap on wide supports, where a truth-table
    sweep would not.
    """
    if not expr.variables():
        return expr
    metrics().inc("prop.bdd.queries")
    function = BDDManager(sorted(expr.variables())).from_expr(expr)
    if function.is_true():
        return BOOL_TRUE
    if function.is_false():
        return BOOL_FALSE
    return expr


def _output_constraints(module: Module) -> List[Formula]:
    """``G(out <-> f(...))`` for every combinationally-driven output."""
    constraints: List[Formula] = []
    for output in module.outputs:
        expr = module.assigns.get(output)
        if expr is None:
            continue
        constraints.append(Always(Iff(Atom(output), boolexpr_to_formula(_fold_constant(expr)))))
    return constraints


def build_tm(module: Module) -> TMResult:
    """Build the characteristic formula ``T_M`` of one concrete module."""
    start = time.perf_counter()
    module.validate(allow_undriven=True)

    if module.is_combinational():
        # Glue logic: G over the input/output relation it implements.
        constraints = _output_constraints(module)
        # Non-output internal nets still constrain the relation between signals
        # mentioned elsewhere; include them so T_M is exact for the module.
        for name, expr in module.assigns.items():
            if name not in module.outputs:
                constraints.append(Always(Iff(Atom(name), boolexpr_to_formula(_fold_constant(expr)))))
        formula = conj(*constraints) if constraints else TRUE
        return TMResult(
            module_name=module.name,
            formula=formula,
            fsm=None,
            combinational=True,
            elapsed_seconds=time.perf_counter() - start,
        )

    fsm = extract_fsm(module)
    initial_label = cube_to_formula(fsm.label(fsm.initial_state))
    transition_disjuncts: List[Formula] = []
    for transition in fsm.transitions:
        source_label = cube_to_formula(fsm.label(transition.source))
        guard = cover_to_formula(transition.guard)
        target_label = cube_to_formula(fsm.label(transition.target))
        transition_disjuncts.append(conj(source_label, guard, Next(target_label)))
    transition_relation = Always(disj(*transition_disjuncts)) if transition_disjuncts else TRUE

    parts: List[Formula] = [initial_label, transition_relation]
    parts.extend(_output_constraints(module))
    # Internal combinational nets referenced by the interface or the registers.
    for name, expr in module.assigns.items():
        if name not in module.outputs:
            parts.append(Always(Iff(Atom(name), boolexpr_to_formula(_fold_constant(expr)))))
    formula = conj(*parts)
    return TMResult(
        module_name=module.name,
        formula=formula,
        fsm=fsm,
        combinational=False,
        elapsed_seconds=time.perf_counter() - start,
    )


# T_M is a function of the modules' structure alone, so builds are memoized
# structurally: a gap analysis over N architectural properties builds T_M
# once, not N times.
_TM_CACHE: Dict[Tuple, Tuple[Formula, Tuple[TMResult, ...], float]] = {}
_TM_CACHE_LIMIT = 128


def build_tm_for_modules(
    modules: Sequence[Module],
) -> Tuple[Formula, List[TMResult], float]:
    """``T_M`` for a set of concurrent modules: the conjunction of each ``T_Mi``.

    Returns ``(conjunction, per-module results, total build time in seconds)``.
    Results are memoized on the modules' structural fingerprints; a cache hit
    reports the original build time (the cost the paper's Table 1 charges).
    """
    from ..runner.cache import module_fingerprint

    key = tuple(module_fingerprint(module) for module in modules)
    cached = _TM_CACHE.get(key)
    if cached is not None:
        formula, results, total = cached
        # A fresh list per caller: tm_results is a public field of
        # CoverageHole, and a caller mutating it must not poison the cache.
        return formula, list(results), total

    results: List[TMResult] = []
    start = time.perf_counter()
    for module in modules:
        results.append(build_tm(module))
    total = time.perf_counter() - start
    formula = conj(*(result.formula for result in results)) if results else TRUE
    if len(_TM_CACHE) >= _TM_CACHE_LIMIT:
        _TM_CACHE.clear()
    _TM_CACHE[key] = (formula, tuple(results), total)
    return formula, results, total
