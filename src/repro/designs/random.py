"""Seeded random FSM designs and LTL specifications.

The paper's Table 1 has four circuits; the ROADMAP asks for "as many
scenarios as you can imagine".  This module generates them: given a seed it
deterministically builds a synchronous netlist (random register next-state
functions and combinational nets over a configurable number of signals) plus a
random RTL specification and architectural intent over the module's interface,
packaged as a :class:`~repro.core.spec.CoverageProblem` that passes
``validate()`` (Assumption 1 holds by construction — every formula is written
over interface signals).

Uses
----
* the coverage-suite runner (``specmatcher suite --random N --seed S``)
  shards random designs next to the built-in catalog,
* the property-based differential tests cross-check the explicit and BMC
  engines (and the BDD-decided propositional predicates) on inputs nobody
  hand-picked, and
* :func:`register_random_designs` adds entries to the global catalog so every
  design-generic tool (``check``/``analyze``/``list``) works on them.

Everything is driven by :class:`random.Random` instances seeded from
``(seed, index)`` — never the global RNG — so generation is reproducible
across processes and ``PYTHONHASHSEED`` values (suite shards rebuild the same
design in every worker).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import List, Optional, Sequence

from ..core.spec import CoverageProblem
from ..logic.boolexpr import BoolExpr, FALSE, TRUE, and_, not_, or_, var, xor
from ..ltl.ast import (
    Always,
    Atom,
    Eventually,
    Formula,
    Implies,
    Next,
    Not,
    Until,
    conj,
    disj,
)
from ..rtl.netlist import Module

__all__ = [
    "RandomDesignSpec",
    "random_boolexpr",
    "random_formula",
    "random_module",
    "random_problem",
    "random_design_entries",
    "register_random_designs",
]


@dataclass(frozen=True)
class RandomDesignSpec:
    """Size/seed parameters of one random design (picklable, hashable).

    ``seed`` and ``index`` identify the design; the remaining fields scale it.
    The defaults produce designs small enough for the complete explicit-state
    engine to answer every suite query in well under a second.
    """

    seed: int
    index: int = 0
    inputs: int = 2
    registers: int = 2
    wires: int = 1
    rtl_properties: int = 3
    architectural_properties: int = 1
    expr_depth: int = 2
    formula_depth: int = 2

    @property
    def name(self) -> str:
        return f"random_s{self.seed}_{self.index:03d}"

    def rng(self) -> random.Random:
        """A fresh deterministic RNG for this (seed, index) pair."""
        return random.Random((self.seed * 1_000_003) ^ (self.index * 7919))


def random_boolexpr(rng: random.Random, names: Sequence[str], depth: int) -> BoolExpr:
    """A random boolean expression over ``names`` of at most ``depth`` levels."""
    names = list(names)
    if depth <= 0 or rng.random() < 0.28:
        roll = rng.random()
        if roll < 0.04:
            return TRUE if rng.random() < 0.5 else FALSE
        leaf = var(rng.choice(names))
        return not_(leaf) if roll < 0.45 else leaf
    operator = rng.choice(("and", "and", "or", "or", "not", "xor"))
    if operator == "not":
        return not_(random_boolexpr(rng, names, depth - 1))
    arity = rng.choice((2, 2, 3))
    operands = [random_boolexpr(rng, names, depth - 1) for _ in range(arity)]
    if operator == "and":
        return and_(*operands)
    if operator == "or":
        return or_(*operands)
    return xor(*operands)


def random_formula(
    rng: random.Random,
    names: Sequence[str],
    depth: int,
    *,
    temporal: bool = True,
) -> Formula:
    """A random LTL formula over atoms ``names`` of at most ``depth`` levels.

    The grammar is weighted towards the shapes the paper's specifications use
    (guarded ``G`` invariants, ``X`` chains, occasional ``U``/``F``); with
    ``temporal=False`` only boolean connectives are produced.
    """
    names = list(names)
    if depth <= 0 or rng.random() < 0.3:
        literal: Formula = Atom(rng.choice(names))
        return Not(literal) if rng.random() < 0.4 else literal
    choices = ["and", "or", "not", "implies"]
    if temporal:
        choices += ["next", "always", "eventually", "until"]
    operator = rng.choice(choices)
    if operator == "not":
        return Not(random_formula(rng, names, depth - 1, temporal=temporal))
    if operator == "next":
        return Next(random_formula(rng, names, depth - 1, temporal=temporal))
    if operator == "always":
        return Always(random_formula(rng, names, depth - 1, temporal=temporal))
    if operator == "eventually":
        return Eventually(random_formula(rng, names, depth - 1, temporal=temporal))
    left = random_formula(rng, names, depth - 1, temporal=temporal)
    right = random_formula(rng, names, depth - 1, temporal=temporal)
    if operator == "and":
        return conj(left, right)
    if operator == "or":
        return disj(left, right)
    if operator == "implies":
        return Implies(left, right)
    return Until(left, right)


def random_module(spec: RandomDesignSpec, rng: Optional[random.Random] = None) -> Module:
    """A random synchronous netlist shaped by ``spec``.

    Signals are named ``i<k>`` (inputs), ``q<k>`` (registers) and ``w<k>``
    (combinational nets); registers and nets are exported as outputs, so the
    module interface carries the full observable behaviour.
    """
    rng = rng or spec.rng()
    module = Module(spec.name)
    input_names = [f"i{k}" for k in range(spec.inputs)]
    register_names = [f"q{k}" for k in range(spec.registers)]
    wire_names = [f"w{k}" for k in range(spec.wires)]
    for name in input_names:
        module.add_input(name)
    support = input_names + register_names
    for name in register_names:
        module.add_register(
            name,
            random_boolexpr(rng, support, spec.expr_depth),
            init=rng.random() < 0.5,
        )
        module.add_output(name)
    for name in wire_names:
        module.add_assign(name, random_boolexpr(rng, support, spec.expr_depth))
        module.add_output(name)
    return module


def _random_architectural(rng: random.Random, names: Sequence[str], depth: int) -> Formula:
    """An architectural property: a legible guarded ``G``-invariant.

    Shape ``G(guard -> X^k consequence)`` — the form the gap-finding pipeline
    is built to weaken, so random designs exercise the whole Algorithm 1, not
    just the primary question.
    """
    guard = random_formula(rng, names, depth, temporal=False)
    consequence: Formula = random_formula(rng, names, depth, temporal=False)
    for _ in range(rng.randrange(0, 2)):
        consequence = Next(consequence)
    return Always(Implies(guard, consequence))


def random_problem(spec: RandomDesignSpec) -> CoverageProblem:
    """The :class:`CoverageProblem` of one random design (deterministic in ``spec``).

    RTL properties are rejection-sampled against the module: a candidate is
    kept only if the spec so far *plus* the candidate still admits a run of
    the module.  Without this, a conjunction of unconstrained random formulas
    is almost always unsatisfiable on the design, which would make every
    coverage verdict vacuously "covered" and every signal dead — a useless
    test scenario.  Sampling is deterministic in ``spec``, so suite workers
    rebuild the identical problem — and the sampling queries go through the
    explicit coverage engine, so with a result cache active they replay from
    it instead of re-running in every worker and on every warm rerun.
    """
    from ..engines.coverage import get_engine

    find_run = get_engine("explicit").find_run
    rng = spec.rng()
    module = random_module(spec, rng)
    interface = sorted(set(module.interface_signals()))
    problem = CoverageProblem(spec.name)
    for _ in range(max(1, spec.architectural_properties)):
        problem.add_architectural_property(
            _random_architectural(rng, interface, spec.formula_depth)
        )
    accepted: List[Formula] = []
    attempts = 0
    while len(accepted) < spec.rtl_properties and attempts < 25 * spec.rtl_properties:
        attempts += 1
        candidate = random_formula(rng, interface, spec.formula_depth)
        if find_run(module, accepted + [candidate]).satisfiable:
            accepted.append(candidate)
    for formula in accepted:
        problem.add_rtl_property(formula)
    problem.add_concrete_module(module)
    return problem


def random_design_entries(count: int, seed: int, **sizes) -> List["DesignEntry"]:
    """Catalog entries for ``count`` random designs derived from ``seed``.

    ``sizes`` override the :class:`RandomDesignSpec` scale fields (e.g.
    ``registers=3``).  The expected verdict of a random design is unknown, so
    ``expected_covered`` is ``None``.
    """
    from .catalog import DesignEntry

    entries: List[DesignEntry] = []
    for index in range(count):
        spec = replace(RandomDesignSpec(seed=seed, index=index), **sizes)
        entries.append(
            DesignEntry(
                name=spec.name,
                builder=partial(random_problem, spec),
                expected_covered=None,
                description=(
                    f"random design (seed {seed}, index {index}): "
                    f"{spec.inputs} inputs, {spec.registers} registers, "
                    f"{spec.rtl_properties} RTL properties"
                ),
                random_spec=spec,
            )
        )
    return entries


def register_random_designs(count: int, seed: int, **sizes) -> List[str]:
    """Add ``count`` random designs to the global catalog; returns their names.

    Re-registration with the same seed is idempotent (the entries are
    regenerated deterministically).
    """
    from .catalog import CATALOG

    names: List[str] = []
    for entry in random_design_entries(count, seed, **sizes):
        CATALOG[entry.name] = entry
        names.append(entry.name)
    return names
