"""Explicit-state LTL model checking on concrete modules.

Two query styles are offered, matching how the paper uses model checking:

* :func:`find_run` — the *existential* query behind Theorem 1: "is there a run
  of the concrete modules ``M`` satisfying all the given formulas?"  (The RTL
  specification covers the architectural intent iff ``find_run(M, [!A] + R)``
  returns nothing.)
* :func:`check` — the classical *universal* query: "does every run of ``M``
  (under optional assumptions) satisfy the property?"  Used to validate
  designs in the test-suite and by the gap-closure verification.

Both reduce to emptiness of the product built by
:mod:`repro.mc.product`; counterexamples / witnesses are returned as
signal-level :class:`~repro.ltl.traces.LassoTrace` objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..ltl.ast import Formula, Not
from ..ltl.buchi import GeneralizedBuchi
from ..ltl.traces import LassoTrace
from ..obs import metrics, span
from ..problem.ir import compiled_automata
from ..rtl.kripke import KripkeStructure, kripke_from_module
from ..rtl.netlist import Module
from .counterexample import lasso_to_signal_trace
from .product import ProductStatistics, kripke_automata_product

__all__ = [
    "ModelCheckResult",
    "ExistentialResult",
    "find_run",
    "check",
    "build_kripke",
]

ModelLike = Union[Module, KripkeStructure]


@dataclass
class ExistentialResult:
    """Result of an existential query (:func:`find_run`)."""

    satisfiable: bool
    witness: Optional[LassoTrace] = None
    statistics: ProductStatistics = field(default_factory=ProductStatistics)
    elapsed_seconds: float = 0.0


@dataclass
class ModelCheckResult:
    """Result of a universal query (:func:`check`)."""

    holds: bool
    counterexample: Optional[LassoTrace] = None
    statistics: ProductStatistics = field(default_factory=ProductStatistics)
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def build_kripke(
    model: ModelLike,
    formulas: Sequence[Formula] = (),
    extra_free: Sequence[str] = (),
) -> KripkeStructure:
    """Return the Kripke structure of a model, adding property atoms as free signals."""
    if isinstance(model, KripkeStructure):
        return model
    from ..ltl.ast import atoms_of

    property_atoms: List[str] = []
    for formula in formulas:
        for name in sorted(atoms_of(formula)):
            if name not in property_atoms:
                property_atoms.append(name)
    for name in extra_free:
        if name not in property_atoms:
            property_atoms.append(name)
    return kripke_from_module(model, extra_free=property_atoms)


def find_run(
    model: ModelLike,
    formulas: Sequence[Formula],
    *,
    extra_free: Sequence[str] = (),
    automata: Optional[Sequence[GeneralizedBuchi]] = None,
) -> ExistentialResult:
    """Search for a run of the model satisfying every formula simultaneously.

    ``automata`` supplies precompiled property automata (from a
    :class:`~repro.problem.CompiledProblem`); when omitted they are compiled
    from the formulas here.
    """
    start = time.perf_counter()
    with span("explicit_kripke"):
        kripke = build_kripke(model, formulas, extra_free)
        automata = list(automata if automata is not None else compiled_automata(formulas))
    statistics = ProductStatistics()
    with span("explicit_product"):
        product = kripke_automata_product(kripke, automata, statistics=statistics)
    with span("explicit_emptiness") as sp:
        lasso = product.accepting_lasso()
        sp.set(
            product_states=statistics.product_states,
            product_transitions=statistics.product_transitions,
        )
    registry = metrics()
    registry.inc("explicit.runs")
    registry.inc("explicit.kripke_states", statistics.kripke_states)
    registry.inc("explicit.product_states", statistics.product_states)
    registry.inc("explicit.product_transitions", statistics.product_transitions)
    elapsed = time.perf_counter() - start
    if lasso is None:
        return ExistentialResult(False, None, statistics, elapsed)
    with span("explicit_witness"):
        witness = lasso_to_signal_trace(product, lasso, kripke)
    return ExistentialResult(True, witness, statistics, elapsed)


def check(
    model: ModelLike,
    property_formula: Formula,
    *,
    assumptions: Sequence[Formula] = (),
    extra_free: Sequence[str] = (),
) -> ModelCheckResult:
    """Check that every run of the model satisfying the assumptions satisfies the property.

    The universal query is the existential one on ``!property``: a run that
    satisfies the assumptions and violates the property is a counterexample.
    """
    run = find_run(model, [Not(property_formula)] + list(assumptions), extra_free=extra_free)
    return ModelCheckResult(not run.satisfiable, run.witness, run.statistics, run.elapsed_seconds)
