"""LTL model checking on concrete RTL modules.

Two engines live here: the explicit-state product/nested-DFS checker
(:mod:`repro.mc.modelcheck`) and the fully symbolic BDD fixpoint checker
(:mod:`repro.mc.symbolic`).  Both answer the same existential query shape
behind result objects that downstream code treats interchangeably.
"""

from .product import ProductStatistics, kripke_automata_product
from .counterexample import lasso_to_signal_trace
from .modelcheck import (
    ModelCheckResult,
    ExistentialResult,
    find_run,
    check,
    build_kripke,
)
from .symbolic import (
    SymbolicModelError,
    SymbolicResult,
    SymbolicStatistics,
    find_run_symbolic,
)

__all__ = [
    "ProductStatistics",
    "kripke_automata_product",
    "lasso_to_signal_trace",
    "ModelCheckResult",
    "ExistentialResult",
    "find_run",
    "check",
    "build_kripke",
    "SymbolicModelError",
    "SymbolicResult",
    "SymbolicStatistics",
    "find_run_symbolic",
]
