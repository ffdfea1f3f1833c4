"""Mapping product lassos back to signal-level counterexample traces."""

from __future__ import annotations

from typing import Dict

from ..ltl.buchi import AcceptingLasso, GeneralizedBuchi
from ..ltl.traces import LassoTrace
from ..rtl.kripke import KripkeStructure

__all__ = ["lasso_to_signal_trace"]


def lasso_to_signal_trace(
    product: GeneralizedBuchi,
    lasso: AcceptingLasso,
    kripke: KripkeStructure,
) -> LassoTrace:
    """Convert an accepting lasso of the product into a signal-level lasso.

    Each product state is annotated with its ``(kripke_state, ...)`` tuple, so
    the counterexample is simply the sequence of Kripke labels along the run.
    """

    def valuation_of(product_state: int) -> Dict[str, bool]:
        annotation = product.annotations.get(product_state)
        if isinstance(annotation, tuple) and annotation:
            kripke_state = annotation[0]
            return dict(kripke.label(kripke_state))
        # Fall back to the product label itself.
        return {name: value for name, value in product.labels.get(product_state, frozenset())}

    stem = [valuation_of(state) for state in lasso.stem]
    loop = [valuation_of(state) for state in lasso.loop]
    if not loop:
        loop = [dict(stem[-1])] if stem else [{}]
    return LassoTrace(stem, loop)
