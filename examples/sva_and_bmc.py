#!/usr/bin/env python3
"""Author properties in SVA style and cross-check the three verification engines.

This example shows the two convenience layers added around the core coverage
flow:

* the :mod:`repro.sva` front-end, so RTL properties can be written the way a
  validation engineer would write SystemVerilog Assertions (``|->``, ``##n``
  delays, ``[*n]`` repetition) and are desugared to the LTL the tool uses, and
* the SAT-based engine, used here both to answer the primary coverage
  question (Theorem 1) next to the explicit-state and symbolic engines, and
  (:mod:`repro.bmc`) to prove a supporting invariant of the cache logic by
  k-induction.

Run with::

    python examples/sva_and_bmc.py
"""

from repro.bmc import prove_invariant
from repro.core import SpecMatcher
from repro.designs.mal import (
    architectural_property,
    build_cache_logic,
    build_masking_glue_fig4,
    environment_assumption,
)
from repro.engines import get_engine
from repro.ltl.parser import parse
from repro.sva import parse_sva


def main() -> None:
    # The Figure-4 arbiter specification, written as SVA instead of raw LTL.
    arbiter_sva = [
        "always (n1 |=> g1)",
        "always (!n1 & n2 |=> g2)",
        "always (g1 ##0 g2 |-> 0)",   # grants are mutually exclusive
    ]

    matcher = SpecMatcher("MAL (Fig 4) via SVA")
    matcher.add_architectural_property(architectural_property())
    matcher.add_assumption(environment_assumption())
    for text in arbiter_sva:
        prop = parse_sva(text)
        print(f"SVA   : {prop}")
        print(f"  LTL : {prop.to_ltl()}")
        matcher.add_rtl_property(prop.to_ltl())
    matcher.add_rtl_property("G(X g1 -> n1)")
    matcher.add_rtl_property("G(X g2 -> (!n1 & n2))")
    matcher.add_rtl_property("!g1 & !g2")
    matcher.add_concrete_module(build_masking_glue_fig4())
    matcher.add_concrete_module(build_cache_logic())

    print()
    explicit = get_engine("explicit").check_primary(matcher.problem)
    print(f"explicit-state engine : {explicit.summary()}")

    bounded = get_engine("bmc", max_bound=6).check_primary(matcher.problem)
    print(f"SAT-based BMC engine  : {bounded.summary()}")

    symbolic = get_engine("symbolic").check_primary(matcher.problem)
    print(f"symbolic BDD engine   : {symbolic.summary()}")

    # A supporting invariant of the cache access logic, proved by k-induction.
    result = prove_invariant(build_cache_logic(), parse("G !(d1 & d2)"), max_k=4)
    print(f"cache invariant !(d1 & d2): {result.summary()}")


if __name__ == "__main__":
    main()
