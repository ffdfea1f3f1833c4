#!/usr/bin/env python3
"""Ask the explicit, bmc and symbolic engines the same coverage question.

The Figure-4 arbiter problem is built through :class:`SpecMatcher`, and the
primary coverage question (Theorem 1) is put to each of the three engines in
turn: explicit-state model checking, SAT-based bounded model checking and the
symbolic BDD fixpoint.  They must agree, so the script exits 1 if they do not.
A supporting invariant of the cache access logic is then checked by the
explicit model checker, which is complete on this finite design.

Run with::

    python examples/three_engines.py
"""

import sys

from repro.core import SpecMatcher
from repro.designs.mal import (
    architectural_property,
    build_cache_logic,
    build_masking_glue_fig4,
    environment_assumption,
)
from repro.engines import get_engine
from repro.ltl.parser import parse
from repro.mc import check


def main() -> int:
    matcher = SpecMatcher("MAL (Fig 4)")
    matcher.add_architectural_property(architectural_property())
    matcher.add_assumption(environment_assumption())
    matcher.add_rtl_properties([
        "G (n1 -> X g1)",
        "G (!n1 & n2 -> X g2)",
        "G (g1 & g2 -> false)",   # grants are mutually exclusive
        "G(X g1 -> n1)",
        "G(X g2 -> (!n1 & n2))",
        "!g1 & !g2",
    ])
    matcher.add_concrete_module(build_masking_glue_fig4())
    matcher.add_concrete_module(build_cache_logic())

    engines = [
        ("explicit-state engine", get_engine("explicit")),
        ("SAT-based BMC engine", get_engine("bmc", max_bound=6)),
        ("symbolic BDD engine", get_engine("symbolic")),
    ]
    verdicts = []
    for label, engine in engines:
        verdict = engine.check_primary(matcher.problem)
        print(f"{label:<22}: {verdict.summary()}")
        verdicts.append(verdict.covered)

    invariant = check(build_cache_logic(), parse("G !(d1 & d2)"))
    print(f"cache invariant !(d1 & d2): {'holds' if invariant.holds else 'violated'}")

    if len(set(verdicts)) != 1:
        print("engines disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
