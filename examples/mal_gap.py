#!/usr/bin/env python3
"""Example 2 of the paper: the Figure 4 wiring has a coverage gap.

Moving the masking glue in front of the arbiter opens a one-cycle window in
which a later ``r2`` request can be granted while the earlier ``r1`` request is
still waiting for its cache refill; if the ``r2`` lookup hits, ``d2`` arrives
before ``d1`` and the architectural priority property is violated even though
every RTL property holds.  SpecMatcher finds the gap, shows the witness run,
the uncovered terms, and a structure-preserving gap property that closes it.

Run with::

    python examples/mal_gap.py            # full Algorithm 1 (about a minute)
    python examples/mal_gap.py --fast     # primary question + witness only
"""

import sys

from repro.core import (
    CoverageOptions,
    find_coverage_gap,
    format_gap_analysis,
    primary_coverage_check,
)
from repro.designs import build_mal_with_gap, expected_gap_property
from repro.engines import get_engine
from repro.ltl import implies, to_str
from repro.rtl import render_table


def main() -> None:
    fast = "--fast" in sys.argv
    problem = build_mal_with_gap()
    print(problem.summary())

    primary = primary_coverage_check(problem)
    print(f"primary coverage question: covered = {primary.covered} "
          f"({primary.elapsed_seconds:.2f} s)")
    if primary.witness is not None:
        print("witness run (RTL admits it, intent forbids it):")
        print(render_table(primary.witness.to_table(8),
                           ["r1", "r2", "hit", "n1", "n2", "g1", "g2", "wait", "d1", "d2"]))

    # The paper's gap property (adapted to this reproduction's timing) closes it.
    gap = expected_gap_property()
    print()
    print("reference gap property:", to_str(gap))
    print("  weaker than the intent:", implies(problem.architectural[0], gap))
    print("  closes the gap:        ", get_engine("explicit").is_covered_with(problem, [gap]))

    if fast:
        return

    print()
    print("running Algorithm 1 (witnesses -> terms -> push -> weaken) ...")
    options = CoverageOptions(max_witnesses=2, max_closure_checks=10, max_reported_gaps=2)
    analysis = find_coverage_gap(problem, problem.architectural[0], options)
    print(format_gap_analysis(analysis))


if __name__ == "__main__":
    main()
