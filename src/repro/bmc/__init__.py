"""SAT-based bounded model checking (BMC) backend.

The explicit-state engine of :mod:`repro.mc` enumerates the reachable states
of the concrete modules; for glue-logic-sized blocks that is exactly what the
paper prescribes.  This package provides the complementary SAT-based engine:
the module's transition relation is unrolled ``k`` time-frames, lasso-shaped
runs are encoded with loop-closing constraints the solver selects among, and
the LTL obligations are translated to propositional constraints over the
unrolled signals (the linear bounded semantics of Biere et al.).  The same
primary coverage question of Theorem 1 can then be answered by the CDCL
solver of :mod:`repro.sat`.

BMC is a *witness finder*: a satisfiable query yields a concrete lasso run
(the decomposition is **not** covered); an unsatisfiable query only shows
there is no witness up to the explored bound.

Modules
-------
* :mod:`repro.bmc.unroll` — time-frame expansion of a netlist into CNF,
* :mod:`repro.bmc.ltl_bmc` — linear bounded LTL encoding over loop-selected
  lassos,
* :mod:`repro.bmc.incremental` — the persistent solver session the search
  runs on,
* :mod:`repro.bmc.engine` — the search loop and witness extraction.

The primary coverage question itself is asked through the engine layer:
``get_engine("bmc", max_bound=k).check_primary(problem)``
(:class:`~repro.engines.coverage.BmcEngine`), which slices the query, pools
sessions and caches decided queries.
"""

from .engine import BMCResult, find_run_bmc
from .unroll import UnrolledModule

__all__ = [
    "BMCResult",
    "find_run_bmc",
    "UnrolledModule",
]
