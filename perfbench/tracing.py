"""Layer tracing for the traced benchmark run.

The wrappers here patch the public functions of each specmatcher layer where
they are looked up (a module attribute or a class method), record one span per
call in memory, and fold the spans into per-layer metrics when the run ends.
Nothing under ``src/`` changes: tracing is installed from the benchmark's own
files and removed again by the function :func:`install` returns.

A span is ``(span_id, name, start, end, parent_id, op_id)`` with times from
``time.monotonic`` (one clock for every process on the machine, so spans
recorded inside the service daemon line up with the client's timed window).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import self_times, span_counts


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.attrs: Dict[int, dict] = {}
        self.op_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs_of: Optional[Callable] = None,
        new_op: bool = False,
    ) -> Callable:
        """``fn`` recording a span named ``name``; ``attrs_of(args, kwargs, result)`` adds attributes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_op:
                tracer.op_id = next(tracer._ops)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            op_id = tracer.op_id
            stack.append(span_id)
            attrs = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                end = time.monotonic()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((span_id, name, start, end, parent, op_id))
                    if attrs:
                        tracer.attrs[span_id] = attrs

        return traced


def _patch(patches: list, owner, attribute: str, replacement) -> None:
    patches.append((owner, attribute, getattr(owner, attribute)))
    setattr(owner, attribute, replacement)


def install(tracer: Tracer, *, service: bool = False) -> Callable[[], None]:
    """Wrap every traced layer function; returns the function that unwraps them."""
    import repro.bmc.engine
    import repro.core.coverage
    import repro.core.hole
    import repro.core.terms
    import repro.core.weaken
    import repro.ltl.monitor
    import repro.mc.modelcheck
    import repro.mc.symbolic
    import repro.problem
    from repro.engines.coverage import CoverageEngine
    from repro.ltl.buchi import GeneralizedBuchi
    from repro.runner.cache import ResultCache
    from repro.sat.solver import SatSolver

    patches: list = []
    wrap = tracer.wrap
    # Automata are unhashable dataclasses: remember products by identity.
    products = weakref.WeakValueDictionary()

    def product_attrs(args, kwargs, result):
        products[id(result)] = result
        return None

    def find_run_attrs(args, kwargs, result):
        formulas = args[2] if len(args) > 2 else kwargs.get("formulas")
        return {"formulas": len(formulas)} if formulas is not None else None

    def witness_attrs(args, kwargs, result):
        problem = args[0]
        return {"base": 1 + len(problem.all_rtl_formulas()), "found": len(result)}

    def closed_attrs(args, kwargs, result):
        return {"closed": bool(result)}

    def kripke_attrs(args, kwargs, result):
        return {"states": result.state_count()}

    _patch(patches, repro.problem, "compile_problem", wrap("problem.compile", repro.problem.compile_problem))
    _patch(patches, repro.ltl.monitor, "monitor_or_tableau",
           wrap("ltl.automaton", repro.ltl.monitor.monitor_or_tableau))
    _patch(patches, repro.core.weaken, "ltl_implies", wrap("ltl.implies", repro.core.weaken.ltl_implies))
    _patch(patches, repro.mc.modelcheck, "kripke_from_module",
           wrap("rtl.kripke", repro.mc.modelcheck.kripke_from_module, kripke_attrs))
    _patch(patches, repro.mc.modelcheck, "kripke_automata_product",
           wrap("mc.product", repro.mc.modelcheck.kripke_automata_product, product_attrs))
    _patch(patches, repro.mc.symbolic, "find_run_symbolic",
           wrap("mc.symbolic", repro.mc.symbolic.find_run_symbolic))
    _patch(patches, repro.bmc.engine, "find_run_bmc", wrap("bmc.find_run", repro.bmc.engine.find_run_bmc))
    _patch(patches, SatSolver, "solve", wrap("sat.solve", SatSolver.solve))
    _patch(patches, CoverageEngine, "find_run", wrap("engines.find_run", CoverageEngine.find_run, find_run_attrs))
    _patch(patches, CoverageEngine, "is_covered_with",
           wrap("core.closure", CoverageEngine.is_covered_with, closed_attrs))
    _patch(patches, repro.core.hole, "hole_closes_gap",
           wrap("core.closure", repro.core.hole.hole_closes_gap, closed_attrs))
    _patch(patches, repro.core.coverage, "coverage_hole", wrap("core.tm", repro.core.coverage.coverage_hole))
    _patch(patches, repro.core.coverage, "primary_coverage_check",
           wrap("core.primary", repro.core.coverage.primary_coverage_check))
    _patch(patches, repro.core.terms, "collect_gap_witnesses",
           wrap("core.witness", repro.core.terms.collect_gap_witnesses, witness_attrs))
    _patch(patches, repro.core.coverage, "generate_candidates",
           wrap("core.weaken", repro.core.coverage.generate_candidates))
    _patch(patches, repro.core.coverage, "select_weakest", wrap("core.weaken", repro.core.coverage.select_weakest))
    _patch(patches, ResultCache, "get", wrap("runner.cache.get", ResultCache.get))
    _patch(patches, ResultCache, "put", wrap("runner.cache.put", ResultCache.put))

    # Emptiness checks run on the explicit product and also inside the LTL
    # decision procedures; only the product's count as the mc layer.
    plain_lasso = GeneralizedBuchi.accepting_lasso
    traced_lasso = wrap("mc.emptiness", plain_lasso)

    def accepting_lasso(self):
        if products.get(id(self)) is self:
            return traced_lasso(self)
        return plain_lasso(self)

    _patch(patches, GeneralizedBuchi, "accepting_lasso", accepting_lasso)

    if service:
        import repro.service.server

        _patch(patches, repro.service.server, "execute_job",
               wrap("service.execute_job", repro.service.server.execute_job, new_op=True))

    def uninstall() -> None:
        while patches:
            owner, attribute, original = patches.pop()
            setattr(owner, attribute, original)

    return uninstall


# -- folding spans and counters into per-layer metrics --------------------------

#: Spans whose calls and self time are reported per timed op.
SPAN_LAYERS = (
    "problem.compile",
    "ltl.automaton",
    "ltl.implies",
    "rtl.kripke",
    "mc.product",
    "mc.symbolic",
    "bmc.find_run",
    "sat.solve",
    "engines.find_run",
)

#: Unit of every per-layer metric a traced run reports.  Counts and self
#: times are per timed op; ratios, peaks and whole-window counts are not.
LAYER_UNITS: Dict[str, str] = {
    **{f"{name}.calls": "count/op" for name in SPAN_LAYERS},
    **{f"{name}.self_s": "s/op" for name in SPAN_LAYERS},
    "problem.compile.memo_hit_ratio": "ratio",
    "rtl.kripke.states": "count/op",
    "mc.product.states": "count/op",
    "mc.product.transitions": "count/op",
    "mc.emptiness.self_s": "s/op",
    "mc.symbolic.image_iterations": "count/op",
    "bmc.sat_calls": "count/op",
    "bmc.solver_reused": "count/op",
    "sat.conflicts": "count/op",
    "sat.propagations": "count/op",
    "logic.bdd.peak_nodes": "nodes",
    "logic.prop.queries": "count/op",
    "engines.cancelled": "count",
    "core.tm.self_s": "s/op",
    "core.primary.self_s": "s/op",
    "core.witness.queries": "count/op",
    "core.witness.yield_ratio": "ratio",
    "core.witness.excluded_query_s": "s/op",
    "core.weaken.self_s": "s/op",
    "core.closure.checks": "count/op",
    "core.closure.closed_ratio": "ratio",
    "core.closure.self_s": "s/op",
    "runner.cache.hits": "count/op",
    "runner.cache.misses": "count/op",
    "runner.cache.stores": "count/op",
    "runner.cache.hit_ratio": "ratio",
    "runner.cache.get_self_s": "s/op",
    "runner.cache.put_self_s": "s/op",
    "service.overhead_s": "s",
    "service.execute_job.self_s": "s/op",
    "service.non200": "count",
    "trace.overhead_ratio": "ratio",
}


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after.get("counters", {}).get(name, 0) - before.get("counters", {}).get(name, 0)


def counter_prefix_delta(before: dict, after: dict, prefix: str, suffix: str) -> float:
    names = set(after.get("counters", {})) | set(before.get("counters", {}))
    return sum(
        counter_delta(before, after, name)
        for name in names
        if name.startswith(prefix) and name.endswith(suffix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Tuple],
    attrs: Dict[int, dict],
    before: dict,
    after: dict,
    ops: int,
    service_overhead_s: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics of one timed window.

    Counts and self times are per timed op; ratios and peaks are not.
    ``before``/``after`` are ``repro.obs.metrics().snapshot()`` dicts taken
    around the window; ``service_overhead_s`` comes from the client side.
    """
    ops = max(1, ops)
    own = self_times(spans)
    calls = span_counts(spans)
    by_id = {span[0]: span for span in spans}
    delta = functools.partial(counter_delta, before, after)
    out: Dict[str, float] = {}
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = calls.get(name, 0) / ops
        out[f"{name}.self_s"] = own.get(name, 0.0) / ops

    hits = delta("compile.cache_hits")
    misses = delta("compile.cache_misses")
    out["problem.compile.memo_hit_ratio"] = _ratio(hits, hits + misses)
    out["rtl.kripke.states"] = sum(
        attrs.get(span[0], {}).get("states", 0) for span in spans if span[1] == "rtl.kripke"
    ) / ops
    out["mc.product.states"] = delta("explicit.product_states") / ops
    out["mc.product.transitions"] = delta("explicit.product_transitions") / ops
    out["mc.emptiness.self_s"] = own.get("mc.emptiness", 0.0) / ops
    out["mc.symbolic.image_iterations"] = delta("symbolic.image_iterations") / ops
    out["bmc.sat_calls"] = delta("bmc.sat_calls") / ops
    out["bmc.solver_reused"] = delta("bmc.solver_reused") / ops
    out["sat.conflicts"] = delta("sat.conflicts") / ops
    out["sat.propagations"] = delta("sat.propagations") / ops
    gauges = after.get("gauges", {})
    out["logic.bdd.peak_nodes"] = float(gauges.get("bdd.nodes", 0) or 0)
    out["logic.prop.queries"] = counter_prefix_delta(before, after, "prop.", ".queries") / ops
    out["engines.cancelled"] = float(
        sum(1 for span in spans if span[1] == "engines.find_run"
            and attrs.get(span[0], {}).get("error") == "Cancelled")
    )

    out["core.tm.self_s"] = own.get("core.tm", 0.0) / ops
    out["core.primary.self_s"] = own.get("core.primary", 0.0) / ops
    queries = 0
    excluded_s = 0.0
    for span in spans:
        parent = by_id.get(span[4]) if span[4] is not None else None
        if span[1] != "engines.find_run" or parent is None or parent[1] != "core.witness":
            continue
        queries += 1
        base = attrs.get(parent[0], {}).get("base")
        if base is not None and attrs.get(span[0], {}).get("formulas", 0) > base:
            excluded_s += span[3] - span[2]
    found = sum(attrs.get(span[0], {}).get("found", 0) for span in spans if span[1] == "core.witness")
    out["core.witness.queries"] = queries / ops
    out["core.witness.yield_ratio"] = _ratio(found, queries)
    out["core.witness.excluded_query_s"] = excluded_s / ops
    out["core.weaken.self_s"] = own.get("core.weaken", 0.0) / ops
    closures = [span for span in spans if span[1] == "core.closure"]
    out["core.closure.checks"] = len(closures) / ops
    out["core.closure.closed_ratio"] = _ratio(
        sum(1 for span in closures if attrs.get(span[0], {}).get("closed")), len(closures)
    )
    out["core.closure.self_s"] = own.get("core.closure", 0.0) / ops

    cache_hits = delta("result_cache.hits")
    cache_misses = delta("result_cache.misses")
    out["runner.cache.hits"] = cache_hits / ops
    out["runner.cache.misses"] = cache_misses / ops
    out["runner.cache.stores"] = delta("result_cache.stores") / ops
    out["runner.cache.hit_ratio"] = _ratio(cache_hits, cache_hits + cache_misses)
    out["runner.cache.get_self_s"] = own.get("runner.cache.get", 0.0) / ops
    out["runner.cache.put_self_s"] = own.get("runner.cache.put", 0.0) / ops

    out["service.overhead_s"] = service_overhead_s
    out["service.execute_job.self_s"] = own.get("service.execute_job", 0.0) / ops
    out["service.non200"] = float(
        counter_prefix_delta(before, after, "service.responses.", "")
        - delta("service.responses.200")
    )
    return out


def service_overhead(latencies: Sequence[float], elapsed: Sequence[float]) -> float:
    """Median of client latency minus the daemon-reported engine time."""
    if not latencies:
        return 0.0
    return median([lat - el for lat, el in zip(latencies, elapsed)])
