"""The compiled coverage-problem IR.

Every engine used to re-derive the same artifacts per query — monitor/tableau
automata, free-signal lists, Kripke encodings — and always over the *whole*
module, even though each spec conjunct and each observed signal only reads a
small cone of the design.  :class:`CompiledProblem` is the compiled, immutable
intermediate representation that fixes both:

* the **cone-of-influence slice** of the module
  (:meth:`~repro.rtl.netlist.Module.slice_for` seeded by the formulas' atom
  support plus the explicitly observed signals) — signals outside the cone
  provably cannot affect the query, so the explicit, bounded and symbolic
  engines all search a smaller state space;
* the **compiled property automata** (the one formula→automaton pipeline of
  the explicit product, memoized per top-level conjunct, so the 26 RTL
  properties of a Table-1 design compile once per process, not once per
  query);
* the **free/observed signal partition** — the environment signals of the
  slice, the formula atoms the slice does not drive, and any extra observed
  signals, in the canonical order every engine (simulator, Kripke builder,
  BMC unroller, symbolic encoder) must agree on.

The result cache keys each query on :func:`repro.runner.cache.query_key` of
the slice, the formulas and the partition (:meth:`CompiledProblem.cache_extra`),
so structurally identical cones hit the cache across designs and across suite
shards.

:func:`compile_problem` is memoized on the structural identity of its inputs:
the gap-analysis pipeline (primary question, witness enumeration, closure
checks) re-asks queries over the same (design × formulas × observed) triple
constantly, and each one compiles exactly once per process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ltl.ast import Formula, atom_support, atoms_of
from ..ltl.buchi import GeneralizedBuchi
from ..ltl.rewrite import conjuncts
from ..obs import metrics, span
from ..rtl.netlist import Module

__all__ = [
    "CompiledProblem",
    "compile_problem",
    "compiled_automata",
    "compile_cache_stats",
    "clear_compile_caches",
    "AUTO_SLICE_THRESHOLD",
]

#: ``slicing="auto"`` skips the slice when the cone covers at least this
#: fraction of the module's registers: building a near-identical module costs
#: more than it saves (BENCH_engines.json recorded 0.6–0.93x *slowdowns* on
#: designs whose specs read almost everything).
AUTO_SLICE_THRESHOLD = 0.90


@dataclass(frozen=True, eq=False)
class CompiledProblem:
    """One compiled existential coverage query (immutable).

    ``module`` is the cone-of-influence slice (or the full module when
    slicing is disabled); ``automata`` are the compiled property automata in
    formula order; ``free_signals`` is the canonical environment partition of
    the slice, which :meth:`cache_extra` adds to the result-cache key.
    """

    module: Module
    formulas: Tuple[Formula, ...]
    automata: Tuple[GeneralizedBuchi, ...]
    free_signals: Tuple[str, ...]
    observed: Tuple[str, ...]
    sliced: bool
    source_name: str
    dropped_assigns: int = 0
    dropped_registers: int = 0

    @property
    def dropped_signals(self) -> int:
        """Driven signals the slice removed (0 when slicing is off)."""
        return self.dropped_assigns + self.dropped_registers

    @property
    def slice_ratio(self) -> float:
        """Fraction of the original registers the slice kept (1.0 unsliced).

        Falls back to the driven-signal ratio for purely combinational
        modules (no registers to measure the cone against).
        """
        kept_registers = len(self.module.registers)
        total_registers = kept_registers + self.dropped_registers
        if total_registers:
            return kept_registers / total_registers
        kept = len(self.module.assigns)
        total = kept + self.dropped_assigns
        return kept / total if total else 1.0

    def features(self, bound: Optional[int] = None) -> Dict[str, object]:
        """The per-query feature record of this compiled problem.

        The structural size of the (sliced) query — cone size, register
        count, automaton states — plus the bound the bounded engine would
        search to.  The ``auto`` engine picks its engine from
        ``automaton_states``.  Recorded in verdicts, suite shard rows and
        trace span attributes.
        """
        return {
            "coi_size": len(self.module.assigns) + len(self.module.registers),
            "registers": len(self.module.registers),
            "automaton_states": sum(a.state_count() for a in self.automata),
            "bound": bound,
            "formulas": len(self.formulas),
            "free_signals": len(self.free_signals),
            "sliced": self.sliced,
            "slice_ratio": round(self.slice_ratio, 4),
        }

    def cache_extra(self) -> Tuple[str, ...]:
        """Extra cache-key components beyond the sliced module + formulas.

        The free partition is part of a query's identity: two compiles with
        the same slice but different observed free signals produce witnesses
        over different alphabets, so their cached traces must not shadow each
        other.
        """
        return ("free=" + ",".join(self.free_signals),)

    def summary(self) -> str:
        kept = f"{len(self.module.assigns)} assigns, {len(self.module.registers)} registers"
        dropped = (
            f" (sliced away {self.dropped_assigns} assigns, "
            f"{self.dropped_registers} registers)"
            if self.sliced
            else " (unsliced)"
        )
        return (
            f"CompiledProblem({self.source_name}): {len(self.formulas)} formulas, "
            f"{len(self.automata)} automata, {len(self.free_signals)} free signals, "
            f"{kept}{dropped}"
        )


# -- automaton compilation (memoized per top-level conjunct) -------------------

_AUTOMATA_LOCK = threading.Lock()
_AUTOMATA_CACHE: Dict[Formula, GeneralizedBuchi] = {}
_AUTOMATA_CACHE_LIMIT = 4096


def compiled_automata(formulas: Sequence[Formula]) -> Tuple[GeneralizedBuchi, ...]:
    """Compile formulas into automata, splitting top-level conjunctions first.

    This is the single formula→automaton pipeline shared by the explicit
    product and the symbolic engine (both must compose the *same* automata or
    cross-engine agreement would be an accident), with one addition: the
    per-conjunct compilation is memoized process-wide, so the RTL properties
    that recur in every query of a gap analysis compile exactly once.
    Compiled automata are treated as immutable by every consumer.
    """
    from ..ltl.monitor import monitor_or_tableau

    automata: List[GeneralizedBuchi] = []
    for formula in formulas:
        for part in conjuncts(formula):
            with _AUTOMATA_LOCK:
                automaton = _AUTOMATA_CACHE.get(part)
            if automaton is None:
                automaton = monitor_or_tableau(part)
                with _AUTOMATA_LOCK:
                    if len(_AUTOMATA_CACHE) >= _AUTOMATA_CACHE_LIMIT:
                        _AUTOMATA_CACHE.clear()
                    _AUTOMATA_CACHE[part] = automaton
            automata.append(automaton)
    return tuple(automata)


# -- problem compilation (memoized structurally) -------------------------------


@dataclass
class CompileCacheStats:
    """Hit/miss counters of the process-wide problem-compile cache."""

    hits: int = 0
    misses: int = 0


_COMPILE_LOCK = threading.Lock()
_COMPILE_CACHE: "OrderedDict[Tuple, CompiledProblem]" = OrderedDict()
_COMPILE_CACHE_LIMIT = 512
_COMPILE_STATS = CompileCacheStats()


def compile_cache_stats() -> CompileCacheStats:
    """The (live) hit/miss counters of the compile cache."""
    return _COMPILE_STATS


def clear_compile_caches() -> None:
    """Drop the problem and automaton caches (tests / memory pressure)."""
    with _COMPILE_LOCK:
        _COMPILE_CACHE.clear()
        _COMPILE_STATS.hits = 0
        _COMPILE_STATS.misses = 0
    with _AUTOMATA_LOCK:
        _AUTOMATA_CACHE.clear()


def _free_partition(
    module: Module, formulas: Sequence[Formula], observe: Sequence[str]
) -> Tuple[str, ...]:
    """The canonical free-signal order of a compiled problem.

    Environment signals of the (sliced) module first — the single "free
    signal" definition shared by simulator/Kripke/symbolic — then formula
    atoms nobody drives, then observed signals nobody drives.
    """
    driven = set(module.assigns) | set(module.registers)
    free: List[str] = module.environment_signals()
    for formula in formulas:
        for name in sorted(atoms_of(formula)):
            if name not in driven and name not in free:
                free.append(name)
    for name in observe:
        if name not in driven and name not in free:
            free.append(name)
    return tuple(free)


def _should_slice(module: Module, cone, slicing) -> bool:
    """Resolve a slicing mode against the measured cone.

    ``True``/``False`` are honoured verbatim (differential tests rely on
    forcing both modes); ``"auto"`` skips the slice when the cone covers at
    least :data:`AUTO_SLICE_THRESHOLD` of the registers (of the driven
    signals, for register-free modules) — at that coverage the slice is a
    near-copy of the module and only costs compile time and memoization
    identity.
    """
    if not isinstance(slicing, str):
        return bool(slicing)
    total = len(module.registers)
    kept = sum(1 for name in module.registers if name in cone)
    if not total:
        total = len(module.assigns)
        kept = sum(1 for name in module.assigns if name in cone)
    if not total:
        return False
    return kept < AUTO_SLICE_THRESHOLD * total


def compile_problem(
    module: Module,
    formulas: Sequence[Formula],
    *,
    observe: Sequence[str] = (),
    slicing="auto",
) -> CompiledProblem:
    """Compile one existential query into a :class:`CompiledProblem`.

    ``observe`` lists signals that must stay in the slice (and in witness
    traces) even when no formula mentions them — the gap pipeline passes the
    ``APR`` alphabet so uncovered terms can still be projected onto it, and
    the suite's observability shards pass their target signal.

    ``slicing`` is ``True`` (always slice), ``False`` (never) or the default
    ``"auto"``: slice only when the cone of influence drops a meaningful part
    of the module (see :func:`_should_slice`) — the adaptive guard against
    the measured regression where slicing near-full cones was a net slowdown.
    The result is memoized on the structural identity of ``(module, formulas,
    observe, slicing)``.
    """
    formulas = tuple(formulas)
    observed = tuple(sorted(set(observe)))

    from ..runner.cache import module_fingerprint

    mode = slicing if isinstance(slicing, str) else bool(slicing)
    key = (module_fingerprint(module), formulas, observed, mode)
    with _COMPILE_LOCK:
        cached = _COMPILE_CACHE.get(key)
        if cached is not None:
            _COMPILE_STATS.hits += 1
            _COMPILE_CACHE.move_to_end(key)
            metrics().inc("compile.cache_hits")
            return cached
        _COMPILE_STATS.misses += 1
    metrics().inc("compile.cache_misses")

    with span("compile_problem", design=module.name, slicing=str(mode)) as sp:
        sliced = module
        do_slice = bool(slicing)
        if do_slice:
            seed = set(atom_support(formulas)) | set(observed)
            cone = module.cone_of_influence(seed)
            do_slice = _should_slice(module, cone, slicing)
            if do_slice:
                sliced = module.slice_for(seed)
            elif mode == "auto" and bool(slicing):
                metrics().inc("compile.slice_skipped")
        free_signals = _free_partition(sliced, formulas, observed)
        problem = CompiledProblem(
            module=sliced,
            formulas=formulas,
            automata=compiled_automata(formulas),
            free_signals=free_signals,
            observed=observed,
            sliced=do_slice,
            source_name=module.name,
            dropped_assigns=len(module.assigns) - len(sliced.assigns),
            dropped_registers=len(module.registers) - len(sliced.registers),
        )
        sp.set(
            coi_size=len(sliced.assigns) + len(sliced.registers),
            registers=len(sliced.registers),
            automaton_states=sum(a.state_count() for a in problem.automata),
            slice_ratio=round(problem.slice_ratio, 4),
            sliced=do_slice,
        )
    metrics().inc("compile.problems")
    if do_slice:
        metrics().inc("compile.sliced")
    with _COMPILE_LOCK:
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
            _COMPILE_CACHE.popitem(last=False)
        _COMPILE_CACHE[key] = problem
    return problem
