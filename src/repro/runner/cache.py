"""Persistent decision-result cache keyed by structural query fingerprints.

PR 1's hash-consed kernel makes the *identity* of a boolean query cheap to
compute inside one process; this module extends that idea across processes and
across runs.  Every model-relative decision query — "is there a run of module
``M`` satisfying formulas ``phi_1..phi_n`` on engine ``E`` up to bound
``k``?" — is given a **stable structural fingerprint** (a SHA-256
over a canonical linearisation of the netlist expressions and the LTL
formulas), and the query's outcome (satisfiable / witness lasso / bound) is
stored under that key:

* **in memory**, so overlapping shards of one suite run never re-answer a
  decided query, and
* **on disk** (one JSON file per key, written atomically), so a warm rerun of
  the whole coverage suite is nearly free and reports its hit ratio.

Fingerprints are *structural*, not ``repr``-based: two modules with the same
inputs/assigns/registers hash identically regardless of object identity or
build order of the hash-consing tables, and the linearisation walks the
expression DAG once per node (shared sub-DAGs are emitted once), so keying a
query is linear in DAG size.  Expressions and formulas are immutable, so
their fingerprints are cached on the node asked (a pure function of an
immutable, hash-consed value); a :class:`~repro.rtl.netlist.Module` is
mutable, so its fingerprint is recomputed every time, from the cached
fingerprints of its drivers.

Engines consult the process-wide *active* cache through
:func:`active_result_cache`; the suite runner, the daemon and library
callers install one via :func:`set_result_cache` / :func:`using_result_cache`.

Each lookup, store and eviction is counted in two places: the process
metrics registry (``result_cache.*``: ``/metrics``, ``--trace``, perfbench)
and the counter of the job that made it (:func:`counting_lookups`: the
``cache`` block of a payload or suite report).  A cache directory holds only
entries; :func:`cache_dir_stats` reports what is on disk.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..logic.boolexpr import AndExpr, BoolExpr, Const, NotExpr, OrExpr, Var, XorExpr
from ..obs import metrics
from ..ltl.ast import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    WeakUntil,
)
from ..ltl.traces import LassoTrace

__all__ = [
    "expr_fingerprint",
    "formula_fingerprint",
    "module_fingerprint",
    "query_key",
    "encode_trace",
    "decode_trace",
    "CacheStats",
    "ResultCache",
    "counting_lookups",
    "active_lookup_counter",
    "cache_for_dir",
    "cache_dir_stats",
    "clear_cache_dir",
    "active_result_cache",
    "set_result_cache",
    "using_result_cache",
]


# -- structural fingerprints --------------------------------------------------


def _digest(root, children_of, line_of) -> str:
    """SHA-256 of a DAG linearised in a deterministic post-order.

    Each node contributes one line naming its operator and the numbers of
    its children (``line_of(node, child_ids)``), so shared sub-DAGs are
    serialised exactly once and the walk is linear in DAG size.
    """
    memo: Dict[object, int] = {}
    lines: List[str] = []
    stack: List[Tuple[object, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if node in memo:
            continue
        children = children_of(node)
        if not processed:
            stack.append((node, True))
            for child in reversed(children):
                if child not in memo:
                    stack.append((child, False))
            continue
        memo[node] = len(lines)
        lines.append(line_of(node, [memo[child] for child in children]))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def expr_fingerprint(expr: BoolExpr) -> str:
    """Stable fingerprint of a :class:`BoolExpr` DAG (linear in DAG size).

    The result is independent of the process, of ``PYTHONHASHSEED`` and of
    hash-consing table state.  Cached on ``expr``.
    """
    try:
        return expr._fingerprint
    except AttributeError:
        pass
    digest = _digest(expr, _expr_children, _expr_line)
    object.__setattr__(expr, "_fingerprint", digest)
    return digest


def _expr_children(node: BoolExpr) -> Tuple[BoolExpr, ...]:
    if isinstance(node, NotExpr):
        return (node.operand,)
    if isinstance(node, (AndExpr, OrExpr, XorExpr)):
        return node.operands
    return ()


def _expr_line(node: BoolExpr, child_ids: List[int]) -> str:
    if isinstance(node, Var):
        return f"v:{node.name}"
    if isinstance(node, Const):
        return f"c:{int(node.value)}"
    if isinstance(node, NotExpr):
        return f"!:{child_ids[0]}"
    if isinstance(node, AndExpr):
        return "&:" + ",".join(map(str, child_ids))
    if isinstance(node, OrExpr):
        return "|:" + ",".join(map(str, child_ids))
    if isinstance(node, XorExpr):
        return "^:" + ",".join(map(str, child_ids))
    raise TypeError(f"cannot fingerprint expression of type {type(node).__name__}")


_FORMULA_TAGS = {
    TrueFormula: "true",
    FalseFormula: "false",
    Not: "!",
    And: "&",
    Or: "|",
    Implies: "->",
    Iff: "<->",
    Next: "X",
    Eventually: "F",
    Always: "G",
    Until: "U",
    Release: "R",
    WeakUntil: "W",
}


def _formula_children(node: Formula) -> Tuple[Formula, ...]:
    return node.children()


def _formula_line(node: Formula, child_ids: List[int]) -> str:
    if isinstance(node, Atom):
        return f"a:{node.name}"
    tag = _FORMULA_TAGS.get(type(node))
    if tag is None:
        raise TypeError(f"cannot fingerprint formula of type {type(node).__name__}")
    return tag + ":" + ",".join(map(str, child_ids))


def formula_fingerprint(formula: Formula) -> str:
    """Stable fingerprint of an LTL formula tree (equal subtrees serialised once).

    Cached on ``formula``; a pickled or copied formula is rebuilt from its
    fields and recomputes it.
    """
    try:
        return formula._fingerprint
    except AttributeError:
        pass
    digest = _digest(formula, _formula_children, _formula_line)
    object.__setattr__(formula, "_fingerprint", digest)
    return digest


def module_fingerprint(module) -> str:
    """Stable fingerprint of a netlist :class:`~repro.rtl.netlist.Module`.

    Covers the interface (input/output order is part of the module's identity)
    and every driver: assigns and registers are serialised in sorted signal
    order with the structural fingerprint of their expressions, so two
    structurally identical modules key identically across processes.  The
    module *name* is deliberately excluded.

    Not cached: ``compose`` and ``Module.slice_for`` assign a module's
    fields directly, and a stale digest would be a stale cache key.  Each driver's expression fingerprint is cached on the
    expression, so this is one join and one SHA-256.
    """
    lines = [
        "in:" + ",".join(module.inputs),
        "out:" + ",".join(module.outputs),
    ]
    for name in sorted(module.assigns):
        lines.append(f"as:{name}={expr_fingerprint(module.assigns[name])}")
    for name in sorted(module.registers):
        register = module.registers[name]
        lines.append(f"rg:{name}={expr_fingerprint(register.next_value)}:{int(register.init)}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def query_key(
    kind: str,
    module,
    formulas: Sequence[Formula],
    *,
    engine: str,
    bound: Optional[int] = None,
    extra: Sequence[str] = (),
) -> str:
    """The cache key of one decision query.

    ``kind`` namespaces the query shape (``"engine-run"``: the engine-level
    run search); ``engine``/``bound`` make keys precise about the decision
    procedure, so a bounded verdict can never shadow a complete one.
    """
    parts = [
        f"kind={kind}",
        f"engine={engine}",
        f"bound={'-' if bound is None else bound}",
        f"module={module_fingerprint(module)}",
    ]
    parts.extend(f"formula={formula_fingerprint(formula)}" for formula in formulas)
    parts.extend(f"extra={item}" for item in extra)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# -- payload encoding ---------------------------------------------------------


def encode_trace(trace: Optional[LassoTrace]) -> Optional[dict]:
    """JSON-encodable form of a lasso witness (``None`` passes through)."""
    if trace is None:
        return None
    return {
        "stem": [dict(state) for state in trace.stem],
        "loop": [dict(state) for state in trace.loop],
    }


def decode_trace(payload: Optional[dict]) -> Optional[LassoTrace]:
    """Inverse of :func:`encode_trace`."""
    if payload is None:
        return None
    return LassoTrace(payload["stem"], payload["loop"])


# -- the cache ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/store/eviction counts of one job's lookups (:func:`counting_lookups`)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0


class ResultCache:
    """Two-level (memory + optional directory) store of decided queries.

    Disk entries live at ``<cache_dir>/<key[:2]>/<key>.json`` and are written
    atomically (temp file + :func:`os.replace`), so concurrent suite workers
    sharing a directory never observe torn writes — and because query results
    are deterministic, two workers racing on the same key write identical
    payloads.  Unreadable or corrupt entries are treated as misses.

    The memory layer is a bounded LRU (``memory_limit`` entries, ``None`` =
    unbounded): a directory-backed cache can always refill from disk, so
    evicting the least-recently-used payloads keeps long suite runs from
    holding every witness trace in RAM.  Memory-only caches default to
    unbounded — there is no disk layer to refill from.  Every lookup / store /
    eviction is counted in the process metrics registry (``result_cache.*``)
    and in the counter of the job that made it (:func:`counting_lookups`).
    """

    #: Default memory-layer bound of directory-backed caches.
    DEFAULT_MEMORY_LIMIT = 4096

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        *,
        memory_limit: Optional[int] = None,
    ):
        self.cache_dir = os.path.abspath(cache_dir) if cache_dir else None
        if memory_limit is None and self.cache_dir:
            memory_limit = self.DEFAULT_MEMORY_LIMIT
        self.memory_limit = memory_limit
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        # One cache instance is shared by racing portfolio threads and by the
        # service daemon's request handlers; the LRU bookkeeping
        # (move_to_end + popitem) is a multi-step mutation, so it runs under
        # a lock.  Disk I/O stays outside the lock — entry files are written
        # atomically and identical for a given key.
        self._memory_lock = threading.RLock()
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)

    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def _remember(self, key: str, payload: dict) -> None:
        with self._memory_lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            if self.memory_limit is not None and len(self._memory) > self.memory_limit:
                self._memory.popitem(last=False)
                metrics().inc("result_cache.evictions")
                _count_lookup("evictions")

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or ``None`` (counted as hit/miss)."""
        with self._memory_lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
        if payload is None and self.cache_dir:
            try:
                with open(self._path(key), "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                payload = None
            else:
                self._remember(key, payload)
        if payload is None:
            metrics().inc("result_cache.misses")
            _count_lookup("misses")
        else:
            metrics().inc("result_cache.hits")
            _count_lookup("hits")
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store a payload in memory and (when configured) on disk."""
        self._remember(key, payload)
        metrics().inc("result_cache.stores")
        _count_lookup("stores")
        if not self.cache_dir:
            return
        path = self._path(key)
        try:
            _atomic_write_json(path, payload)
        except OSError:  # pragma: no cover - disk full / permissions
            pass

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.cache_dir or "memory"
        return f"<ResultCache {where} entries={len(self._memory)}>"


# -- per-job lookup counts ----------------------------------------------------
#
# The ``result_cache.*`` metrics count every thread's lookups, so around one
# job they also count whatever other jobs of a daemon did meanwhile.  A job
# (or a suite shard) installs its own counter here as well; helper threads
# working for it (portfolio members) install the same counter.

_LOOKUPS = threading.local()
_LOOKUPS_LOCK = threading.Lock()


def active_lookup_counter() -> Optional[CacheStats]:
    """The counter this thread's lookups and stores also go to (or ``None``)."""
    return getattr(_LOOKUPS, "stats", None)


@contextmanager
def counting_lookups(stats: Optional[CacheStats]) -> Iterator[Optional[CacheStats]]:
    """Also count this thread's cache hits, misses, stores and evictions into ``stats``."""
    previous = getattr(_LOOKUPS, "stats", None)
    _LOOKUPS.stats = stats
    try:
        yield stats
    finally:
        _LOOKUPS.stats = previous


def _count_lookup(field: str) -> None:
    stats = getattr(_LOOKUPS, "stats", None)
    if stats is not None:
        # Several threads may share one counter.
        with _LOOKUPS_LOCK:
            setattr(stats, field, getattr(stats, field) + 1)


# -- the cache directory (the `specmatcher cache` CLI) ------------------------


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` via temp file + :func:`os.replace`.

    The write path of cache entries: readers never observe a torn file.
    Raises :class:`OSError` on failure; callers decide whether that is fatal.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory or ".", prefix=".tmp-", suffix=".json",
        delete=False, encoding="utf-8",
    )
    try:
        with handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(handle.name, path)
    except OSError:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


def _entry_paths(directory: str) -> List[str]:
    """The entry files under ``directory``: ``<key[:2]>/<key>.json`` only.

    That is the layout :meth:`ResultCache._path` writes; every other file
    (temp files, a report saved next to the entries) is foreign.
    """
    paths = []
    for path in glob.glob(os.path.join(glob.escape(directory), "[0-9a-f][0-9a-f]", "*.json")):
        shard, name = os.path.split(path)
        if (
            _ENTRY_NAME.fullmatch(name)
            and name.startswith(os.path.basename(shard))
            and os.path.isfile(path)
        ):
            paths.append(path)
    return paths


def cache_dir_stats(cache_dir: str) -> Dict[str, object]:
    """What a cache directory holds on disk: its entries and their bytes."""
    directory = os.path.abspath(cache_dir)
    paths = _entry_paths(directory)
    size_bytes = 0
    for path in paths:
        try:
            size_bytes += os.path.getsize(path)
        except OSError:  # pragma: no cover - raced removal
            pass
    return {
        "dir": directory,
        "exists": os.path.isdir(directory),
        "entries": len(paths),
        "size_bytes": size_bytes,
    }


def clear_cache_dir(cache_dir: str) -> int:
    """Delete every cache entry under ``cache_dir``.

    Returns the number of entries removed.  The directory itself and any
    foreign files are left alone; the in-memory layer of a live
    :class:`ResultCache` bound to the directory is dropped too.
    """
    directory = os.path.abspath(cache_dir)
    removed = 0
    for path in _entry_paths(directory):
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - raced removal
            continue
        removed += 1
    cache = _DIR_CACHES.get(directory)
    if cache is not None:
        cache._memory.clear()
    return removed


# One ResultCache per directory per process, so every consumer of the same
# directory shares the in-memory layer.
_DIR_CACHES: Dict[str, ResultCache] = {}


def cache_for_dir(cache_dir: str) -> ResultCache:
    """The process-wide :class:`ResultCache` bound to a cache directory."""
    key = os.path.abspath(cache_dir)
    cache = _DIR_CACHES.get(key)
    if cache is None:
        cache = ResultCache(key)
        _DIR_CACHES[key] = cache
    return cache


# -- the active cache ---------------------------------------------------------

_active: Optional[ResultCache] = None


def active_result_cache() -> Optional[ResultCache]:
    """The cache the engines currently consult (``None`` disables caching)."""
    return _active


def set_result_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Install a new active cache (or ``None``); returns the previous one."""
    global _active
    previous = _active
    _active = cache
    return previous


@contextmanager
def using_result_cache(cache: Optional[ResultCache]) -> Iterator[Optional[ResultCache]]:
    """Temporarily install ``cache`` as the active result cache."""
    previous = set_result_cache(cache)
    try:
        yield cache
    finally:
        set_result_cache(previous)
