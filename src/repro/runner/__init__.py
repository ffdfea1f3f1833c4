"""Batch coverage-suite subsystem: sharded parallel runner + result cache.

* :mod:`repro.runner.cache` — persistent decision-result cache keyed by
  stable structural fingerprints of (module, formulas, engine, bound)
  queries; consulted by the coverage engines and the BMC search loop.
* :mod:`repro.runner.suite` — expansion of the designs catalog (plus seeded
  random designs) into independent shards, executed on a process pool with
  deterministic ordering, per-shard timeouts and a serial fallback.
* :mod:`repro.runner.report` — text / JSON suite reports.
"""

from .cache import (
    CacheStats,
    ResultCache,
    active_result_cache,
    cache_for_dir,
    expr_fingerprint,
    formula_fingerprint,
    module_fingerprint,
    query_key,
    set_result_cache,
    using_result_cache,
)
from .report import render_json, render_text, suite_to_dict
from .suite import CoverageJob, ShardResult, SuiteResult, execute_shard, expand_jobs, run_suite

__all__ = [
    "CacheStats",
    "ResultCache",
    "active_result_cache",
    "cache_for_dir",
    "expr_fingerprint",
    "formula_fingerprint",
    "module_fingerprint",
    "query_key",
    "set_result_cache",
    "using_result_cache",
    "render_json",
    "render_text",
    "suite_to_dict",
    "CoverageJob",
    "ShardResult",
    "SuiteResult",
    "execute_shard",
    "expand_jobs",
    "run_suite",
]
