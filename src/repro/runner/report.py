"""Rendering of suite results: text and JSON reports.

The JSON shape is the machine contract used by CI (cache-effectiveness
assertions) and by the benchmark harness; the text form is the default CLI
output.

``suite --profile`` adds a per-design phase breakdown built from the shard
``timings`` records (:func:`profile_suite`): total wall seconds per span name
per design, and the slowest phase of each — the "where did the time go"
answer BENCH_engines.json could not give.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .suite import ShardResult, SuiteResult

__all__ = [
    "suite_to_dict",
    "render_json",
    "render_text",
    "profile_suite",
]

#: Wrapper spans excluded from "slowest phase": they enclose the real work
#: phases and would otherwise always win.
_WRAPPER_PHASES = frozenset({"engine_run"})


def profile_suite(result: SuiteResult) -> Dict[str, object]:
    """Per-design, per-phase wall-time breakdown of a suite run.

    Sums the ``timings`` records of every ok shard by design and span name,
    and names each design's ``slowest_phase`` (wrapper spans such as
    ``engine_run`` are excluded from the ranking but kept in the table).
    """
    designs: Dict[str, Dict[str, float]] = {}
    untimed = 0
    for shard in result.shards:
        if not shard.ok:
            continue
        if not shard.timings:
            untimed += 1
            continue
        table = designs.setdefault(shard.job.design, {})
        for name, seconds in shard.timings.items():
            table[name] = round(table.get(name, 0.0) + seconds, 6)
    profile: Dict[str, object] = {"designs": {}, "untimed_shards": untimed}
    for design in sorted(designs):
        table = designs[design]
        ranked = [
            (name, seconds)
            for name, seconds in table.items()
            if name not in _WRAPPER_PHASES
        ]
        slowest = max(ranked, key=lambda item: item[1], default=None)
        profile["designs"][design] = {
            "phases": dict(sorted(table.items())),
            "slowest_phase": slowest[0] if slowest else None,
            "slowest_seconds": round(slowest[1], 6) if slowest else 0.0,
        }
    return profile


def _verdict_text(shard: ShardResult) -> str:
    if shard.status != "ok":
        return shard.status.upper()
    if shard.job.kind == "primary":
        text = "covered" if shard.verdict else "gap"
    else:
        text = "observable" if shard.verdict else "dead"
    if not shard.complete:
        text += "*"  # bounded verdict (BMC below the diameter)
    return text


def suite_to_dict(result: SuiteResult, *, profile: bool = False) -> Dict[str, object]:
    """The canonical JSON-ready representation of a suite run."""
    counts = result.counts()
    payload = {
        "workers": result.workers,
        "wall_seconds": round(result.wall_seconds, 4),
        "shard_count": len(result.shards),
        "counts": counts,
        "cache": {
            "enabled": result.cache_enabled,
            "dir": result.cache_dir,
            "hits": result.cache_hits,
            "misses": result.cache_misses,
            "stores": result.cache_stores,
            "evictions": result.cache_evictions,
            "hit_ratio": round(result.cache_hit_ratio, 4),
        },
        "verdicts": {job_id: verdict for job_id, verdict in sorted(result.verdicts().items())},
        "shards": [shard.row() for shard in result.shards],
    }
    if profile:
        payload["profile"] = profile_suite(result)
    return payload


def render_json(result: SuiteResult, *, profile: bool = False) -> str:
    return json.dumps(suite_to_dict(result, profile=profile), indent=2, sort_keys=False)


def _profile_lines_text(result: SuiteResult) -> List[str]:
    profile = profile_suite(result)
    lines = ["", "-- profile (wall seconds per phase, per design) --"]
    designs = profile["designs"]
    if not designs:
        lines.append("(no timed shards)")
        return lines
    width = max(len(design) for design in designs)
    for design, entry in designs.items():
        phase_text = "  ".join(
            f"{name}={seconds:.3f}" for name, seconds in entry["phases"].items()
        )
        lines.append(f"{design:<{width}}  {phase_text}")
        if entry["slowest_phase"]:
            lines.append(
                f"{'':<{width}}  slowest: {entry['slowest_phase']} "
                f"({entry['slowest_seconds']:.3f} s)"
            )
    return lines


def render_text(result: SuiteResult, *, profile: bool = False) -> str:
    counts = result.counts()
    lines: List[str] = [
        f"== coverage suite: {len(result.shards)} shards, "
        f"{result.workers} worker(s), {result.wall_seconds:.2f} s wall ==",
    ]
    width = max((len(shard.job.job_id) for shard in result.shards), default=0)
    for shard in result.shards:
        lines.append(
            f"{shard.job.job_id:<{width}}  {_verdict_text(shard):<12} "
            f"{shard.elapsed_seconds:7.3f} s  cache {shard.cache_hits}/{shard.cache_misses}"
        )
    lines.append(
        f"status: {counts['ok']} ok, {counts['error']} error, {counts['timeout']} timeout"
    )
    if result.cache_enabled:
        lines.append(
            f"cache : {result.cache_hits} hits / {result.cache_misses} misses "
            f"({100.0 * result.cache_hit_ratio:.1f}% hit ratio)"
            + (f" at {result.cache_dir}" if result.cache_dir else " (in-memory)")
        )
    else:
        lines.append("cache : disabled")
    if profile:
        lines.extend(_profile_lines_text(result))
    lines.append("(* = bounded verdict: holds up to the BMC bound only)")
    return "\n".join(lines)
