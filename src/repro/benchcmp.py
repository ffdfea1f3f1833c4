"""Compare two engine-trajectory benchmark payloads cell by cell.

The quick benchmark (``benchmarks/bench_backends.py --quick``) emits a JSON
trajectory: per design × engine, the verdict and wall-clock seconds.  A copy
of one run is committed as ``BENCH_engines.json``; this module diffs a fresh
run against it (``python -m repro.benchcmp CURRENT BASELINE``, the CI
benchmark lane's gate) and fails loudly when an engine×design cell regresses.

Timing on shared runners is noisy, so the comparison is deliberately coarse:
a cell only counts as a regression when it got more than ``max_ratio`` times
slower *and* the slowdown is above an absolute noise floor.  Verdict changes
and cells that disappeared are always failures — those are correctness
signals, not noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CellDelta",
    "BenchComparison",
    "compare_trajectories",
    "load_trajectory",
    "main",
]

#: A cell must get >25% slower to fail the lane.
DEFAULT_MAX_RATIO = 1.25
#: Sub-50ms timings are dominated by scheduler jitter; a baseline below the
#: floor is clamped to it, and a slowdown smaller than the floor in absolute
#: seconds can never regress regardless of its ratio.
DEFAULT_NOISE_FLOOR = 0.05


@dataclass(frozen=True)
class CellDelta:
    """One engine×design cell of the comparison."""

    design: str
    engine: str
    baseline_seconds: float
    current_seconds: float
    #: current / max(baseline, noise_floor) — the number gated on.
    ratio: float
    regression: bool

    def describe(self) -> str:
        flag = "REGRESSION" if self.regression else "ok"
        return (
            f"{self.design:<16} {self.engine:<10} "
            f"{self.baseline_seconds:7.3f}s -> {self.current_seconds:7.3f}s "
            f"(x{self.ratio:.2f}) {flag}"
        )


@dataclass
class BenchComparison:
    """Outcome of :func:`compare_trajectories`."""

    deltas: List[CellDelta] = field(default_factory=list)
    #: Cells present in the baseline but absent from the current run.
    missing: List[Tuple[str, str]] = field(default_factory=list)
    #: Cells whose coverage verdict flipped between the runs.
    verdict_changes: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def regressions(self) -> List[CellDelta]:
        return [delta for delta in self.deltas if delta.regression]

    @property
    def ok(self) -> bool:
        return not (self.regressions or self.missing or self.verdict_changes)

    def summary(self) -> str:
        lines = [delta.describe() for delta in self.deltas]
        for design, engine in self.missing:
            lines.append(f"{design:<16} {engine:<10} MISSING from current run")
        for design, engine in self.verdict_changes:
            lines.append(f"{design:<16} {engine:<10} VERDICT CHANGED")
        lines.append(
            f"{len(self.deltas)} cells compared, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.missing)} missing, "
            f"{len(self.verdict_changes)} verdict change(s)"
        )
        return "\n".join(lines)


def _cells(payload: Dict) -> Dict[Tuple[str, str], Dict]:
    cells: Dict[Tuple[str, str], Dict] = {}
    for design, row in payload.get("designs", {}).items():
        for engine, cell in row.items():
            if isinstance(cell, dict) and "seconds" in cell:
                cells[(design, engine)] = cell
    return cells


def compare_trajectories(
    current: Dict,
    baseline: Dict,
    *,
    max_ratio: float = DEFAULT_MAX_RATIO,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> BenchComparison:
    """Diff ``current`` against ``baseline`` per engine×design cell.

    Cells only present in ``current`` (a newly added design or engine) are
    ignored — the committed baseline simply predates them.
    """
    comparison = BenchComparison()
    current_cells = _cells(current)
    for key, base_cell in sorted(_cells(baseline).items()):
        design, engine = key
        cell = current_cells.get(key)
        if cell is None:
            comparison.missing.append(key)
            continue
        if bool(cell.get("covered")) != bool(base_cell.get("covered")):
            comparison.verdict_changes.append(key)
        base_seconds = float(base_cell["seconds"])
        now_seconds = float(cell["seconds"])
        ratio = now_seconds / max(base_seconds, noise_floor)
        # Both gates must trip: the relative one (>max_ratio slower) and an
        # absolute one (slower by more than the floor itself).  Sub-0.1s
        # cells — the thread-racing portfolio especially — jitter across the
        # ratio gate on shared runners while a real regression of a fast
        # cell still clears both.
        regression = ratio > max_ratio and (now_seconds - base_seconds) > noise_floor
        comparison.deltas.append(
            CellDelta(design, engine, base_seconds, now_seconds, ratio, regression)
        )
    return comparison


def load_trajectory(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI shim for the CI lane: ``python -m repro.benchcmp CURRENT BASELINE``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="diff an engine-trajectory run against a committed baseline"
    )
    parser.add_argument("current", help="JSON payload of the fresh benchmark run")
    parser.add_argument("baseline", help="committed baseline JSON (BENCH_engines.json)")
    parser.add_argument(
        "--max-ratio", type=float, default=DEFAULT_MAX_RATIO,
        help="fail when a cell exceeds this slowdown factor (default %(default)s)",
    )
    parser.add_argument(
        "--noise-floor", type=float, default=DEFAULT_NOISE_FLOOR,
        help="seconds below which timings are treated as noise (default %(default)s)",
    )
    args = parser.parse_args(argv)
    comparison = compare_trajectories(
        load_trajectory(args.current),
        load_trajectory(args.baseline),
        max_ratio=args.max_ratio,
        noise_floor=args.noise_floor,
    )
    print(comparison.summary())
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
