"""Summary statistics of one benchmark run: latency percentiles and span folding.

Everything here is pure (no I/O, no clock), so the benchmark's own tests can
pin it on hand-built inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The tail percentile is the highest one with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-13:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (``0 < q < 1``).

    A weighted mean of every order statistic, with Beta(q(n+1), (1-q)(n+1))
    weights.  Unlike a single order statistic it moves smoothly when two ops
    of different kinds swap ranks, which keeps the percentiles of a sparse
    mix of slow and fast ops steady from run to run.
    """
    if not samples:
        raise ValueError("quantile of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    total = 0.0
    below = 0.0
    for i, value in enumerate(ordered, start=1):
        upto = betainc(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile (to 0.1) with ``TAIL_MIN_BEYOND`` samples beyond it.

    ``None`` when fewer than twice that many samples leave not even the
    median with enough samples beyond it.
    """
    if count < 2 * TAIL_MIN_BEYOND:
        return None
    return math.floor(1000.0 * (count - TAIL_MIN_BEYOND) / count) / 10.0


def latency_tail(samples: Sequence[float]) -> Tuple[float, Optional[float]]:
    """``(value, percentile)`` of the tail latency; the maximum when no percentile qualifies."""
    pct = tail_percentile(len(samples))
    if pct is None:
        return max(samples), None
    return quantile(samples, pct / 100.0), pct


# -- span folding -------------------------------------------------------------
#
# A span is a tuple ``(span_id, name, start, end, parent_id, op_id)``; the
# root spans of an op have ``parent_id`` None.


def _covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    covered = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: Sequence[Tuple]) -> Dict[str, float]:
    """Per span name, the summed self time: duration minus what child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span_id, _name, start, end, parent, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, name, start, end, _parent, _op in spans:
        own = (end - start) - _covered_length(children.get(span_id, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def span_counts(spans: Sequence[Tuple]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for _sid, name, *_rest in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts
