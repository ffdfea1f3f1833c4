"""ASCII timing-diagram rendering.

The paper's Figure 3 presents the Memory Arbitration Logic behaviour as a
timing diagram (request, grant, hit/miss, wait and done signals over four
cycles).  :func:`render_waveform` produces the same kind of diagram as text,
so the example scripts and the Figure-3 benchmark can print a faithful
reproduction directly from a simulation trace::

    clk   |‾|_|‾|_|‾|_|‾|_
    r1    ▔▔▔▔____________
    r2    ____▔▔▔▔________
    ...
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .simulator import SimulationTrace

__all__ = ["render_waveform", "render_table"]

_HIGH = "▔▔▔▔"
_LOW = "____"
_HIGH_ASCII = "----"
_LOW_ASCII = "____"


def render_waveform(
    trace_or_table: SimulationTrace | Mapping[str, Sequence[bool]],
    signals: Optional[Sequence[str]] = None,
    *,
    ascii_only: bool = False,
) -> str:
    """Render a timing diagram for the given signals, under a clock row.

    Parameters
    ----------
    trace_or_table:
        Either a :class:`~repro.rtl.simulator.SimulationTrace` or a mapping
        ``signal -> list of booleans``.
    signals:
        Signals to display (default: all, sorted).
    ascii_only:
        Use ``----``/``____`` instead of unicode overline characters.
    """
    table = (
        trace_or_table.as_table(signals)
        if isinstance(trace_or_table, SimulationTrace)
        else {name: list(values) for name, values in trace_or_table.items()}
    )
    if signals is None:
        signals = sorted(table.keys())
    cycles = max((len(values) for values in table.values()), default=0)
    high = _HIGH_ASCII if ascii_only else _HIGH
    low = _LOW_ASCII if ascii_only else _LOW

    width = max([len(name) for name in signals] + [5]) + 2
    lines: List[str] = []
    header = " " * width + "".join(f"{cycle:<4d}" for cycle in range(cycles))
    lines.append(header)
    lines.append("clk".ljust(width) + ("|‾|_" if not ascii_only else "|-|_") * cycles)
    for name in signals:
        values = table.get(name, [])
        segments = []
        for cycle in range(cycles):
            value = bool(values[cycle]) if cycle < len(values) else False
            segments.append(high if value else low)
        lines.append(name.ljust(width) + "".join(segments))
    return "\n".join(lines)


def render_table(
    trace_or_table: SimulationTrace | Mapping[str, Sequence[bool]],
    signals: Optional[Sequence[str]] = None,
) -> str:
    """Render signal values as a compact 0/1 table (one row per signal)."""
    table = (
        trace_or_table.as_table(signals)
        if isinstance(trace_or_table, SimulationTrace)
        else {name: list(values) for name, values in trace_or_table.items()}
    )
    if signals is None:
        signals = sorted(table.keys())
    cycles = max((len(values) for values in table.values()), default=0)
    width = max([len(name) for name in signals] + [5]) + 2
    lines = [" " * width + " ".join(f"{cycle:>2d}" for cycle in range(cycles))]
    for name in signals:
        values = table.get(name, [])
        cells = []
        for cycle in range(cycles):
            value = bool(values[cycle]) if cycle < len(values) else False
            cells.append(" 1" if value else " 0")
        lines.append(name.ljust(width) + " ".join(cells))
    return "\n".join(lines)
