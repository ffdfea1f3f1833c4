"""A multi-channel arbiter with spec-blind telemetry: the slicing showcase.

Real RTL carries logic no property ever observes — debug buses, performance
counters, scan chains.  Cone-of-influence slicing exists precisely for such
designs: every coverage query only reads the fan-in of its formulas' atoms,
so the telemetry block (which only *consumes* the channel signals, never
feeds them) is provably irrelevant and the compiled problem IR
(:mod:`repro.problem`) drops it before any engine runs.

Design
------
Three independent request/acknowledge channels:

* input ``req<i>``; register ``busy<i> <= req<i>``;
  assign ``ack<i> = req<i> & !busy<i>`` (a one-cycle acknowledge pulse).

Plus a telemetry block the specification never mentions: a shift history of
the combined acknowledge activity and a parity accumulator, six registers
feeding only the ``dbg`` output.  Unsliced, those six registers triple the
state variables of every engine; sliced, no query ever sees them.

* Architectural intent (three conjuncts, one per channel):
  ``G(ack<i> -> X !ack<i>)`` — acknowledges never pulse twice in a row.
* RTL properties (two per channel): ``G(req<i> -> X busy<i>)`` and
  ``G(ack<i> -> req<i>)``.

The intent holds on every run of the concrete module, so the design is
covered under any specification; it earns its place in the catalog as the
one design whose primary queries the cone-of-influence rule slices, and
where an unsliced run visibly hurts every engine.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CoverageProblem
from ..logic.boolexpr import and_, not_, or_, var, xor
from ..ltl.ast import Formula
from ..ltl.parser import parse
from ..rtl.netlist import Module

__all__ = [
    "build_telemetry_bank_module",
    "telemetry_rtl_properties",
    "telemetry_architectural_properties",
    "build_telemetry_bank",
]

CHANNELS = 3
HISTORY_DEPTH = 4


def build_telemetry_bank_module(name: str = "telemetry_bank") -> Module:
    """Three ack channels plus a six-register telemetry block nobody specifies."""
    module = Module(name)
    acks = []
    for index in range(CHANNELS):
        req, busy, ack = f"req{index}", f"busy{index}", f"ack{index}"
        module.add_input(req)
        module.add_register(busy, var(req))
        module.add_assign(ack, and_(var(req), not_(var(busy))))
        module.add_output(ack)
        acks.append(var(ack))

    # Telemetry: pure fan-out of the channel signals.  ``any_ack`` feeds a
    # shift history and a parity accumulator; only ``dbg`` leaves the block.
    module.add_assign("any_ack", or_(*acks))
    previous = var("any_ack")
    for depth in range(HISTORY_DEPTH):
        register = f"hist{depth}"
        module.add_register(register, previous)
        previous = var(register)
    module.add_register("ack_parity", xor(var("ack_parity"), var("any_ack")))
    module.add_register("saw_ack", or_(var("saw_ack"), var("any_ack")))
    module.add_assign(
        "dbg", and_(var("saw_ack"), xor(var("ack_parity"), var(f"hist{HISTORY_DEPTH - 1}")))
    )
    module.add_output("dbg")
    return module


def telemetry_architectural_properties() -> List[Formula]:
    """One conjunct per channel: acknowledges never pulse twice in a row."""
    return [parse(f"G(ack{index} -> X !ack{index})") for index in range(CHANNELS)]


def telemetry_rtl_properties() -> List[Formula]:
    """Per-channel RTL properties (busy latching, ack implies request)."""
    properties: List[Formula] = []
    for index in range(CHANNELS):
        properties.append(parse(f"G(req{index} -> X busy{index})"))
        properties.append(parse(f"G(ack{index} -> req{index})"))
    return properties


def build_telemetry_bank(name: str = "Telemetry Bank") -> CoverageProblem:
    """The catalog entry: multi-conjunct intent over the three channels."""
    problem = CoverageProblem(name=name)
    for formula in telemetry_architectural_properties():
        problem.add_architectural_property(formula)
    for formula in telemetry_rtl_properties():
        problem.add_rtl_property(formula)
    problem.add_concrete_module(build_telemetry_bank_module())
    return problem
