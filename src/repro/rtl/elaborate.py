"""Elaboration: composing concrete modules into one flat netlist.

The paper's analysis always works on "the concrete modules" as a single
model ``M`` (e.g. the glue logic ``M1`` together with the cache logic ``L1``).
:func:`compose` stitches a list of :class:`~repro.rtl.netlist.Module` objects
together by name-based connection — an output of one module drives the
equally-named input of another — and returns a new flat module whose

* inputs are the signals no member drives (the environment of the composition),
* outputs are the union of the members' outputs,
* assigns/registers are the union of the members' assigns/registers.

Signal-name clashes between drivers are reported as errors; the paper's
Assumption 1 (architectural signals are inherited by the lower level of the
hierarchy) makes name-based composition the natural choice.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from .netlist import Module, NetlistError

__all__ = ["compose"]


def compose(modules: Sequence[Module], name: str = "composition") -> Module:
    """Compose modules by connecting equally-named signals.

    Raises :class:`NetlistError` when two modules drive the same signal or the
    composition contains a combinational cycle.
    """
    if not modules:
        raise NetlistError("cannot compose an empty list of modules")
    composed = Module(name)
    driven: Dict[str, str] = {}

    for module in modules:
        for signal, expr in module.assigns.items():
            if signal in driven:
                raise NetlistError(
                    f"signal {signal!r} driven by both {driven[signal]!r} and {module.name!r}"
                )
            driven[signal] = module.name
            composed.assigns[signal] = expr
        for signal, register in module.registers.items():
            if signal in driven:
                raise NetlistError(
                    f"signal {signal!r} driven by both {driven[signal]!r} and {module.name!r}"
                )
            driven[signal] = module.name
            composed.registers[signal] = register

    # Outputs: union of member outputs (kept in declaration order, deduplicated).
    for module in modules:
        for signal in module.outputs:
            if signal not in composed.outputs:
                composed.outputs.append(signal)

    # Inputs: every referenced or declared-input signal that nothing drives.
    referenced: Set[str] = set()
    for module in modules:
        referenced |= set(module.inputs)
        referenced |= module.signals()
    for signal in sorted(referenced):
        if signal not in driven and signal not in composed.inputs:
            composed.inputs.append(signal)

    composed._eval_order = None
    composed.validate(allow_undriven=False)
    return composed
