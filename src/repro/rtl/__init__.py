"""RTL substrate: netlists, HDL front-end, simulation, FSM extraction, Kripke structures."""

from .netlist import Module, Register, NetlistError
from .hdl import parse_hdl, parse_module, parse_expr, module_to_hdl, HDLError
from .elaborate import compose
from .simulator import Stimulus, SimulationTrace, Simulator, simulate
from .waveform import render_waveform, render_table
from .fsm import FSM, FSMState, FSMTransition, extract_fsm
from .kripke import KripkeStructure, kripke_from_module

__all__ = [
    "Module",
    "Register",
    "NetlistError",
    "parse_hdl",
    "parse_module",
    "parse_expr",
    "module_to_hdl",
    "HDLError",
    "compose",
    "Stimulus",
    "SimulationTrace",
    "Simulator",
    "simulate",
    "render_waveform",
    "render_table",
    "FSM",
    "FSMState",
    "FSMTransition",
    "extract_fsm",
    "KripkeStructure",
    "kripke_from_module",
]
