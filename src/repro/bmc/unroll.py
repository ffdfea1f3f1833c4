"""Time-frame expansion of a netlist into CNF.

An :class:`UnrolledModule` lays out ``k + 1`` copies (frames) of a
:class:`~repro.rtl.netlist.Module`.  The signal ``wait`` at frame 3 becomes
the propositional variable ``wait@3``.  Constraints are emitted through a
shared :class:`~repro.sat.tseitin.TseitinEncoder`:

* frame constraints — every combinational assignment holds within a frame,
* the initial-state constraint — registers carry their reset value at frame 0,
* transition constraints — register values at frame ``i+1`` equal their
  next-state functions evaluated at frame ``i``,
* the loop constraint — the successor of frame ``k`` is frame ``l``, making
  the unrolled path a lasso (required for infinite-run LTL semantics); it is
  guarded by a loop-selector literal, so one unrolling serves every ``(k, l)``
  and the solver picks ``l``.

Primary inputs, undriven signals and any *free atoms* named by the properties
but not driven by the module are left unconstrained in every frame.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..logic.boolexpr import var
from ..rtl.netlist import Module
from ..sat.cnf import CNF, Literal
from ..sat.tseitin import TseitinEncoder

__all__ = ["UnrolledModule", "frame_name"]


def frame_name(signal: str, frame: int) -> str:
    """The propositional variable name of ``signal`` at time-frame ``frame``."""
    return f"{signal}@{frame}"


class UnrolledModule:
    """CNF unrolling of a module over time-frames ``0 .. depth``."""

    def __init__(
        self,
        module: Module,
        *,
        free_atoms: Sequence[str] = (),
    ):
        module.validate(allow_undriven=True)
        self.module = module
        self.encoder = TseitinEncoder()
        self._renames: Dict[int, Dict[str, str]] = {}
        self.depth = -1

        free: List[str] = list(module.inputs)
        for name in sorted(module.undriven_signals()):
            if name not in free:
                free.append(name)
        for name in free_atoms:
            if name not in free and name not in module.assigns and name not in module.registers:
                free.append(name)
        self.free_signals: List[str] = free
        self.trace_signals: List[str] = sorted(set(module.signals()) | set(free))

    # -- naming -----------------------------------------------------------------
    @property
    def cnf(self) -> CNF:
        return self.encoder.cnf

    def rename(self, frame: int) -> Dict[str, str]:
        """Mapping from base signal names to their frame-``frame`` variables."""
        mapping = self._renames.get(frame)
        if mapping is None:
            mapping = {name: frame_name(name, frame) for name in self.trace_signals}
            self._renames[frame] = mapping
        return mapping

    def signal_literal(self, signal: str, frame: int) -> Literal:
        """The CNF literal of a signal at a frame (creating the variable)."""
        return self.encoder.variable_literal(frame_name(signal, frame))

    # -- constraints --------------------------------------------------------------
    def assert_initial_state(self) -> None:
        """Frame-0 registers carry their reset values."""
        for name, register in self.module.registers.items():
            literal = self.signal_literal(name, 0)
            self.cnf.add_unit(literal if register.init else -literal)

    def _assert_frame(self, frame: int) -> None:
        """Combinational assignments hold within ``frame``."""
        rename = self.rename(frame)
        for name, expr in self.module.assigns.items():
            self.encoder.assert_equal(var(name), expr, rename=rename)

    def _assert_transition(self, frame: int) -> None:
        """Registers at ``frame + 1`` take their next-state values from ``frame``."""
        rename = self.rename(frame)
        for name, register in self.module.registers.items():
            next_literal = self.encoder.literal_for(register.next_value, rename=rename)
            target = self.signal_literal(name, frame + 1)
            self.cnf.add_clause(-next_literal, target)
            self.cnf.add_clause(next_literal, -target)

    def extend_to(self, depth: int) -> None:
        """Add frames (and the transitions between them) up to ``depth``."""
        if depth < 0:
            raise ValueError("unrolling depth must be non-negative")
        while self.depth < depth:
            self.depth += 1
            self._assert_frame(self.depth)
            if self.depth > 0:
                self._assert_transition(self.depth - 1)

    def guarded_loop_constraint(self, bound: int, loop_start: int, activation: Literal) -> None:
        """Close the ``(bound, loop_start)`` lasso *conditionally* on a literal.

        The biconditional clauses go into the shared CNF itself, each
        weakened with ``¬activation`` — inert unless the activation literal
        is true.  This is the incremental-BMC discipline: every ``(k, l)``
        pair gets one loop-selector literal, the frames are never re-encoded,
        and one solver serves every query.
        """
        if not 0 <= loop_start <= bound <= self.depth:
            raise ValueError("loop window must lie within the unrolled frames")
        rename = self.rename(bound)
        for name, register in self.module.registers.items():
            next_literal = self.encoder.literal_for(register.next_value, rename=rename)
            target = self.signal_literal(name, loop_start)
            self.cnf.add_clause(-activation, -next_literal, target)
            self.cnf.add_clause(-activation, next_literal, -target)

    # -- model decoding --------------------------------------------------------------
    def decode_states(
        self, assignment: Mapping[str, bool], *, up_to: Optional[int] = None
    ) -> List[Dict[str, bool]]:
        """Extract the per-frame signal valuations from a SAT model.

        ``up_to`` limits decoding to frames ``0 .. up_to`` — needed when the
        shared unrolling has been extended beyond the bound that produced the
        model (incremental solving), where the deeper frames are unconstrained
        by the witness's lasso.
        """
        last = self.depth if up_to is None else up_to
        states: List[Dict[str, bool]] = []
        for frame in range(last + 1):
            state = {
                name: bool(assignment.get(frame_name(name, frame), False))
                for name in self.trace_signals
            }
            states.append(state)
        return states
