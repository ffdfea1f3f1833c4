"""Bounded temporal terms: the uncovered terms of Algorithm 1 step 2(a).

Step 2(a) of the paper's Algorithm 1 unfolds the coverage-hole formula "up to
its fixpoint" to obtain a set of *uncovered terms* — bounded conjunctions of
(possibly negated) signals at fixed time offsets, e.g.::

    !r1 & X r2 & X X !hit & X d1

:mod:`repro.core.terms` computes these terms from witness runs of the hole.
This module holds :class:`TemporalTerm`, the bounded-term data structure (one
cube per time offset) with projection onto signal alphabets, conversion back
to a formula and evaluation on trace prefixes, and the constructors
:func:`term_from_states` and :func:`term_from_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..logic.cube import Cube
from .ast import TRUE, Atom, Formula, Not, Xn, conj
from .traces import LassoTrace

__all__ = ["TemporalTerm", "term_from_states", "term_from_trace"]


@dataclass(frozen=True)
class TemporalTerm:
    """A bounded conjunction of timed literals: ``And_i X^i(cube_i)``.

    ``cubes[i]`` constrains the signals at time offset ``i``.  Empty cubes are
    allowed (no constraint at that offset).
    """

    cubes: Tuple[Cube, ...]

    def __init__(self, cubes: Sequence[Cube | Mapping[str, bool]]):
        normalised = []
        for cube in cubes:
            normalised.append(cube if isinstance(cube, Cube) else Cube(cube))
        object.__setattr__(self, "cubes", tuple(normalised))

    # -- inspection ----------------------------------------------------------
    def depth(self) -> int:
        return len(self.cubes)

    def signals(self) -> frozenset:
        names: Set[str] = set()
        for cube in self.cubes:
            names |= set(cube.variables())
        return frozenset(names)

    def literal_count(self) -> int:
        return sum(len(cube) for cube in self.cubes)

    def is_trivial(self) -> bool:
        """True when the term imposes no constraint at all."""
        return all(cube.is_true() for cube in self.cubes)

    def literals(self) -> Tuple[Tuple[int, str, bool], ...]:
        """All timed literals as ``(offset, name, value)`` triples."""
        result = []
        for offset, cube in enumerate(self.cubes):
            for name, value in cube:
                result.append((offset, name, value))
        return tuple(result)

    # -- transformations --------------------------------------------------------
    def project(self, names: Iterable[str]) -> "TemporalTerm":
        """Keep only literals over the given signals (existential projection)."""
        names = set(names)
        return TemporalTerm([cube.restrict(names) for cube in self.cubes])

    def drop(self, names: Iterable[str]) -> "TemporalTerm":
        """Remove literals over the given signals."""
        names = set(names)
        return TemporalTerm([cube.drop(names) for cube in self.cubes])

    def strip_trailing_empty(self) -> "TemporalTerm":
        cubes = list(self.cubes)
        while cubes and cubes[-1].is_true():
            cubes.pop()
        return TemporalTerm(cubes)

    # -- semantics ------------------------------------------------------------------
    def to_formula(self) -> Formula:
        """Convert to the LTL formula ``And_i X^i(cube_i)``."""
        parts: List[Formula] = []
        for offset, cube in enumerate(self.cubes):
            for name, value in cube:
                literal: Formula = Atom(name) if value else Not(Atom(name))
                parts.append(Xn(literal, offset))
        return conj(*parts) if parts else TRUE

    def satisfied_by(self, trace: LassoTrace, position: int = 0) -> bool:
        """Check the term on a lasso trace starting at ``position``."""
        for offset, cube in enumerate(self.cubes):
            state = trace.state_at(position + offset)
            if not cube.satisfied_by(state):
                return False
        return True

    def to_str(self) -> str:
        parts = []
        for offset, cube in enumerate(self.cubes):
            if cube.is_true():
                continue
            prefix = "X " * offset
            text = cube.to_str()
            if len(cube) > 1:
                text = f"({text})"
            parts.append(f"{prefix}{text}")
        return " & ".join(parts) if parts else "true"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_str()


def term_from_states(
    states: Sequence[Mapping[str, bool]], signals: Optional[Iterable[str]] = None
) -> TemporalTerm:
    """Build a term recording the given signal values cycle by cycle."""
    names = set(signals) if signals is not None else None
    cubes = []
    for state in states:
        if names is None:
            cubes.append(Cube({name: bool(value) for name, value in state.items()}))
        else:
            cubes.append(Cube({name: bool(state.get(name, False)) for name in names}))
    return TemporalTerm(cubes)


def term_from_trace(
    trace: LassoTrace, depth: int, signals: Optional[Iterable[str]] = None
) -> TemporalTerm:
    """Extract the first ``depth`` cycles of a lasso as a bounded term."""
    states = [trace.state_at(i) for i in range(depth)]
    return term_from_states(states, signals)
