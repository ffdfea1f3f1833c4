"""Literals, clauses and CNF formulas over named boolean variables.

Variables are identified by positive integers handed out by a
:class:`VariablePool`, which also remembers the user-facing name of every
variable (e.g. ``"wait@3"`` for the value of signal ``wait`` at unrolling
depth 3 in the bounded model checker).  A :class:`Literal` is a signed
variable, a :class:`Clause` a disjunction of literals, and a :class:`CNF` a
conjunction of clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = ["Literal", "Clause", "CNF", "VariablePool", "CNFError"]


class CNFError(ValueError):
    """Raised for malformed CNF constructions (unknown variables, empty names)."""


@dataclass(frozen=True, order=True)
class Literal:
    """A signed propositional variable.

    ``variable`` is a positive integer; ``positive`` selects the polarity.
    """

    variable: int
    positive: bool = True

    def __post_init__(self) -> None:
        if self.variable <= 0:
            raise CNFError(f"variable index must be positive, got {self.variable}")

    def __neg__(self) -> "Literal":
        return Literal(self.variable, not self.positive)

    def __int__(self) -> int:
        return self.variable if self.positive else -self.variable

    def evaluate(self, assignment: Mapping[int, bool]) -> Optional[bool]:
        """Value under a (possibly partial) assignment; ``None`` if unassigned."""
        value = assignment.get(self.variable)
        if value is None:
            return None
        return value if self.positive else not value


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals."""

    literals: Tuple[Literal, ...]

    @staticmethod
    def of(*literals: Literal) -> "Clause":
        return Clause(tuple(literals))

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def is_empty(self) -> bool:
        return not self.literals

    def is_unit(self) -> bool:
        return len(self.literals) == 1

    def is_tautology(self) -> bool:
        """True when the clause contains a literal and its negation."""
        seen: Dict[int, bool] = {}
        for literal in self.literals:
            previous = seen.get(literal.variable)
            if previous is not None and previous != literal.positive:
                return True
            seen[literal.variable] = literal.positive
        return False

    def simplified(self) -> "Clause":
        """Remove duplicate literals (keeps the first occurrence order)."""
        seen = set()
        kept: List[Literal] = []
        for literal in self.literals:
            key = (literal.variable, literal.positive)
            if key not in seen:
                seen.add(key)
                kept.append(literal)
        return Clause(tuple(kept))

    def variables(self) -> Tuple[int, ...]:
        return tuple(sorted({literal.variable for literal in self.literals}))

    def evaluate(self, assignment: Mapping[int, bool]) -> Optional[bool]:
        """Clause value under a partial assignment (``None`` when undecided)."""
        undecided = False
        for literal in self.literals:
            value = literal.evaluate(assignment)
            if value is True:
                return True
            if value is None:
                undecided = True
        return None if undecided else False


class VariablePool:
    """Allocates variable indices and remembers their human-readable names."""

    def __init__(self) -> None:
        self._name_to_index: Dict[str, int] = {}
        self._index_to_name: Dict[int, str] = {}
        self._next_index = 1
        #: Indices handed out by :meth:`fresh`, whose names are only labels.
        self._fresh: Set[int] = set()

    def __len__(self) -> int:
        return self._next_index - 1

    def variable(self, name: str) -> int:
        """Return the index for ``name``, allocating one if necessary."""
        if not name:
            raise CNFError("variable name must be non-empty")
        index = self._name_to_index.get(name)
        if index in self._fresh:
            # An anonymous variable took this name first: it moves to another
            # label, so the named signal gets a variable of its own.
            label = self._untaken(name)
            self._name_to_index[label] = index
            self._index_to_name[index] = label
            index = None
        if index is None:
            index = self._next_index
            self._next_index += 1
            self._name_to_index[name] = index
            self._index_to_name[index] = name
        return index

    def fresh(self, prefix: str = "_t") -> int:
        """Allocate an anonymous (Tseitin) variable under a name not yet taken."""
        index = self.variable(self._untaken(f"{prefix}{self._next_index}"))
        self._fresh.add(index)
        return index

    def _untaken(self, name: str) -> str:
        while name in self._name_to_index:
            name += "'"
        return name

    def literal(self, name: str, positive: bool = True) -> Literal:
        return Literal(self.variable(name), positive)

    def name_of(self, index: int) -> str:
        try:
            return self._index_to_name[index]
        except KeyError as exc:
            raise CNFError(f"unknown variable index {index}") from exc

    def has_name(self, name: str) -> bool:
        return name in self._name_to_index

    def index_of(self, name: str) -> int:
        try:
            return self._name_to_index[name]
        except KeyError as exc:
            raise CNFError(f"unknown variable name {name!r}") from exc

    def names(self) -> Tuple[str, ...]:
        return tuple(self._name_to_index.keys())

    def decode(self, assignment: Mapping[int, bool]) -> Dict[str, bool]:
        """Translate an index-keyed assignment back to variable names."""
        return {
            self._index_to_name[index]: value
            for index, value in assignment.items()
            if index in self._index_to_name
        }


@dataclass
class CNF:
    """A conjunction of clauses together with the variable pool naming them."""

    pool: VariablePool = field(default_factory=VariablePool)
    clauses: List[Clause] = field(default_factory=list)

    # -- construction ---------------------------------------------------------
    def add_clause(self, *literals: Literal) -> "CNF":
        clause = Clause(tuple(literals)).simplified()
        if not clause.is_tautology():
            self.clauses.append(clause)
        return self

    def add(self, clause: Clause) -> "CNF":
        return self.add_clause(*clause.literals)

    def extend(self, clauses: Iterable[Clause]) -> "CNF":
        for clause in clauses:
            self.add(clause)
        return self

    def add_unit(self, literal: Literal) -> "CNF":
        return self.add_clause(literal)

    def assume(self, name: str, value: bool) -> "CNF":
        """Add a unit clause fixing the named variable."""
        return self.add_unit(self.pool.literal(name, value))

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.clauses)

    def variable_count(self) -> int:
        return len(self.pool)

    def clause_count(self) -> int:
        return len(self.clauses)

    def literal_count(self) -> int:
        return sum(len(clause) for clause in self.clauses)

    def evaluate(self, assignment: Mapping[int, bool]) -> Optional[bool]:
        """Formula value under a partial assignment (``None`` when undecided)."""
        undecided = False
        for clause in self.clauses:
            value = clause.evaluate(assignment)
            if value is False:
                return False
            if value is None:
                undecided = True
        return None if undecided else True

    def evaluate_names(self, named_assignment: Mapping[str, bool]) -> Optional[bool]:
        """Evaluate against a name-keyed assignment (used by the test-suite)."""
        assignment = {
            self.pool.index_of(name): value
            for name, value in named_assignment.items()
            if self.pool.has_name(name)
        }
        return self.evaluate(assignment)

    def copy(self) -> "CNF":
        """A shallow copy sharing the variable pool (clauses list is new)."""
        duplicate = CNF(pool=self.pool)
        duplicate.clauses = list(self.clauses)
        return duplicate

    def summary(self) -> str:
        return (
            f"CNF: {self.variable_count()} variables, {self.clause_count()} clauses, "
            f"{self.literal_count()} literals"
        )
