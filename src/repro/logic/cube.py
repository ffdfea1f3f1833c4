"""Cubes and covers: conjunctions of literals and sums of such conjunctions.

A :class:`Cube` maps variable names to required boolean values (a partial
assignment).  A :class:`Cover` is a set of cubes interpreted as their
disjunction.  These are the data structures used to represent:

* FSM transition guards after input enumeration,
* minimised state labels ``L(s)`` for the ``T_M`` construction (Definition 4
  of the paper), and
* the bounded "uncovered terms" produced by Algorithm 1 before they are
  pushed into the architectural property's parse tree.

A small Quine–McCluskey style minimiser (:func:`minimize_cover`) keeps the
printed formulas legible, matching the paper's "after minimization" remark in
Example 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .boolexpr import BoolExpr, FALSE, TRUE, and_, not_, or_, var

__all__ = ["Cube", "Cover", "cover_from_expr", "minimize_cover"]


@dataclass(frozen=True)
class Cube:
    """A conjunction of literals, stored as an immutable partial assignment."""

    literals: Tuple[Tuple[str, bool], ...]

    def __init__(self, literals: Mapping[str, bool] | Iterable[Tuple[str, bool]] = ()):
        if isinstance(literals, Mapping):
            items = tuple(sorted(literals.items()))
        else:
            items = tuple(sorted(dict(literals).items()))
        object.__setattr__(self, "literals", items)

    # -- accessors ---------------------------------------------------------
    def as_dict(self) -> Dict[str, bool]:
        return dict(self.literals)

    def variables(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.literals)

    def value(self, name: str) -> Optional[bool]:
        """The required value of ``name`` in this cube, or ``None`` if free."""
        for key, val in self.literals:
            if key == name:
                return val
        return None

    def is_true(self) -> bool:
        """True when the cube has no literals (the universal cube)."""
        return not self.literals

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Tuple[str, bool]]:
        return iter(self.literals)

    # -- algebra -----------------------------------------------------------
    def conflicts_with(self, other: "Cube") -> bool:
        """True when the two cubes require opposite values of some variable."""
        mine = self.as_dict()
        for name, val in other.literals:
            if name in mine and mine[name] != val:
                return True
        return False

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """Conjunction of two cubes, or ``None`` when they conflict."""
        if self.conflicts_with(other):
            return None
        merged = self.as_dict()
        merged.update(other.as_dict())
        return Cube(merged)

    def contains(self, other: "Cube") -> bool:
        """True when every assignment satisfying ``other`` satisfies ``self``."""
        other_map = other.as_dict()
        for name, val in self.literals:
            if other_map.get(name) != val:
                return False
        return True

    def satisfied_by(self, assignment: Mapping[str, bool]) -> bool:
        """True when the (total) assignment satisfies every literal."""
        return all(bool(assignment.get(name, False)) == val for name, val in self.literals)

    def drop(self, names: Iterable[str]) -> "Cube":
        """Existentially project away the given variables."""
        names = set(names)
        return Cube({name: val for name, val in self.literals if name not in names})

    def restrict(self, names: Iterable[str]) -> "Cube":
        """Keep only literals over the given variables."""
        names = set(names)
        return Cube({name: val for name, val in self.literals if name in names})

    def with_literal(self, name: str, value: bool) -> Optional["Cube"]:
        """Add a literal; ``None`` if it conflicts with an existing one."""
        current = self.value(name)
        if current is not None and current != value:
            return None
        merged = self.as_dict()
        merged[name] = value
        return Cube(merged)

    # -- conversions ---------------------------------------------------------
    def to_expr(self) -> BoolExpr:
        """Convert to a :class:`BoolExpr` conjunction."""
        if not self.literals:
            return TRUE
        terms = [var(name) if val else not_(var(name)) for name, val in self.literals]
        return and_(*terms)

    def to_str(self) -> str:
        if not self.literals:
            return "1"
        return " & ".join(name if val else f"!{name}" for name, val in self.literals)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_str()


@dataclass(frozen=True)
class Cover:
    """A set of cubes interpreted as their disjunction."""

    cubes: Tuple[Cube, ...] = field(default_factory=tuple)

    def __init__(self, cubes: Iterable[Cube] = ()):
        unique: List[Cube] = []
        seen = set()
        for cube in cubes:
            if cube not in seen:
                seen.add(cube)
                unique.append(cube)
        object.__setattr__(self, "cubes", tuple(unique))

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def is_false(self) -> bool:
        return not self.cubes

    def is_true(self) -> bool:
        return any(cube.is_true() for cube in self.cubes)

    def variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for cube in self.cubes:
            names = names | cube.variables()
        return names

    def satisfied_by(self, assignment: Mapping[str, bool]) -> bool:
        return any(cube.satisfied_by(assignment) for cube in self.cubes)

    def add(self, cube: Cube) -> "Cover":
        return Cover(list(self.cubes) + [cube])

    def union(self, other: "Cover") -> "Cover":
        return Cover(list(self.cubes) + list(other.cubes))

    def to_expr(self) -> BoolExpr:
        if not self.cubes:
            return FALSE
        return or_(*(cube.to_expr() for cube in self.cubes))

    def to_str(self) -> str:
        if not self.cubes:
            return "0"
        parts = []
        for cube in self.cubes:
            text = cube.to_str()
            parts.append(f"({text})" if len(cube) > 1 else text)
        return " | ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_str()


def cover_from_expr(expr: BoolExpr, names: Sequence[str] | None = None) -> Cover:
    """Enumerate the minterms of ``expr`` over ``names`` as a cover.

    The result is not minimised; feed it to :func:`minimize_cover` to get a
    compact two-level representation.
    """
    if names is None:
        names = sorted(expr.variables())
    cubes = []
    from .boolexpr import all_assignments

    for assignment in all_assignments(list(names)):
        if expr.evaluate(assignment):
            cubes.append(Cube(assignment))
    return Cover(cubes)


def _merge_cubes(left: Cube, right: Cube) -> Optional[Cube]:
    """Combine two cubes differing in exactly one literal's polarity."""
    if left.variables() != right.variables():
        return None
    left_map = left.as_dict()
    right_map = right.as_dict()
    differing = [name for name in left_map if left_map[name] != right_map[name]]
    if len(differing) != 1:
        return None
    merged = dict(left_map)
    del merged[differing[0]]
    return Cube(merged)


def minimize_cover(cover: Cover, names: Sequence[str] | None = None) -> Cover:
    """Quine–McCluskey style two-level minimisation.

    Computes the prime implicants by iterated pairwise merging, then greedily
    selects a small set of primes that covers every original minterm.  Exact
    minimality is not guaranteed (the covering step is greedy) but results are
    canonical enough for legible ``T_M`` labels and transition guards.
    """
    if cover.is_false():
        return cover
    if names is None:
        names = sorted(cover.variables())
    if not names:
        return Cover([Cube()]) if cover.cubes else cover

    # Expand every cube to full minterms over `names` so merging is uniform.
    minterm_cubes: List[Cube] = []
    from .boolexpr import all_assignments

    expr = cover.to_expr()
    for assignment in all_assignments(list(names)):
        if expr.evaluate(assignment):
            minterm_cubes.append(Cube(assignment))
    if not minterm_cubes:
        return Cover([])
    if len(minterm_cubes) == 1 << len(names):
        return Cover([Cube()])

    # Iteratively merge cubes differing in one bit to obtain prime implicants.
    current = set(minterm_cubes)
    primes = set()
    while current:
        merged_any = set()
        used = set()
        current_list = sorted(current, key=lambda c: c.literals)
        for i, left in enumerate(current_list):
            for right in current_list[i + 1:]:
                merged = _merge_cubes(left, right)
                if merged is not None:
                    merged_any.add(merged)
                    used.add(left)
                    used.add(right)
        primes |= current - used
        current = merged_any

    # Greedy prime cover of the original minterms.
    remaining = set(minterm_cubes)
    chosen: List[Cube] = []
    prime_list = sorted(primes, key=lambda c: (len(c), c.literals))
    # Essential primes first: minterms covered by exactly one prime, taken
    # in minterm order so the cover is the same in every process.
    for minterm in minterm_cubes:
        covering = [prime for prime in prime_list if prime.contains(minterm)]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
    for prime in chosen:
        remaining = {m for m in remaining if not prime.contains(m)}
    while remaining:
        best = max(prime_list, key=lambda prime: sum(1 for m in remaining if prime.contains(m)))
        if not any(best.contains(m) for m in remaining):  # pragma: no cover - defensive
            break
        chosen.append(best)
        remaining = {m for m in remaining if not best.contains(m)}
    return Cover(chosen)
