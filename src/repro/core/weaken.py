"""Structure-preserving weakening of architectural properties (step 2(d)).

Given the architectural property ``F_A`` and the weakening suggestions
produced by the push phase, this module builds candidate gap properties by
augmenting a single atom *instance* of ``F_A`` with a new literal:

* an instance in a **negative** polarity position (an antecedent) is
  strengthened — ``a`` becomes ``a & lit`` — which *weakens* the overall
  property,
* an instance in a **positive** polarity position (a consequent) is replaced
  by ``a | lit`` — likewise weakening the property.

This is exactly the paper's ``phi' / phi''`` construction: the two polarities
of the candidate literal give the two conjuncts whose conjunction is the
original property, and the one that is still uncovered is reported as the gap.

At most :data:`MAX_CANDIDATES` candidates are built.  Every candidate is
then

1. checked to be genuinely *weaker* than ``F_A`` (an LTL implication check),
2. checked to *close the gap* — Theorem 1 with the candidate added to the RTL
   specification, and
3. filtered so only the weakest closing candidates survive (Definition 3 asks
   for the weakest property that closes the hole).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..ltl.ast import And, Atom, Formula, Next, Not, Or
from ..ltl.printer import to_str
from ..ltl.rewrite import canonical, simplify, substitute_atom_instance
from ..ltl.sat import implies as ltl_implies
from .push import WeakeningSuggestion

__all__ = ["GapCandidate", "apply_weakening", "generate_candidates", "select_weakest"]

#: Cap on the candidates :func:`generate_candidates` builds from one push.
MAX_CANDIDATES = 48


@dataclass(frozen=True)
class GapCandidate:
    """A candidate gap property derived from one weakening suggestion."""

    formula: Formula
    suggestion: WeakeningSuggestion
    description: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return to_str(self.formula)


def _literal_formula(name: str, value: bool, x_offset: int) -> Formula:
    literal: Formula = Atom(name) if value else Not(Atom(name))
    for _ in range(x_offset):
        literal = Next(literal)
    return literal


def apply_weakening(formula: Formula, suggestion: WeakeningSuggestion) -> Formula:
    """Apply one weakening suggestion to the property and return the result."""
    instance = suggestion.instance
    literal = _literal_formula(suggestion.literal_name, suggestion.literal_value, suggestion.x_offset)
    original = Atom(instance.name)
    if instance.polarity < 0:
        replacement: Formula = And(original, literal)
    else:
        replacement = Or(original, literal)
    return simplify(substitute_atom_instance(formula, instance.path, replacement))


def generate_candidates(
    formula: Formula,
    suggestions: Sequence[WeakeningSuggestion],
) -> List[GapCandidate]:
    """Build up to :data:`MAX_CANDIDATES` candidate gap properties.

    For every suggestion the observed literal polarity is tried first, then
    the opposite one (the paper's ``phi'``/``phi''`` pair), so that whichever
    half is uncovered can be reported.
    """
    candidates: List[GapCandidate] = []
    seen = set()
    for suggestion in suggestions:
        for value in (suggestion.literal_value, not suggestion.literal_value):
            adjusted = WeakeningSuggestion(
                instance=suggestion.instance,
                literal_name=suggestion.literal_name,
                literal_value=value,
                x_offset=suggestion.x_offset,
                support=suggestion.support,
            )
            weakened = apply_weakening(formula, adjusted)
            if weakened == formula or weakened in seen:
                continue
            seen.add(weakened)
            candidates.append(
                GapCandidate(
                    formula=weakened,
                    suggestion=adjusted,
                    description=adjusted.describe(),
                )
            )
            if len(candidates) >= MAX_CANDIDATES:
                return candidates
    return candidates


def select_weakest(
    original: Formula,
    candidates: Sequence[GapCandidate],
    closes_gap: Callable[[Formula], bool],
    *,
    max_reported: int = 3,
) -> List[GapCandidate]:
    """Filter candidates to the ``max_reported`` weakest that close the gap.

    ``closes_gap`` is the model-relative Theorem-1 check supplied by the
    coverage driver.  Candidates that are not implied by the original property
    are discarded (they would strengthen the intent rather than decompose it).

    Each distinct question is asked once, up to the canonical key
    (:func:`repro.ltl.rewrite.canonical`): a candidate whose key an earlier
    candidate has is another spelling of a decided formula and is skipped (the
    earlier spelling is the one reported), and two formulas with one key
    imply each other without a tableau.
    """
    key = {original: canonical(original)}
    # The dominance and dedup loops below meet the same pairs again.
    answers: Dict[Tuple[Formula, Formula], bool] = {}

    def implies(antecedent: Formula, consequent: Formula) -> bool:
        pair = (key[antecedent], key[consequent])
        if pair[0] == pair[1]:
            return True
        answer = answers.get(pair)
        if answer is None:
            answer = answers[pair] = ltl_implies(antecedent, consequent)
        return answer

    decided = set()
    closing: List[GapCandidate] = []
    for candidate in candidates:
        candidate_key = key[candidate.formula] = canonical(candidate.formula)
        # Equal keys get equal implication answers and closure verdicts, so
        # a later spelling could only repeat the earlier one's outcome (the
        # dedup below would drop it).
        if candidate_key in decided:
            continue
        decided.add(candidate_key)
        if not implies(original, candidate.formula):
            continue
        # A candidate equivalent to the original is useless as a gap
        # property (the original always closes its own gap); Definition 3
        # asks for something strictly weaker.
        if implies(candidate.formula, original):
            continue
        if closes_gap(candidate.formula):
            closing.append(candidate)

    # Keep only maximally weak candidates: drop any candidate for which another
    # closing candidate is strictly weaker.
    weakest: List[GapCandidate] = []
    for candidate in closing:
        dominated = False
        for other in closing:
            if implies(candidate.formula, other.formula) and not implies(
                other.formula, candidate.formula
            ):
                dominated = True
                break
        if not dominated:
            weakest.append(candidate)

    # Deduplicate semantically equivalent survivors (keep the first).
    unique: List[GapCandidate] = []
    for candidate in weakest:
        if any(
            implies(candidate.formula, kept.formula)
            and implies(kept.formula, candidate.formula)
            for kept in unique
        ):
            continue
        unique.append(candidate)
        if len(unique) >= max_reported:
            break
    return unique
