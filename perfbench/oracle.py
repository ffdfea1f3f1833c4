"""The verdict oracle behind ``success_ratio``.

Every op's outcome is checked after the timed window.  An op passes only if
it finished within its budget and

* a catalog verdict equals the catalog's expectation for that conjunct (a
  BMC "covered up to the bound" counts as covered);
* every witness is a real run: replaying its free signals on
  :class:`repro.rtl.simulator.Simulator` reproduces every driven signal it
  records, and the run violates the architectural property while satisfying
  every RTL property (:func:`repro.ltl.traces.evaluate`);
* on a random design, no engine contradicts another that decides the
  property completely (explicit and symbolic always do; BMC only when it
  finds a witness), and repeats of one op give one verdict;
* in ``gap_analysis``, every uncovered property reports a gap property or
  the exact hole.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Expected verdicts of conjuncts whose design mixes covered and uncovered
#: intent: amba_ahb's master-1 grant is covered, its master-2 grant is the gap.
MIXED_CONJUNCTS = {("amba_ahb", 0): True, ("amba_ahb", 1): False}


def expected_conjunct(design: str, index: int, conjuncts: int) -> Optional[bool]:
    """Expected coverage of one catalog conjunct; ``None`` for random designs."""
    from repro.designs import CATALOG

    entry = CATALOG.get(design)
    if entry is None or entry.expected_covered is None:
        return None
    if entry.expected_covered:
        return True
    if conjuncts == 1:
        return False
    return MIXED_CONJUNCTS[(design, index)]


def replay_error(problem, target, witness) -> Optional[str]:
    """Why ``witness`` is not a real run refuting ``target`` (``None`` when it is)."""
    from repro.ltl.traces import LassoTrace, evaluate
    from repro.rtl.simulator import Simulator

    if witness is None:
        return "uncovered verdict without a witness"
    module = problem.composed_module()
    simulator = Simulator(module)
    free = module.environment_signals()
    recorded = set(witness.signals())
    driven = sorted((set(module.assigns) | set(module.registers)) & recorded)
    positions = len(witness.stem) + len(witness.loop)
    merged = []
    for cycle in range(len(witness.stem) + 2 * len(witness.loop)):
        valuation = simulator.step({name: witness.value(name, cycle) for name in free})
        for name in driven:
            if valuation[name] != witness.value(name, cycle):
                return f"replay diverges at cycle {cycle} on {name!r}"
        if cycle < positions:
            merged.append({**dict(witness.state_at(cycle)), **valuation})
    run = LassoTrace(merged[: len(witness.stem)], merged[len(witness.stem):])
    if evaluate(target, run):
        return "witness satisfies the architectural property"
    for formula in problem.all_rtl_formulas():
        if not evaluate(formula, run):
            return "witness violates an RTL property"
    return None


class Verdicts:
    """Verdicts of random-design properties across engines and repeats."""

    def __init__(self) -> None:
        self._seen: Dict[tuple, List[tuple]] = {}

    def add(self, key: tuple, engine: str, covered: bool, complete: bool, record: dict) -> None:
        self._seen.setdefault(key, []).append((engine, covered, complete, record))

    def contradictions(self) -> List[dict]:
        """Records whose verdict conflicts with a complete verdict or a repeat."""
        bad: List[dict] = []
        for rows in self._seen.values():
            # An uncovered verdict is complete for every engine (its witness
            # replayed); a bounded "covered" contradicts nothing.
            decided = {covered for _engine, covered, complete, _r in rows if complete}
            by_engine: Dict[str, set] = {}
            for engine, covered, _complete, _r in rows:
                by_engine.setdefault(engine, set()).add(covered)
            for engine, _covered, _complete, record in rows:
                if len(decided) > 1 or len(by_engine[engine]) > 1:
                    bad.append(record)
        return bad


def check_outcome(record: dict, problem, verdicts: Verdicts) -> Optional[str]:
    """Oracle for one primary-check outcome; returns the failure reason or ``None``."""
    op = record["op"]
    target = problem.architectural[op["conjunct"]]
    expected = expected_conjunct(op["design"], op["conjunct"], len(problem.architectural))
    if expected is not None and record["covered"] != expected:
        return f"verdict covered={record['covered']}, expected {expected}"
    if not record["covered"]:
        reason = replay_error(problem, target, record["witness"])
        if reason:
            return reason
    if expected is None:
        verdicts.add((op["design"], op["conjunct"]), op["engine"], record["covered"],
                      record["complete"], record)
    return None


def report_outcome(report) -> dict:
    """What :func:`check_report` needs of one ``analyze_problem`` report."""
    analyses = []
    for analysis in report.analyses:
        witnesses = [analysis.primary.witness]
        if analysis.terms is not None:
            witnesses += list(analysis.terms.witnesses)
        analyses.append({
            "covered": analysis.covered,
            "complete": analysis.complete,
            "explained": bool(analysis.gap_properties or (analysis.fallback_to_hole and analysis.hole)),
            "witnesses": witnesses,
        })
    return {"analyses": analyses}


def check_report(record: dict, problem, verdicts: Verdicts) -> Optional[str]:
    """Oracle for one :func:`report_outcome`; returns the failure reason or ``None``."""
    op = record["op"]
    analyses = record["analyses"]
    if len(analyses) != len(problem.architectural):
        return "report does not analyse every architectural property"
    for index, analysis in enumerate(analyses):
        target = problem.architectural[index]
        expected = expected_conjunct(op["design"], index, len(problem.architectural))
        if expected is not None and analysis["covered"] != expected:
            return f"property {index}: covered={analysis['covered']}, expected {expected}"
        if analysis["covered"]:
            complete = analysis["complete"]
        else:
            complete = True
            if not analysis["explained"]:
                return f"property {index}: uncovered without a gap property or the hole"
            for witness in analysis["witnesses"]:
                reason = replay_error(problem, target, witness)
                if reason:
                    return f"property {index}: {reason}"
        if expected is None:
            verdicts.add((op["design"], index), op["engine"], analysis["covered"], complete, record)
    return None


def fail_contradictions(verdicts: Verdicts) -> None:
    """Fail every outcome :meth:`Verdicts.contradictions` names (first reason wins)."""
    for record in verdicts.contradictions():
        if record.get("failure") is None:
            record["failure"] = "verdict contradicts another engine or a repeat"
