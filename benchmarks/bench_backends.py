"""Ablation: the engine × design matrix for the primary coverage question.

Theorem 1 reduces the coverage question to one model-checking query on the
concrete modules.  The tool ships three coverage engines for that query — the
explicit-state product/nested-DFS engine (:mod:`repro.mc`), the bounded
SAT-based engine (:mod:`repro.bmc`) and the fully symbolic BDD fixpoint
engine (:mod:`repro.mc.symbolic`).  This benchmark runs every engine on every
catalogued design and checks them against the catalogue; the per-cell
timings show the trade-offs (the explicit engine is complete; BMC pays
per-bound SAT calls but touches only the behaviour up to the bound; the
symbolic engine is complete and scales with BDD width rather than state
count).  None of the engines asks a propositional decision; in the pipeline
those only fold ``T_M``'s constant nets, on one BDD per net.

A separate micro-benchmark certifies why those decisions use BDDs: on a
wide (≥ 12-variable) equivalence query the BDD decision of
:func:`~repro.logic.boolexpr.expr_equivalent` beats the exhaustive
truth-table sweep outright.

CI quick mode
-------------
``python benchmarks/bench_backends.py --quick --output BENCH_engines.json``
runs all four engines (explicit / bmc / symbolic / portfolio) on the small
catalog designs with the cone-of-influence slicing rule **as shipped and
off** (the unsliced pass sets the rule's threshold to 0.0, see
:func:`_slice_rule`), asserts cross-engine and sliced-vs-unsliced verdict
agreement, asserts that the rule never slows a design down meaningfully
(per-design speedup ≥ 0.95× over the summed engine timings — the rule skips
near-full cones precisely because always-on slicing regressed them), and
writes a JSON trajectory artifact — per design × engine: verdict,
sliced/unsliced seconds, slicing speedup, and the portfolio's per-conjunct
winners — that the benchmark CI lane uploads on every run.

The quick mode then times the ``auto`` engine on the same designs.  The
per-conjunct solo timings give the per-query-best oracle schedule (each
conjunct on its fastest decisive engine).  Each design gains an ``auto`` cell
(wall/CPU seconds, solo/fallback mode counts, queries decided by the rule's
pick) and two budgets are asserted: auto wall ≤ 1.3× the oracle schedule,
and auto CPU ≤ 0.5× the racing portfolio's process time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from repro.engines import get_engine
from repro.logic.boolexpr import and_, enumerate_equivalent, expr_equivalent, not_, or_, var

_DESIGNS = ["mal_fig2", "mal_fig4", "paper_example", "intel_like", "telemetry_bank"]
_QUICK_DESIGNS = ["mal_fig2", "mal_fig4", "paper_example", "telemetry_bank"]
_ENGINES = ["explicit", "bmc"]
_ALL_ENGINES = ["explicit", "bmc", "symbolic", "portfolio"]
_BMC_BOUND = 6


def _available_designs():
    from repro.designs import get_design

    names = []
    for name in _DESIGNS:
        try:
            get_design(name)
            names.append(name)
        except KeyError:
            continue
    return names


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("name", _available_designs())
def test_primary_coverage_backend_matrix(benchmark, engine, name):
    from repro.designs import get_design

    entry = get_design(name)
    problem = entry.builder()
    engine_instance = get_engine(engine, max_bound=_BMC_BOUND)

    verdict = benchmark.pedantic(
        lambda: engine_instance.check_primary(problem), rounds=1, iterations=1
    )

    # Every engine must agree with the catalogued verdict.  (For BMC a "covered" verdict is bounded; on these
    # glue-logic-sized designs the bound exceeds the diameter, so the
    # verdicts coincide.)
    assert verdict.covered == entry.expected_covered
    assert verdict.engine == engine_instance.name


@pytest.mark.parametrize("name", _available_designs())
def test_primary_coverage_symbolic_engine(benchmark, name):
    """The symbolic engine, once per design."""
    from repro.designs import get_design

    entry = get_design(name)
    problem = entry.builder()
    engine_instance = get_engine("symbolic")

    verdict = benchmark.pedantic(
        lambda: engine_instance.check_primary(problem), rounds=1, iterations=1
    )
    assert verdict.covered == entry.expected_covered
    assert verdict.complete


def _wide_equivalent_pair(width: int):
    """Two syntactically different but equivalent expressions over ``2*width`` vars.

    ``left`` is a sum of products; ``right`` is the same function written
    through De Morgan's laws with shuffled operand order — forcing a real
    equivalence decision rather than a syntactic match.
    """
    xs = [var(f"x{i}") for i in range(width)]
    ys = [var(f"y{i}") for i in range(width)]
    left = or_(*(and_(xs[i], ys[i]) for i in range(width)))
    right = not_(and_(*(or_(not_(xs[i]), not_(ys[i])) for i in reversed(range(width)))))
    return left, right


def test_wide_equivalence_beats_truth_table():
    """The BDD decision must beat exhaustive enumeration on a ≥ 12-variable query."""
    left, right = _wide_equivalent_pair(8)  # 16 variables, 65536 rows for the table
    assert len(left.variables() | right.variables()) >= 12

    timings = {}
    for name, decide in (("bdd", expr_equivalent), ("table", enumerate_equivalent)):
        start = time.perf_counter()
        assert decide(left, right)
        timings[name] = time.perf_counter() - start

    assert timings["bdd"] < timings["table"], timings


# -- CI quick mode -------------------------------------------------------------


def _timed_pass(engine, problem):
    """Run the primary question per conjunct; time the whole pass and each query.

    Returns ``(per_conjunct, complete, winners, seconds, cpu, details)`` where
    ``details`` carries one record per conjunct (its own wall time, feature
    vector, verdict and winner) — the raw material for the per-query-best
    oracle below.
    """
    winners = []
    per_conjunct = []
    details = []
    complete = True
    start = time.perf_counter()
    cpu_start = time.process_time()
    for target in problem.architectural:
        query_start = time.perf_counter()
        verdict = engine.check_primary(problem, architectural=target)
        details.append(
            {
                "seconds": time.perf_counter() - query_start,
                "features": verdict.features,
                "covered": bool(verdict.covered),
                "complete": bool(verdict.complete),
                "winner": verdict.winner,
            }
        )
        per_conjunct.append(bool(verdict.covered))
        complete = complete and bool(verdict.complete)
        if verdict.winner:
            winners.append(verdict.winner)
    cpu = time.process_time() - cpu_start
    seconds = time.perf_counter() - start
    return per_conjunct, complete, winners, seconds, cpu, details


@contextmanager
def _slice_rule(sliced: bool):
    """Run the block with the slicing rule as shipped, or with slicing off.

    Off sets :data:`repro.problem.ir.AUTO_SLICE_THRESHOLD` to 0.0 until the
    block ends.  The compile memo keys on the threshold, so the two passes
    never share a compiled problem and no cache needs clearing between them
    (clearing would make only the unsliced pass recompile).
    """
    import repro.problem.ir as ir

    shipped = ir.AUTO_SLICE_THRESHOLD
    if not sliced:
        ir.AUTO_SLICE_THRESHOLD = 0.0
    try:
        yield
    finally:
        ir.AUTO_SLICE_THRESHOLD = shipped


def run_engine_trajectory(designs=None, *, bound: int = _BMC_BOUND) -> dict:
    """Run every engine on the given designs; return the trajectory payload.

    Each design × engine cell runs the primary coverage question *per
    architectural conjunct* (the shape the suite shards and the gap pipeline
    use) twice — with the cone-of-influence slicing rule as shipped, then
    with slicing off — and records both wall-clock totals plus the speedup.  For
    the portfolio engine the per-conjunct race winners are recorded.  Asserts
    that all engines agree (bounded verdicts included: on these
    glue-logic-sized designs the bound exceeds the diameter), that sliced and
    unsliced runs return identical verdicts, and that the slicing rule never
    regresses a design's summed engine time below 0.95× of the unsliced
    total, so the CI lane fails on any disagreement or slicing regression,
    not just on crashes.
    """
    from repro.designs import get_design

    payload = {"bmc_bound": bound, "designs": {}, "design_slicing_speedup": {}}
    design_list = list(designs or _QUICK_DESIGNS)
    problems = {}
    solo_details = {}
    for name in design_list:
        entry = get_design(name)
        problem = entry.builder()
        problems[name] = problem
        solo_details[name] = {}
        row = {}
        for engine_name in _ALL_ENGINES:
            cell = {}
            verdicts_by_mode = {}
            # One warm-up pass first: it fills the process-wide memo caches
            # (compiled automata, compile_problem) that both timed modes
            # would otherwise race to pay.  Without it, whichever mode runs
            # first absorbs the warm-up cost, and on full-cone designs —
            # where the rule and "off" do identical work — that one-time cost
            # masquerades as a slicing regression.  Its per-conjunct records
            # still count as a third observation for the oracle schedule
            # (which takes the minimum across passes, so its cold timings
            # never skew it).
            warm = get_engine(engine_name, max_bound=bound)
            _, _, _, _, _, warm_details = _timed_pass(warm, problem)
            solo_details[name][engine_name] = {"warmup": warm_details}

            def run_mode(sliced):
                with _slice_rule(sliced):
                    return _timed_pass(get_engine(engine_name, max_bound=bound), problem)

            for mode, sliced in (("sliced", True), ("unsliced", False)):
                per_conjunct, complete, winners, seconds, cpu, details = run_mode(
                    sliced
                )
                verdicts_by_mode[mode] = per_conjunct
                cell[f"seconds_{mode}"] = round(seconds, 4)
                solo_details[name].setdefault(engine_name, {})[mode] = details
                if mode == "sliced":
                    cell["covered"] = all(per_conjunct)
                    cell["complete"] = complete
                    # CPU (process time) of the sliced pass: the racing
                    # portfolio burns all members' CPU concurrently, which is
                    # exactly what the auto engine's CPU budget is judged
                    # against below.
                    cell["cpu_seconds"] = round(cpu, 4)
                    if winners:
                        cell["winners"] = winners
            assert verdicts_by_mode["sliced"] == verdicts_by_mode["unsliced"], (
                f"slicing changed a verdict on {name}/{engine_name}: {verdicts_by_mode}"
            )
            # Second timing sweep in *reverse* mode order, keeping the
            # per-mode minimum: one pass per mode was measured swinging
            # 10-15% between reps on a shared runner (the threaded portfolio
            # cells swing 3x), which is enough to breach the 0.95x floor
            # below on pure noise.  The min of two passes in opposite orders
            # also cancels any residual warm-up bias.
            for mode, sliced in (("unsliced", False), ("sliced", True)):
                _, _, _, seconds, _, _ = run_mode(sliced)
                cell[f"seconds_{mode}"] = round(
                    min(cell[f"seconds_{mode}"], seconds), 4
                )

            def speedup():
                return round(
                    cell["seconds_unsliced"] / max(cell["seconds_sliced"], 1e-9), 2
                )

            # The slicing rule must never be a regression: on near-full cones
            # it skips the slice outright, so a measurable cell staying
            # below 0.95x of the unsliced time means the heuristic broke.
            # Sub-50ms cells are timer noise and exempt; an apparent
            # regression is re-timed before failing, in *reverse* mode order
            # — whichever mode runs second inherits warmed process-global
            # state (hash-consing tables, BDD nodes), so taking the best of
            # both positions per mode cancels that bias along with transient
            # load spikes on a shared CI runner.
            retries = 2
            while (
                cell["seconds_unsliced"] >= 0.05
                and speedup() < 0.95
                and retries > 0
            ):
                retries -= 1
                _, _, _, again_unsliced, _, _ = run_mode(False)
                _, _, _, again_sliced, _, _ = run_mode(True)
                cell["seconds_sliced"] = round(
                    min(cell["seconds_sliced"], again_sliced), 4
                )
                cell["seconds_unsliced"] = round(
                    min(cell["seconds_unsliced"], again_unsliced), 4
                )
            cell["seconds"] = cell["seconds_sliced"]
            cell["slicing_speedup"] = speedup()
            row[engine_name] = cell
        verdicts = {cell["covered"] for cell in row.values()}
        assert len(verdicts) == 1, f"engine disagreement on {name}: {row}"
        assert row["explicit"]["covered"] == entry.expected_covered, name
        # The no-regression floor is asserted per *design*, over the summed
        # engine timings: individual cells run 0.1-2s, which is inside this
        # class of runner's timer variance (the same workload was measured
        # swinging 2x between reps), while the per-design total alternates
        # the two modes four times and averages the drift out.  Sub-0.2s
        # totals are exempt as pure noise.
        # The per-cell retry above only fires when a *single* cell regresses
        # past the floor; several cells drifting to ~0.95x at once (the
        # portfolio's threaded cells are especially jittery) can still sum
        # below it.  Re-time the worst measurable cell — both modes, reverse
        # order, keeping the per-mode minimum — until the design clears the
        # floor or the budget runs out, so a genuine regression still fails
        # after five clean measurements of its slowest cell.
        design_retries = 3
        while design_retries > 0:
            total_sliced = sum(cell["seconds_sliced"] for cell in row.values())
            total_unsliced = sum(cell["seconds_unsliced"] for cell in row.values())
            if total_unsliced < 0.2 or total_unsliced / max(total_sliced, 1e-9) >= 0.95:
                break
            design_retries -= 1
            worst = min(
                (
                    engine_name
                    for engine_name, cell in row.items()
                    if cell["seconds_unsliced"] >= 0.05
                ),
                key=lambda engine_name: (
                    row[engine_name]["seconds_unsliced"]
                    / max(row[engine_name]["seconds_sliced"], 1e-9)
                ),
                default=None,
            )
            if worst is None:
                break
            worst_cell = row[worst]
            with _slice_rule(False):
                _, _, _, again_unsliced, _, _ = _timed_pass(
                    get_engine(worst, max_bound=bound), problem
                )
            _, _, _, again_sliced, _, _ = _timed_pass(
                get_engine(worst, max_bound=bound), problem
            )
            worst_cell["seconds_unsliced"] = round(
                min(worst_cell["seconds_unsliced"], again_unsliced), 4
            )
            worst_cell["seconds_sliced"] = round(
                min(worst_cell["seconds_sliced"], again_sliced), 4
            )
            worst_cell["seconds"] = worst_cell["seconds_sliced"]
            worst_cell["slicing_speedup"] = round(
                worst_cell["seconds_unsliced"]
                / max(worst_cell["seconds_sliced"], 1e-9),
                2,
            )
        total_sliced = sum(cell["seconds_sliced"] for cell in row.values())
        total_unsliced = sum(cell["seconds_unsliced"] for cell in row.values())
        design_speedup = round(total_unsliced / max(total_sliced, 1e-9), 2)
        payload["design_slicing_speedup"][name] = design_speedup
        if total_unsliced >= 0.2:
            assert design_speedup >= 0.95, (
                f"the slicing rule regressed design {name}: {design_speedup}x "
                f"({total_sliced:.3f}s sliced vs {total_unsliced:.3f}s unsliced)"
            )
        payload["designs"][name] = row

    _run_auto_trajectory(payload, design_list, problems, solo_details, bound=bound)
    return payload


_SOLO_MEMBERS = ("explicit", "bmc", "symbolic")


def _run_auto_trajectory(payload, design_list, problems, solo_details, *, bound):
    """Benchmark ``--engine auto`` against the per-query-best oracle schedule.

    The per-conjunct solo timings from the engine matrix give the oracle:
    each conjunct runs on its fastest *decisive* member (bmc is excluded
    wherever its verdict was bounded — the auto engine cannot accept an
    incomplete answer either, it would have to fall back and pay more).  The
    auto engine is then timed exactly like the other cells.

    Two budgets are asserted over the catalog designs collectively (the
    per-design records still land in the payload), with the same noise floors
    and best-of-retries protocol as the slicing assertion above:

    * wall clock: auto <= 1.3x the per-query-best oracle schedule (each
      conjunct on its fastest decisive member back to back), plus a 0.25s
      absolute allowance — on sub-second catalogs the fixed overhead of the
      occasional fallback race dominates any ratio;
    * CPU: auto <= 0.5x the racing portfolio's process time — the entire
      point of picking one engine is not paying every member's CPU on every
      query.
    """
    from repro.engines.auto import pick_engine

    oracle = {}
    for name in design_list:
        details = solo_details[name]
        winners = []
        best_wall = 0.0
        for index in range(len(problems[name].architectural)):
            eligible = {}
            for member in _SOLO_MEMBERS:
                passes = details[member]
                if not passes["sliced"][index]["complete"]:
                    continue
                eligible[member] = min(
                    mode_details[index]["seconds"]
                    for mode_details in passes.values()
                )
            winner = min(eligible, key=lambda member: eligible[member])
            winners.append(winner)
            best_wall += eligible[winner]
        oracle[name] = {"wall": best_wall, "engines": winners}

    def run_auto(name, sliced):
        with _slice_rule(sliced):
            return _timed_pass(get_engine("auto", max_bound=bound), problems[name])

    def run_oracle(name):
        problem = problems[name]
        total = 0.0
        for target, member in zip(problem.architectural, oracle[name]["engines"]):
            engine = get_engine(member, max_bound=bound)
            start = time.perf_counter()
            engine.check_primary(problem, architectural=target)
            total += time.perf_counter() - start
        return total

    for name in design_list:
        problem = problems[name]
        row = payload["designs"][name]
        # Warm-up pass, as above, so the timed modes start from the same
        # process-global caches as the other cells did.
        for target in problem.architectural:
            get_engine("auto", max_bound=bound).check_primary(
                problem, architectural=target
            )

        cell = {}
        per_conjunct, complete, winners, seconds, cpu, details = run_auto(name, True)
        per_unsliced, _, _, seconds_unsliced, _, _ = run_auto(name, False)
        assert per_conjunct == per_unsliced, f"slicing changed an auto verdict on {name}"
        expected = [d["covered"] for d in solo_details[name]["explicit"]["sliced"]]
        assert per_conjunct == expected, (
            f"auto disagreed with explicit on {name}: {per_conjunct} vs {expected}"
        )
        # A query is "solo" when the rule's pick decided it, "fallback" when
        # bmc found no witness and the complete engines raced to finish it.
        solo = sum(1 for d in details if d["winner"] == pick_engine(d["features"]))
        modes = {"solo": solo, "fallback": len(details) - solo}
        cell["covered"] = all(per_conjunct)
        cell["complete"] = complete
        cell["seconds_sliced"] = round(seconds, 4)
        cell["seconds_unsliced"] = round(seconds_unsliced, 4)
        cell["cpu_seconds"] = round(cpu, 4)
        cell["modes"] = {mode: count for mode, count in modes.items() if count}
        cell["predicted_hits"] = solo
        cell["oracle_seconds"] = round(oracle[name]["wall"], 4)
        if winners:
            cell["winners"] = winners
        cell["seconds"] = cell["seconds_sliced"]
        cell["slicing_speedup"] = round(
            cell["seconds_unsliced"] / max(cell["seconds_sliced"], 1e-9), 2
        )
        row["auto"] = cell

    def totals():
        auto_wall = sum(payload["designs"][n]["auto"]["seconds_sliced"] for n in design_list)
        auto_cpu = sum(payload["designs"][n]["auto"]["cpu_seconds"] for n in design_list)
        oracle_wall = sum(oracle[n]["wall"] for n in design_list)
        portfolio_cpu = sum(
            payload["designs"][n]["portfolio"]["cpu_seconds"] for n in design_list
        )
        return auto_wall, auto_cpu, oracle_wall, portfolio_cpu

    def wall_budget(oracle_wall):
        return max(1.3 * oracle_wall, oracle_wall + 0.25)

    def cpu_budget(portfolio_cpu):
        return max(0.5 * portfolio_cpu, 0.1)

    retries = 2
    while retries > 0:
        auto_wall, auto_cpu, oracle_wall, portfolio_cpu = totals()
        wall_ok = oracle_wall < 0.05 or auto_wall <= wall_budget(oracle_wall)
        cpu_ok = portfolio_cpu < 0.2 or auto_cpu <= cpu_budget(portfolio_cpu)
        if wall_ok and cpu_ok:
            break
        retries -= 1
        # Same best-of protocol as the slicing retries: re-time the auto
        # pass and the oracle schedule, keep each side's minimum.
        for name in design_list:
            cell = payload["designs"][name]["auto"]
            oracle[name]["wall"] = min(oracle[name]["wall"], run_oracle(name))
            cell["oracle_seconds"] = round(oracle[name]["wall"], 4)
            _, _, _, again, again_cpu, _ = run_auto(name, True)
            cell["seconds_sliced"] = round(min(cell["seconds_sliced"], again), 4)
            cell["cpu_seconds"] = round(min(cell["cpu_seconds"], again_cpu), 4)
            cell["seconds"] = cell["seconds_sliced"]

    auto_wall, auto_cpu, oracle_wall, portfolio_cpu = totals()
    payload["sched"] = {
        "catalog": {
            "auto_wall_seconds": round(auto_wall, 4),
            "oracle_wall_seconds": round(oracle_wall, 4),
            "auto_cpu_seconds": round(auto_cpu, 4),
            "portfolio_cpu_seconds": round(portfolio_cpu, 4),
        }
    }
    if oracle_wall >= 0.05:
        assert auto_wall <= wall_budget(oracle_wall), (
            f"auto engine overshot the catalog wall budget: {auto_wall:.3f}s "
            f"vs per-query best {oracle_wall:.3f}s"
        )
    if portfolio_cpu >= 0.2:
        assert auto_cpu <= cpu_budget(portfolio_cpu), (
            f"auto engine burned too much CPU: {auto_cpu:.3f}s vs "
            f"portfolio {portfolio_cpu:.3f}s"
        )
    return payload


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description=(
            "engine-trajectory benchmark "
            "(explicit / bmc / symbolic / portfolio / auto, slicing on vs off)"
        )
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="restrict to the small catalog designs (the CI lane default)",
    )
    parser.add_argument("--designs", nargs="+", metavar="NAME")
    parser.add_argument("--bound", type=int, default=_BMC_BOUND)
    parser.add_argument("--output", metavar="FILE", help="write the JSON payload to FILE")
    args = parser.parse_args(argv)

    designs = args.designs or (_QUICK_DESIGNS if args.quick else _DESIGNS)
    payload = run_engine_trajectory(designs, bound=args.bound)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text if not args.output else f"engine trajectory written to {args.output}")
    for name, row in payload["designs"].items():
        cells = "  ".join(
            f"{e}={c['seconds']:.3f}s(x{c['slicing_speedup']:.1f})" for e, c in row.items()
        )
        print(f"  {name:<15} covered={row['explicit']['covered']!s:<5} {cells}")
        winners = row.get("portfolio", {}).get("winners")
        if winners:
            print(f"  {'':<15} portfolio winners: {', '.join(winners)}")
        auto = row.get("auto")
        if auto:
            modes = ", ".join(f"{k}={v}" for k, v in auto["modes"].items())
            print(
                f"  {'':<15} auto: {auto['seconds']:.3f}s "
                f"(oracle {auto['oracle_seconds']:.3f}s, "
                f"cpu {auto['cpu_seconds']:.3f}s vs portfolio "
                f"{row['portfolio']['cpu_seconds']:.3f}s) {modes}"
            )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
