"""Tests of the benchmark's own code (not of specmatcher).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import stats  # noqa: E402
import tracing  # noqa: E402

_DUMP = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
from repro.designs.random import random_problem
from repro.ltl.printer import to_str
from repro.runner.cache import module_fingerprint
seed = int(sys.argv[1])
designs = []
for spec in workloads.random_specs(seed, 3):
    problem = random_problem(spec)
    designs.append([spec.name, module_fingerprint(problem.composed_module()),
                    [to_str(f) for f in problem.architectural + problem.rtl_properties]])
warm_up, requests = workloads.service_ops(seed, 30)
lists = {{"primary_sweep": workloads.primary_ops(seed, 30), "gap_analysis": workloads.gap_ops(seed, 30),
          "service_mixed": [warm_up] + requests}}
print(json.dumps({{"ops": lists, "designs": designs}}, sort_keys=True))
"""


def _dump(seed: int, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    script = _DUMP.format(bench=BENCH, src=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, str(seed)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, check=True, timeout=300,
    )
    return done.stdout


class TestOpLists:
    def test_seed_fixes_ops_and_designs_across_hash_seeds(self):
        first = _dump(5, "1")
        assert first == _dump(5, "2")
        dump = json.loads(first)
        assert all(dump["ops"][name] for name in dump["ops"])

    def test_another_seed_gives_other_designs(self):
        one = json.loads(_dump(5, "1"))["designs"]
        other = json.loads(_dump(6, "1"))["designs"]
        assert [d[1:] for d in one] != [d[1:] for d in other]

    def test_service_asks_each_new_key_once_per_block(self):
        import workloads

        warm_up, requests = workloads.service_ops(3, 2)
        seen = [json.dumps(warm_up, sort_keys=True)]
        block = workloads.SERVICE_NEW_KEY_EVERY
        for start in range(0, len(requests), block):
            fresh = 0
            for key in requests[start:start + block]:
                encoded = json.dumps(key, sort_keys=True)
                if encoded not in seen:
                    fresh += 1
                    seen.append(encoded)
            assert fresh == 1


class TestTail:
    @pytest.mark.parametrize("count", range(20, 600))
    def test_tail_is_highest_percentile_with_ten_beyond(self, count):
        pct = stats.tail_percentile(count)

        def beyond(p):
            return count - math.ceil(round(p / 100.0 * count, 9))

        assert beyond(pct) >= stats.TAIL_MIN_BEYOND
        assert beyond(pct + 0.1) < stats.TAIL_MIN_BEYOND

    def test_examples(self):
        assert stats.tail_percentile(100) == 90.0
        assert stats.tail_percentile(1000) == 99.0
        assert stats.tail_percentile(19) is None

    def test_too_few_samples_report_the_maximum(self):
        assert stats.latency_tail([3.0, 1.0, 2.0]) == (3.0, None)

    def test_tail_value_sits_between_neighbouring_ranks(self):
        samples = [float(i) for i in range(1, 101)]
        value, pct = stats.latency_tail(samples)
        assert pct == 90.0
        assert 88.0 < value < 92.0

    def test_quantile_of_constant_samples(self):
        assert stats.quantile([2.5] * 7, 0.5) == pytest.approx(2.5)

    def test_betainc_matches_closed_forms(self):
        # I_x(1, 1) = x and I_x(2, 1) = x^2.
        assert stats.betainc(1.0, 1.0, 0.3) == pytest.approx(0.3)
        assert stats.betainc(2.0, 1.0, 0.3) == pytest.approx(0.09)
        assert stats.betainc(50.5, 50.5, 0.5) == pytest.approx(0.5)


class TestSpeedProbe:
    def test_probe_times_passes_in_a_child_process(self):
        import speed

        probe = speed.SpeedProbe()
        try:
            probe.measure()
            probe.measure()
            assert probe._child.pid != os.getpid()
        finally:
            probe.close()
        assert len(probe.times) == 2 * speed.PASSES
        assert all(0.0 < value < 5.0 for value in probe.times)
        assert probe._child.returncode == 0


class TestSelfTime:
    # (span_id, name, start, end, parent_id, op_id)
    SPANS = [
        (1, "root", 0.0, 10.0, None, 1),
        (2, "a", 1.0, 3.0, 1, 1),
        (3, "b", 2.0, 4.0, 1, 1),  # overlaps "a": covered once
        (4, "a", 6.0, 8.0, 1, 1),
        (5, "c", 6.5, 7.0, 4, 1),
        (6, "root", 20.0, 21.0, None, 2),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = stats.self_times(self.SPANS)
        assert own["root"] == pytest.approx((10.0 - 5.0) + 1.0)
        assert own["a"] == pytest.approx(2.0 + 1.5)
        assert own["b"] == pytest.approx(2.0)
        assert own["c"] == pytest.approx(0.5)

    def test_nested_self_times_sum_to_root_durations(self):
        nested = [span for span in self.SPANS if span[1] != "b"]
        own = stats.self_times(nested)
        assert sum(own.values()) == pytest.approx(11.0)

    def test_counts(self):
        assert stats.span_counts(self.SPANS) == {"root": 2, "a": 2, "b": 1, "c": 1}

    def test_witness_queries_with_exclusions(self):
        spans = [
            (1, "core.witness", 0.0, 3.0, None, 1),
            (2, "engines.find_run", 0.0, 1.0, 1, 1),
            (3, "engines.find_run", 1.0, 3.0, 1, 1),
            (4, "engines.find_run", 5.0, 6.0, None, 1),
        ]
        attrs = {1: {"base": 3, "found": 1}, 2: {"formulas": 3}, 3: {"formulas": 4}}
        layers = tracing.layer_metrics(spans, attrs, {}, {}, ops=1)
        assert layers["core.witness.queries"] == 2
        assert layers["core.witness.yield_ratio"] == pytest.approx(0.5)
        assert layers["core.witness.excluded_query_s"] == pytest.approx(2.0)
        assert layers["engines.find_run.calls"] == 3

    def test_every_layer_metric_has_the_unit_the_manifest_declares(self):
        layers = tracing.layer_metrics([], {}, {}, {}, ops=1)
        assert set(layers) | {"trace.overhead_ratio"} == set(tracing.LAYER_UNITS)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
        assert declared == tracing.LAYER_UNITS

    def test_tracer_records_parents_and_unwinds_on_error(self):
        tracer = tracing.Tracer()

        def inner():
            raise ValueError("boom")

        traced_inner = tracer.wrap("inner", inner)
        traced_outer = tracer.wrap("outer", lambda: traced_inner())
        with pytest.raises(ValueError):
            traced_outer()
        by_name = {span[1]: span for span in tracer.spans}
        assert by_name["inner"][4] == by_name["outer"][0]
        assert tracer.attrs[by_name["inner"][0]] == {"error": "ValueError"}
        assert tracer._stack() == []


class TestOracle:
    def test_witness_replays_and_a_tampered_one_does_not(self):
        from repro.designs import get_design
        from repro.engines import get_engine
        from repro.ltl.traces import LassoTrace

        import oracle

        problem = get_design("mal_fig4").builder()
        target = problem.architectural[0]
        witness = get_engine("explicit").check_primary(problem, architectural=target).witness
        assert oracle.replay_error(problem, target, witness) is None
        module = problem.composed_module()
        driven = sorted((set(module.assigns) | set(module.registers)) & set(witness.signals()))
        first = dict(witness.state_at(0))
        first[driven[0]] = not first[driven[0]]
        stem = [first] + [dict(state) for state in witness.stem[1:]]
        loop = [dict(state) for state in witness.loop]
        if not witness.stem:
            stem, loop = [], [first] + loop[1:]
        assert "diverges" in oracle.replay_error(problem, target, LassoTrace(stem, loop))
        assert oracle.replay_error(problem, target, None) is not None

    def test_complete_verdicts_must_agree(self):
        import oracle

        verdicts = oracle.Verdicts()
        covered, uncovered = {"id": 1}, {"id": 2}
        verdicts.add(("d", 0), "explicit", True, True, covered)
        verdicts.add(("d", 0), "bmc", False, True, uncovered)
        assert verdicts.contradictions() == [covered, uncovered]

    def test_bounded_covered_is_consistent_with_a_witness(self):
        import oracle

        verdicts = oracle.Verdicts()
        verdicts.add(("d", 0), "explicit", False, True, {"id": 1})
        verdicts.add(("d", 0), "bmc", True, False, {"id": 2})
        assert verdicts.contradictions() == []

    def test_repeats_must_agree(self):
        import oracle

        verdicts = oracle.Verdicts()
        first, second = {"id": 1}, {"id": 2}
        verdicts.add(("d", 0), "bmc", True, False, first)
        verdicts.add(("d", 0), "bmc", False, True, second)
        assert verdicts.contradictions() == [first, second]

    def test_catalog_expectations_per_conjunct(self):
        import oracle

        assert oracle.expected_conjunct("mal_fig2", 0, 1) is True
        assert oracle.expected_conjunct("mal_fig4", 0, 1) is False
        assert oracle.expected_conjunct("amba_ahb", 0, 2) is True
        assert oracle.expected_conjunct("amba_ahb", 1, 2) is False
        assert oracle.expected_conjunct("random_s1_000", 0, 1) is None
