"""Feature-record completeness: every verdict and shard row must carry a
fully-populated ``features`` dict for every engine.  The ``auto``
engine picks its engine from ``automaton_states``, and CI reads these records
from suite reports, so none of them may be missing or ``None``."""

import pytest

from repro.designs import get_design
from repro.engines import get_engine
from repro.runner import expand_jobs, run_suite, suite_to_dict

_BMC_BOUND = 6
_ENGINES = ["explicit", "bmc", "symbolic", "portfolio", "auto"]

#: The keys of :meth:`repro.problem.ir.CompiledProblem.features`.
FEATURE_NAMES = (
    "coi_size",
    "registers",
    "automaton_states",
    "bound",
    "formulas",
    "free_signals",
    "sliced",
    "slice_ratio",
)


def _assert_complete(features, context):
    assert features is not None, context
    assert set(features) == set(FEATURE_NAMES), context
    for name in FEATURE_NAMES:
        assert features[name] is not None, (context, name)


@pytest.mark.parametrize("engine_name", _ENGINES)
class TestVerdictFeatures:
    def test_check_primary_features_complete(self, engine_name):
        engine = get_engine(engine_name, max_bound=_BMC_BOUND)
        verdict = engine.check_primary(get_design("mal_fig2").builder())
        _assert_complete(verdict.features, engine_name)
        assert verdict.features["bound"] == _BMC_BOUND


@pytest.mark.parametrize("engine_name", _ENGINES)
class TestSuiteRowFeatures:
    def test_all_shard_rows_fully_populated(self, engine_name):
        jobs = expand_jobs(["mal_fig2"], engine=engine_name, bound=_BMC_BOUND)
        result = run_suite(jobs, workers=1, use_cache=True)
        assert result.succeeded
        report = suite_to_dict(result)
        assert report["shards"], "suite must produce shard rows"
        for row in report["shards"]:
            _assert_complete(row["features"], row["job"])
            # bound must be the configured suite bound, never a placeholder
            assert row["features"]["bound"] == _BMC_BOUND
            assert "sched" not in row
