"""The request-validation rejection matrix.

Every rejected request must produce a :class:`RequestValidationError` whose
entries name the offending field — the structured 400 contract clients and
the CI lane rely on.
"""

from __future__ import annotations

import pytest

from repro.engines import engine_names
from repro.service import RequestValidationError, validate_request
from repro.service.validation import _SCHEMAS, MAX_BOUND, MAX_TIMEOUT_SECONDS


def fields_of(excinfo) -> list:
    return sorted(entry["field"] for entry in excinfo.value.entries())


# -- acceptance ----------------------------------------------------------------


def test_minimal_check_request_fills_defaults():
    request = validate_request("check", {"design": "mal_fig2"})
    assert request.kind == "check"
    assert request.design == "mal_fig2"
    assert request.engine == "explicit"
    assert request.bound == 12
    assert request.timeout is None
    assert request.index is None


def test_full_check_request_round_trips():
    request = validate_request(
        "check",
        {
            "design": "amba_ahb",
            "engine": "bmc",
            "bound": 8,
            "timeout": 30.5,
            "index": 0,
        },
    )
    assert request.engine == "bmc"
    assert request.bound == 8
    assert request.timeout == 30.5
    assert request.index == 0


def test_suite_request_defaults_and_designs():
    request = validate_request("suite", {"designs": ["mal_fig2", "paper_example"]})
    assert request.designs == ("mal_fig2", "paper_example")
    assert request.include_signals is True
    assert request.workers == 1
    empty = validate_request("suite", {})
    assert empty.designs is None  # None = whole catalog


def test_matching_kind_field_in_body_is_tolerated():
    request = validate_request("check", {"design": "mal_fig2", "kind": "check"})
    assert request.kind == "check"


# -- rejection matrix ----------------------------------------------------------


def test_missing_required_design():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {})
    assert fields_of(excinfo) == ["design"]
    assert "required" in excinfo.value.entries()[0]["message"]


def test_unknown_design_names_the_catalog():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "no_such_design"})
    (entry,) = excinfo.value.entries()
    assert entry["field"] == "design"
    assert "mal_fig2" in entry["message"]  # the catalog is listed


def test_unknown_field_rejected():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "desing": "typo"})
    assert fields_of(excinfo) == ["desing"]


def test_all_failures_collected_at_once():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request(
            "check",
            {"design": "zz", "engine": "warp", "bound": "12", "bogus": 1},
        )
    assert fields_of(excinfo) == ["bogus", "bound", "design", "engine"]


def test_no_string_coercion_for_integers():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "bound": "12"})
    (entry,) = excinfo.value.entries()
    assert entry["field"] == "bound"
    assert "integer" in entry["message"]


def test_bool_is_not_an_integer():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "bound": True})
    assert fields_of(excinfo) == ["bound"]


@pytest.mark.parametrize("bad", [-1, MAX_BOUND + 1])
def test_bound_range_enforced(bad):
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "bound": bad})
    assert fields_of(excinfo) == ["bound"]


@pytest.mark.parametrize("bad", [0.0, -5, MAX_TIMEOUT_SECONDS + 1, float("nan")])
def test_timeout_range_enforced(bad):
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "timeout": bad})
    assert fields_of(excinfo) == ["timeout"]


def test_unknown_engine_and_backend():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request(
            "check",
            {"design": "mal_fig2", "engine": "warp9", "prop_backend": "quantum"},
        )
    assert fields_of(excinfo) == ["engine", "prop_backend"]


@pytest.mark.parametrize("field,value", [("prop_backend", "auto"), ("slicing", False)])
@pytest.mark.parametrize("kind", ["check", "analyze", "suite"])
def test_removed_field_is_an_unknown_field(kind, field, value):
    """One propositional policy and one slicing rule: the fields that used to
    choose them are rejected like any unknown field."""
    body = {field: value} if kind == "suite" else {"design": "mal_fig2", field: value}
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request(kind, body)
    assert excinfo.value.entries() == [{"field": field, "message": "unknown field"}]


@pytest.mark.parametrize("engine", ["explicit", "bmc", "symbolic", "portfolio", "auto"])
def test_registered_engines_accepted(engine):
    for kind in ("check", "analyze", "suite"):
        body = {"engine": engine} if kind == "suite" else {"design": "mal_fig2", "engine": engine}
        assert validate_request(kind, body).engine == engine, kind


@pytest.mark.parametrize("alias", ["mc", "nested-dfs", "sym", "bdd-fixpoint", "race", "learned"])
def test_removed_engine_alias_rejected_with_known_names(alias):
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "engine": alias})
    [entry] = excinfo.value.entries()
    assert entry == {
        "field": "engine",
        "message": f"unknown engine {alias!r} (known: {', '.join(engine_names())})",
    }


_COMMON_FIELDS = {"engine", "bound", "timeout"}


@pytest.mark.parametrize(
    "kind,fields",
    [
        ("check", _COMMON_FIELDS | {"design", "index"}),
        ("analyze", _COMMON_FIELDS | {"design", "max_witnesses", "depth", "witnesses"}),
        (
            "suite",
            _COMMON_FIELDS
            | {"designs", "random", "seed", "include_signals", "workers", "shard_timeout"},
        ),
    ],
)
def test_request_fields_are_pinned(kind, fields):
    """Request fields may only be removed: a new one must be added here on
    purpose.  Every listed field fills the request; nothing else validates."""
    body = {} if kind == "suite" else {"design": "mal_fig2"}
    request = validate_request(kind, body)
    for field in fields:
        assert hasattr(request, field), field
    assert set(_SCHEMAS[kind]) == fields


def test_negative_index_rejected():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "index": -1})
    assert fields_of(excinfo) == ["index"]


def test_design_list_entries_validated_individually():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("suite", {"designs": ["mal_fig2", "bogus", 7]})
    assert fields_of(excinfo) == ["designs[1]", "designs[2]"]


def test_designs_must_be_a_list():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("suite", {"designs": "mal_fig2"})
    assert fields_of(excinfo) == ["designs"]


def test_suite_workers_capped():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("suite", {"workers": 999})
    assert fields_of(excinfo) == ["workers"]


def test_analyze_witness_fields_typed():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request(
            "analyze",
            {"design": "mal_fig2", "max_witnesses": -1, "depth": 0, "witnesses": "yes"},
        )
    assert fields_of(excinfo) == ["depth", "max_witnesses", "witnesses"]


def test_body_must_be_an_object():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", ["design", "mal_fig2"])
    assert fields_of(excinfo) == ["body"]


def test_unknown_kind_rejected():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("prove", {"design": "mal_fig2"})
    assert fields_of(excinfo) == ["kind"]


def test_mismatched_kind_field_rejected():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("check", {"design": "mal_fig2", "kind": "analyze"})
    assert fields_of(excinfo) == ["kind"]


def test_single_constructor_shapes_transport_errors():
    error = RequestValidationError.single("body", "request body is not valid JSON")
    assert error.entries() == [
        {"field": "body", "message": "request body is not valid JSON"}
    ]
