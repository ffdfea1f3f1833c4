"""Shared fixtures for the test-suite."""

from __future__ import annotations

import math

import pytest

import repro.problem.ir
from repro.core import CoverageOptions
from repro.designs import (
    build_amba_problem,
    build_cache_logic,
    build_mal,
    build_mal_with_gap,
    build_pipeline_problem,
    build_simple_latch,
)


@pytest.fixture(scope="session")
def fast_options() -> CoverageOptions:
    """Coverage options tuned for test speed (few witnesses, shallow unfolding)."""
    return CoverageOptions(
        max_witnesses=2,
        unfold_depth=4,
        max_closure_checks=6,
        max_reported_gaps=2,
    )


@pytest.fixture()
def force_slicing(monkeypatch):
    """Pin the cone-of-influence rule of ``compile_problem`` for one test.

    ``force_slicing(True)`` slices every query, ``force_slicing(False)``
    none; the threshold is restored when the test ends.  The compile memo
    keys on the threshold, so both directions can run in one test.
    """

    def force(slice_every_query: bool) -> None:
        threshold = math.inf if slice_every_query else 0.0
        monkeypatch.setattr(repro.problem.ir, "AUTO_SLICE_THRESHOLD", threshold)

    return force


@pytest.fixture(scope="session")
def mal_covered_problem():
    return build_mal()


@pytest.fixture(scope="session")
def mal_gap_problem():
    return build_mal_with_gap()


@pytest.fixture(scope="session")
def pipeline_problem():
    return build_pipeline_problem()


@pytest.fixture(scope="session")
def amba_problem():
    return build_amba_problem()


@pytest.fixture()
def cache_logic():
    return build_cache_logic()


@pytest.fixture()
def simple_latch():
    return build_simple_latch()
