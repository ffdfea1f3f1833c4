"""Service-test fixtures: register the sleepy engine for tests in this dir.

The plugin is loaded by file path — the same mechanism ``specmatcher serve
--preload`` uses — so these tests never depend on ``tests/`` being
importable as a package.  Registration happens in an autouse fixture (not at
conftest import time, which runs during collection) scoped to each test
module of this directory and undone on its teardown, so the engine registry
stays pristine for every test run after the service tests.  (Each daemon's
``drain()`` reinstalls the result cache its ``start()`` replaced.)
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SLEEPY_PLUGIN = Path(__file__).with_name("sleepy_plugin.py")


@pytest.fixture(scope="module", autouse=True)
def sleepy_engine():
    spec = importlib.util.spec_from_file_location(
        "specmatcher_sleepy_plugin", SLEEPY_PLUGIN
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from repro.engines import unregister_engine

    yield
    unregister_engine("sleepy")
