"""Every name a ``repro`` module lists in ``__all__`` exists on that module.

A stale ``__all__`` entry still imports fine: it fails only at
``from module import *``, so nothing else in the suite would notice it.
"""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing.extend(
            (name, attribute)
            for attribute in getattr(module, "__all__", ())
            if not hasattr(module, attribute)
        )
    assert modules and not missing, missing
