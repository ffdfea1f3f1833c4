"""Every function, class and method defined under ``src/repro`` is used somewhere.

A use is a ``Name`` or ``Attribute`` node in any ``.py`` file of the source,
tests, examples or benchmarks, so an ``__all__`` string or an import line does
not count, while an expression inside an f-string does.  This is a floor,
not the whole rule: a definition that only its own tests call still passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "examples", "benchmarks", "perfbench")
# Called by name from ``http.server.BaseHTTPRequestHandler``.
FRAMEWORK_HOOKS = {"do_GET", "do_POST", "log_message"}


def test_every_src_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for directory in SCANNED
        for path in sorted((ROOT / directory).rglob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = []
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src" / "repro"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in FRAMEWORK_HOOKS:
                continue
            if name not in used:
                unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreferenced, unreferenced
