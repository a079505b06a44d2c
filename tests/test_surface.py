"""Surface guard: every top-level function and class in ``src/fairrobust`` is used.

A name counts as used when it appears in ``src/``, ``scripts/`` or
``perfbench/`` outside its own definition. Re-exports in ``__init__.py`` do
not count, and neither do tests: helpers only tests call live in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairrobust"
SOURCES = {path: path.read_text(encoding="utf-8")
           for folder in ("src", "scripts", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))
           if path.name != "__init__.py"}


def _is_used(path, node) -> bool:
    pattern = re.compile(rf"\b{node.name}\b")
    for source_path, text in SOURCES.items():
        if source_path == path:
            lines = text.splitlines(keepends=True)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            text = "".join(lines[:first] + lines[node.end_lineno:])
        if pattern.search(text):
            return True
    return False


def test_every_top_level_name_is_used_outside_its_definition():
    unused = [f"{path.name}: {node.name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for node in ast.parse(SOURCES[path]).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not _is_used(path, node)]
    assert unused == []
