"""Surface guard: every top-level function and class in ``src/fairrobust`` is used.

A name counts as used when ``src/``, ``scripts/`` or ``perfbench/`` refers to
it outside its own definition: a load of the bare name, ``module.name`` on a
module the file imported, ``from ... import name``, or (in ``perfbench/``,
which wraps functions by name) a string constant that names it. A field or
attribute that merely shares the name does not count. Re-exports in
``__init__.py`` do not count, and neither do tests: helpers only tests call
live in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairrobust"
TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for folder in ("src", "scripts", "perfbench")
         for path in sorted((ROOT / folder).rglob("*.py"))
         if path.name != "__init__.py"}


def _references(path, tree):
    """Per top-level statement of ``tree``, the set of names it refers to."""
    modules = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}

    def names(top):
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield n.id
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in modules):
                yield n.attr
            elif isinstance(n, ast.ImportFrom):
                yield from (a.name for a in n.names)
            elif (path.parent.name == "perfbench" and isinstance(n, ast.Constant)
                  and isinstance(n.value, str)):
                yield from re.findall(r"\w+", n.value)

    return [(top, set(names(top))) for top in tree.body]


REFERENCES = [ref for path, tree in TREES.items() for ref in _references(path, tree)]


def _is_used(node) -> bool:
    return any(node.name in names for top, names in REFERENCES if top is not node)


def test_every_top_level_name_is_used_outside_its_definition():
    unused = [f"{path.name}: {node.name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for node in TREES[path].body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not _is_used(node)]
    assert unused == []
