"""Surface guards: every top-level function and class in ``src/fairrobust`` is
used, and every imported name is loaded by the file that imports it.

A name counts as used when ``src/``, ``scripts/`` or ``perfbench/`` refers to
it outside its own definition: a load of the bare name, ``module.name`` on a
module the file imported, ``from ... import name``, or (in ``perfbench/``,
which wraps functions by name) a string constant that names it. A field or
attribute that merely shares the name does not count. Re-exports in
``__init__.py`` do not count, and neither do tests: helpers only tests call
live in ``tests/``.

The import guard reads every file under ``src/``, ``scripts/`` and ``tests/``
except the package's ``__init__.py``, whose imports are its re-exports. A
name that an import binds counts as used when the file loads it somewhere
(``import a.b`` binds ``a``); ``from __future__`` imports bind nothing.
"""

import ast
import re
from dataclasses import replace
from pathlib import Path

import fairrobust
from fairrobust import benchmarks, trainer

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


def test_every_imported_name_is_loaded():
    unused = []
    for folder in ("src", "scripts", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            loaded = {n.id for n in ast.walk(tree)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    unused += [f"{path.relative_to(ROOT)}: {alias.name}" for alias in node.names
                               if (alias.asname or alias.name.split(".")[0]) not in loaded]
    assert unused == []


def test_perfbench_tracer_installs_and_counts_epochs(monkeypatch):
    # ``perfbench/spans.py`` wraps functions by name and marks each epoch by
    # the probe's ``forward`` call, so renaming a wrapped name or dropping the
    # probe breaks the benchmark's trace; this run fails on either.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    train, val, _ = benchmarks.benchmark_datasets(0, 0.1)
    cfg = replace(benchmarks.poisoned_config(0), epochs=5, pretrain_epochs=2)
    tracer = spans.Tracer()
    try:
        tracer.install(fairrobust)
        tracer.phase = "op"
        trainer.train_fair_robust(train, val, cfg)
    finally:
        tracer.phase = None
        tracer.uninstall()
    figures = spans.layer_metrics(tracer.spans, 1, "setup")
    assert figures["trainer.epoch_ms"][0] > 0
    assert (figures["adversaries.robustness_objective.calls_per_epoch"][0]
            == cfg.update_ratio + 1)
