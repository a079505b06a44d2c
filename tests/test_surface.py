"""Surface guards: every top-level function and class in ``src/fairrobust`` is
used, and every imported name is loaded by the file that imports it.

A name counts as used when ``src/``, ``scripts/`` or ``perfbench/`` refers to
it outside its own definition: a load of the bare name, ``module.name`` on a
module the file imported, ``from ... import name``, or (in ``perfbench/``,
which wraps functions by name) a string constant that names it. A field or
attribute that merely shares the name does not count. Re-exports in
``__init__.py`` do not count, and neither do tests: helpers only tests call
live in ``tests/``.

The root guards keep the package root to README's quick start: ``__all__``
is exactly the names that its code block imports, and ``import fairrobust``
alone binds every submodule that ``perfbench/spans.py`` reads off the package.

The import guard reads every file under ``src/``, ``scripts/`` and ``tests/``
except the package's ``__init__.py``, whose imports are its re-exports. A
name that an import binds counts as used when the file loads it somewhere
(``import a.b`` binds ``a``); ``from __future__`` imports bind nothing.
"""

import ast
import os
import re
import subprocess
import sys
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
    # Row counts are ``len(x)`` of rows-first inputs: 3 robustness passes of
    # 3,200 training and 200 validation rows, and 4 fairness passes of 1,600
    # rows, per epoch. A feature-major argument would count features instead.
    assert figures["nnet.adversary_forward_rows_per_epoch"][0] == 16600
    assert figures["nnet.generator_forward_calls_per_epoch"][0] == 2


def test_package_root_exports_exactly_the_quick_start_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    imported = {a.name for n in ast.walk(ast.parse(block))
                if isinstance(n, ast.ImportFrom) and n.module == "fairrobust" for a in n.names}
    assert len(imported) == 8
    assert sorted(fairrobust.__all__) == sorted(imported)


def test_importing_the_package_binds_the_modules_the_tracer_reads():
    # A fresh interpreter, so that no other test's imports can bind a module
    # that ``import fairrobust`` alone leaves out.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fairrobust, spans; "
            "tracer = spans.Tracer(); tracer.install(fairrobust); "
            "print(tracer.installed); tracer.uninstall()")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"
