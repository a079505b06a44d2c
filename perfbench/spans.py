"""In-memory span recorder that wraps fairrobust's public functions from outside.

A traced pass installs wrappers on module attributes, so every call the
program makes through those names records a span: name, calling module
(site), parent span, enclosing training run, benchmark phase, start, end and,
for row-oriented calls, the number of rows. Spans stay in memory and are
written out once the pass ends. ``layer_metrics`` turns them into the
per-layer figures from self times and counts.

The wrapped names are found by import, not listed by hand: every function
that ``trainer`` and ``adversaries`` import from ``adversaries``, ``nnet`` and
``metrics``, and every function that ``harness`` and ``benchmarks`` import
from ``dataset`` and ``poison``. A few of the modules' own functions are
wrapped as well, because calls inside a module go through its globals:
``adversaries.robustness_inputs``, ``harness.run_single`` and
``train_fair_robust`` (whose span marks one training run).
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import time
from contextlib import contextmanager

RUN = "trainer.train_fair_robust"
PROBE = ("trainer", "nnet.forward")  # first call of every main-loop epoch

# (importing module, modules whose functions it imports)
IMPORTED = (
    ("trainer", ("adversaries", "nnet", "metrics")),
    ("adversaries", ("nnet", "metrics")),
    ("harness", ("dataset", "poison")),
    ("benchmarks", ("dataset", "poison")),
)
OWN = (
    ("adversaries", "robustness_inputs"),
    ("harness", "run_single"),
    ("harness", "train_fair_robust"),
    ("trainer", "train_fair_robust"),
)
# Positional argument whose length is the call's row count.
ROW_ARG = {"nnet.forward_with_cache": 1, "adversaries.robustness_inputs": 1}

FIELDS = ("name", "site", "parent", "run", "phase", "start", "end", "rows")
NAME, SITE, PARENT, RUN_ID, PHASE, START, END, ROWS = range(len(FIELDS))


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while ``phase`` is set; wrappers exist only between
    ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._runs: list[int] = []
        self._saved: list[tuple] = []

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in
                   ("adversaries", "benchmarks", "dataset", "harness", "metrics",
                    "nnet", "poison", "trainer")}
        targets = []
        for importer, sources in IMPORTED:
            wanted = {modules[s].__name__ for s in sources}
            for attr, value in vars(modules[importer]).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ in wanted):
                    targets.append((modules[importer], attr))
        targets += [(modules[m], attr) for m, attr in OWN]
        for module, attr in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, _short(module.__name__)))

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        phase, self.phase = self.phase, None
        try:
            yield
        finally:
            self.phase = phase

    def _wrap(self, fn, site: str):
        name = f"{_short(fn.__module__)}.{fn.__name__}"
        row_arg = ROW_ARG.get(name)
        is_run = name == RUN
        spans, stack, runs = self.spans, self._stack, self._runs
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            rows = len(args[row_arg]) if row_arg is not None else 0
            span_id = len(spans)
            run = span_id if is_run else (runs[-1] if runs else -1)
            record = [name, site, stack[-1] if stack else -1, run, self.phase, 0.0, 0.0, rows]
            spans.append(record)
            stack.append(span_id)
            if is_run:
                runs.append(span_id)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                if is_run:
                    runs.pop()

        return traced

    def write_csv(self, path) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", newline="", encoding="utf-8", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("id",) + FIELDS)
            for span_id, record in enumerate(self.spans):
                writer.writerow([span_id] + record)


def _has_ancestor(spans, span_id: int, name: str) -> bool:
    parent = spans[span_id][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, input_sets: int, input_phase: str,
                  worker_idle_s: float = 0.0) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as {name: (value, unit)}.

    Per-epoch figures cover the main-loop epochs of the measured training
    runs: runs started in the ``op`` phase that are not a poisoning
    surrogate's reference model. An epoch starts at the generator's probe
    forward pass, so pretraining epochs are left out. Data and poisoning
    figures are per input set, from the spans of ``input_phase``.
    """
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for span_id, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
            children.setdefault(s[PARENT], []).append(span_id)

    main_start: dict[int, float] = {}
    epochs = 0
    epoch_time = trainer_self = 0.0
    for run_id, s in enumerate(spans):
        if s[NAME] != RUN or s[PHASE] != "op" or _has_ancestor(spans, run_id, "poison.flip_labels"):
            continue
        kids = children.get(run_id, [])
        probes = [k for k in kids if (spans[k][SITE], spans[k][NAME]) == PROBE]
        if not probes:
            continue
        start = spans[probes[0]][START]
        main_start[run_id] = start
        epochs += len(probes)
        epoch_time += s[END] - start
        trainer_self += s[END] - start - sum(
            spans[k][END] - spans[k][START] for k in kids if spans[k][START] >= start)

    calls: dict[tuple, int] = {}
    total: dict[tuple, float] = {}
    own: dict[tuple, float] = {}
    rows: dict[tuple, int] = {}
    for span_id, s in enumerate(spans):
        start = main_start.get(s[RUN_ID])
        if start is None or s[START] < start or s[NAME] == RUN:
            continue
        key = (s[SITE], s[NAME])
        duration = s[END] - s[START]
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + duration
        own[key] = own.get(key, 0.0) + duration - child_time[span_id]
        rows[key] = rows.get(key, 0) + s[ROWS]

    def per_epoch(table, *keys, scale=1.0):
        return scale * sum(table.get(k, 0) for k in keys) / epochs if epochs else 0.0

    ms = 1e3
    rob = ("trainer", "adversaries.robustness_objective")
    rob_in = ("adversaries", "adversaries.robustness_inputs")
    fair = (("trainer", "adversaries.fairness_objective_di"),
            ("trainer", "adversaries.fairness_objective_eo"))
    adv_fwd = ("adversaries", "nnet.forward_with_cache")
    adv_bwd = ("adversaries", "nnet.backward")
    gen_fwd = (PROBE, ("trainer", "nnet.forward_with_cache"))
    gen_bwd = ("trainer", "nnet.backward")
    sgd = ("trainer", "nnet.sgd_step")
    adam = ("trainer", "nnet.adam_step")
    probe = (("trainer", "metrics.accuracy"), ("trainer", "metrics.disparate_impact"))
    entropy = (("adversaries", "metrics.empirical_entropy"),
               ("adversaries", "metrics.empirical_conditional_entropy"))

    def input_set(name):
        picked = [s for s in spans if s[NAME] == name and s[PHASE] == input_phase]
        return (len(picked) / input_sets,
                ms * sum(s[END] - s[START] for s in picked) / input_sets)

    flip_calls, flip_ms = input_set("poison.flip_labels")
    run_single = [s[END] - s[START] for s in spans
                  if s[NAME] == "harness.run_single" and s[PHASE] == "op"]
    return {
        "trainer.epoch_ms": (ms * epoch_time / epochs if epochs else 0.0, "ms"),
        "trainer.self_ms_per_epoch": (ms * trainer_self / epochs if epochs else 0.0, "ms/epoch"),
        "adversaries.robustness_objective.calls_per_epoch": (per_epoch(calls, rob), "calls/epoch"),
        "adversaries.robustness_objective.ms_per_epoch": (per_epoch(total, rob, scale=ms), "ms/epoch"),
        "adversaries.robustness_objective.self_ms_per_epoch": (per_epoch(own, rob, scale=ms), "ms/epoch"),
        "adversaries.robustness_inputs.rows_per_epoch": (per_epoch(rows, rob_in), "rows/epoch"),
        "adversaries.robustness_inputs.ms_per_epoch": (per_epoch(total, rob_in, scale=ms), "ms/epoch"),
        "adversaries.fairness_objective.calls_per_epoch": (per_epoch(calls, *fair), "calls/epoch"),
        "adversaries.fairness_objective.ms_per_epoch": (per_epoch(total, *fair, scale=ms), "ms/epoch"),
        "adversaries.fairness_objective.self_ms_per_epoch": (per_epoch(own, *fair, scale=ms), "ms/epoch"),
        "nnet.adversary_forward_rows_per_epoch": (per_epoch(rows, adv_fwd), "rows/epoch"),
        "nnet.adversary_forward_ms_per_epoch": (per_epoch(total, adv_fwd, scale=ms), "ms/epoch"),
        "nnet.adversary_backward_ms_per_epoch": (per_epoch(total, adv_bwd, scale=ms), "ms/epoch"),
        "nnet.generator_forward_calls_per_epoch": (per_epoch(calls, *gen_fwd), "calls/epoch"),
        "nnet.generator_ms_per_epoch": (per_epoch(total, *gen_fwd, gen_bwd, scale=ms), "ms/epoch"),
        "nnet.optimizer_ms_per_epoch": (per_epoch(total, sgd, adam, scale=ms), "ms/epoch"),
        "nnet.sgd_step.calls_per_epoch": (per_epoch(calls, sgd), "calls/epoch"),
        "metrics.probe_ms_per_epoch": (per_epoch(total, *probe, scale=ms), "ms/epoch"),
        "metrics.entropy.calls_per_epoch": (per_epoch(calls, *entropy), "calls/epoch"),
        "metrics.entropy_ms_per_epoch": (per_epoch(total, *entropy, scale=ms), "ms/epoch"),
        "poison.flip_labels.calls": (flip_calls, "calls/input"),
        "poison.flip_labels_ms": (flip_ms, "ms/input"),
        "dataset.generate_synthetic_ms": (input_set("dataset.generate_synthetic")[1], "ms/input"),
        "dataset.split_ms": (input_set("dataset.split")[1], "ms/input"),
        "harness.run_single_ms": (ms * sum(run_single) / len(run_single) if run_single else 0.0, "ms/call"),
        "harness.worker_idle_s": (worker_idle_s, "s/sweep"),
    }
