"""Benchmark of fairrobust training; see README.md in this directory.

    python3 perfbench/run.py --workload fr_poisoned_di --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Set-up failures
(such as a checkout without ``src/fairrobust``) exit with code 2 and print no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("fr_poisoned_di", "fr_clean_eo", "lr_poison_sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread per process: the sweep's pool already uses every core,
    # and the training kernels are too small to gain from more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    try:
        import fairrobust
    except ImportError as exc:
        print(f"perfbench: cannot import fairrobust from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if not os.path.abspath(fairrobust.__file__).startswith(SRC + os.sep):
        print(f"perfbench: fairrobust was imported from {fairrobust.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from spans import Tracer, layer_metrics
    from workloads import SETUP_REPS, WORKLOADS

    jobs = len(os.sched_getaffinity(0))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer()
    if args.trace:
        tracer.install(fairrobust)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        workload = WORKLOADS[args.workload](args.seed, jobs, work_dir, tracer)

        setup_times = []
        for rep in range(SETUP_REPS):
            tracer.phase = "setup"
            start = time.perf_counter()
            workload.prepare(rep)
            setup_times.append(time.perf_counter() - start)
        tracer.phase = None
        workload.check_prepared()

        # Whole operations, as many as bring the measured time nearest to
        # --seconds: the next one starts only if it would end less than half
        # its length past the window.
        window_start = time.perf_counter()
        index = 0
        while True:
            tracer.phase = "op"
            op_start = time.perf_counter()
            workload.operate(index)
            last = time.perf_counter() - op_start
            tracer.phase = None
            index += 1
            elapsed = time.perf_counter() - window_start
            if index >= workload.min_ops() and elapsed + last / 2 > args.seconds:
                break
        workload.finish()

    if not workload.rates:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1
    if args.trace:
        tracer.uninstall()
        tracer.write_csv(os.path.join(OUT_DIR, f"{args.workload}.spans.csv.gz"))
        values = layer_metrics(tracer.spans, workload.input_sets, workload.input_phase,
                               workload.worker_idle_s)
    else:
        values = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "epochs_per_s": (statistics.median(workload.rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
