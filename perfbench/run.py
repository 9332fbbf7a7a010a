"""despeckle benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload filter-scene --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ./src and
driven in-process through ``despeckle.cli.main``.  The run sets up (import,
phantom render, input generation, warm-up calls) several times, then runs
units in a closed loop until ``--seconds`` have passed, checks every
unit's outputs, prints a table of every metric with its unit and sample
count, and prints one JSON result object as its last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced units, reports the per-layer metrics from the spans
of the traced ones, and writes the spans to .perfbench_out/.

See perfbench/NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

SETUP_REPS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# name -> unit, in report order; BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": "s",
    "px_per_s": "px/s",
    "px_per_s_2t": "px/s",
    "replicates_per_s": "1/s",
    "unit_s_p50": "s",
    "peak_rss_mb": "MB",
    "q_median": "index",
    "enl_median": "looks",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("filter-scene", "protocol-lee", "protocol-fast"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def read_first(path, default=""):
    try:
        with open(path) as fh:
            return fh.readline().strip()
    except OSError:
        return default


def environment(load_at_start):
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = read_first(os.path.join(base, index, "level"))
        kind = read_first(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read_first(os.path.join(base, index, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": [round(v, 2) for v in load_at_start],
    }


class Ledger:
    """Attempted and failed operations: CLI passes and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def guard(self, name, fn, *args):
        """Run fn; an exception is one failed operation."""
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark must finish and report
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None


def run_units(wl, seconds, tracer, targets, ledger):
    """Closed loop of units; with a tracer, every other block of units is traced.

    A block is as many units as the workload has reference units, so traced
    and untraced units cover the same mix of inputs (protocol-fast rotates
    through the situations).

    A unit starts only while its expected end (the mean unit so far) lies
    less than half a unit beyond ``seconds``, so a run overshoots by at most
    about half a unit.
    """
    from despeckle import cli

    times = defaultdict(list)  # (traced, label) -> seconds
    traced_units = []
    block = wl.reference_units
    min_units = 2 * block if tracer else block
    q, enl = [], []
    start = time.perf_counter()
    unit = 0
    while unit < min_units or (time.perf_counter() - start) * (unit + 0.5) / unit < seconds:
        traced = tracer is not None and (unit // block) % 2 == 1
        if traced:
            traced_units.append(unit)
            tracer.unit = unit
            tracer.install(targets)
        outputs = {}
        passes = wl.passes(unit)
        for label, argv, out in passes:
            span = tracer.open("cli.main", threads=int(argv[-1])) if traced else None
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a crashed bench
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.close(span)
            ledger.record(f"unit {unit} {label}", rc == 0, f"exit {rc}")
            if rc == 0:
                times[traced, label].append(elapsed)
                outputs[label] = out
        if traced:
            tracer.restore()
        if len(outputs) == len(passes):
            ledger.guard(f"unit {unit} checks", wl.check, unit, outputs, ledger.record)
            if unit < wl.reference_units:
                values = ledger.guard("science", wl.science, outputs)
                if values:
                    q += values[0]
                    enl += values[1]
        else:
            ledger.record(f"unit {unit} checks", False, "skipped: a pass failed")
        for out in outputs.values():
            os.remove(out)
        unit += 1
    return times, (q, enl), traced_units


def main(argv=None):
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not os.path.isfile(os.path.join(ROOT, "src", "despeckle", "__init__.py")):
        print("perfbench: src/despeckle not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import despeckle.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(despeckle.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: imported despeckle from {despeckle.__file__}", file=sys.stderr)
        return 2

    import layers
    import workloads
    from spans import Tracer

    env = environment(load_at_start)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        targets = layers.targets() if args.trace else None
        setup_times = []
        for rep in range(SETUP_REPS):
            traced = tracer is not None and rep == SETUP_REPS - 1
            if traced:
                tracer.unit = "setup"
                tracer.install(targets)
            t = time.perf_counter()
            try:
                wl.setup()
            finally:
                if traced:
                    tracer.restore()
            setup_times.append(import_s + time.perf_counter() - t)
        ledger = Ledger()
        times, science, traced_units = run_units(wl, args.seconds, tracer, targets, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = {label: times[False, label] for label in ("1t", "2t")}
    head = plain[wl.headline]
    q, enl = ([v for v in values if v is not None] for values in science)
    if len(q) + len(enl) < sum(map(len, science)):
        ledger.record("science", False, f"NA in q_mean/enl of the main filter: {science}")
    samples = [plain["1t"], plain["2t"], q, enl]
    if args.trace:
        samples.append(times[True, wl.headline])
    if not all(samples):
        # without a sample some metric has no value; report no result at all
        print("perfbench: a metric has no sample; failures: " + "; ".join(ledger.failures[:5]),
              file=sys.stderr)
        return 1
    p50 = {label: statistics.median(v) for label, v in plain.items()}
    rows = {
        "setup_s": (statistics.median(setup_times), len(setup_times),
                    "import + set-up repetitions"),
        "px_per_s": (wl.pixels / p50["1t"], len(plain["1t"]),
                     f"{wl.pixels} input px per pass, 1 thread"),
        "px_per_s_2t": (wl.pixels / p50["2t"], len(plain["2t"]),
                        f"{wl.pixels} input px per pass, {workloads.THREADS_2} threads"),
        "replicates_per_s": (wl.tasks / p50[wl.headline], len(head),
                             f"{wl.tasks} (situation, replicate) images per {wl.headline} pass"),
        "unit_s_p50": (p50[wl.headline], len(head),
                       f"{wl.headline} pass; min {min(head):.4f} max {max(head):.4f}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1,
                        "ru_maxrss of this process"),
        "q_median": (statistics.median(q), len(q), "reference units, main filter"),
        "enl_median": (statistics.median(enl), len(enl), "reference units, main filter"),
    }
    failed = len(ledger.failures)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} units={len(plain['1t']) + len(traced_units)} "
          f"traced={len(traced_units)}")
    print(f"{'metric':40s} {'value':>16s} {'unit':8s} {'n':>4s}  note")
    for name, (value, n, note) in rows.items():
        print(f"{name:40s} {value:16.6g} {END_TO_END[name]:8s} {n:4d}  {note}")
    print(f"{'fail_ratio':40s} {failed / ledger.attempted:16.6g} {'ratio':8s} "
          f"{ledger.attempted:4d}  {failed} failed of {ledger.attempted} attempted")
    for label, values in plain.items():
        print(f"pass_s {label} " + " ".join(f"{v:.4f}" for v in values))
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}")

    if args.trace:
        overhead = statistics.median(times[True, wl.headline]) - p50[wl.headline]
        values = layers.per_layer(tracer.spans, traced_units, (wl.accepted, wl.tests),
                                  overhead, 100.0 * overhead / p50[wl.headline])
        for name, value in values.items():
            scope = "the traced set-up" if name.startswith("setup.") else "per traced unit"
            print(f"{name:40s} {value:16.6g} {layers.PER_LAYER[name]:8s} "
                  f"{len(traced_units):4d}  {scope}")
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": v[0], "unit": END_TO_END[k]} for k, v in rows.items()}
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
