"""Smoke test of the benchmark itself: every workload in its shortest run.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

For each workload, untraced and traced, the run must exit 0, print every
metric of BENCHMARK.json in its table and in the JSON result with the
declared unit, and report fail_ratio 0.  A directory holding only
BENCHMARK.json and the benchmark must make the run fail without a result.
Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("filter-scene", "protocol-lee", "protocol-fast")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def table_row(lines, name):
    rows = [ln.split() for ln in lines if ln.split()[:1] == [name]]
    assert len(rows) == 1, f"{name}: {len(rows)} table rows"
    return rows[0]


def check_workload(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    assert float(table_row(lines, "fail_ratio")[1]) == 0.0
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = spec()["end_to_end"] + (declared if trace else [])
    for m in printed:
        row = table_row(lines, m["name"])
        assert row[2] == m["unit"], (m["name"], row)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads():
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)


def test_fails_without_sources():
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(tmp, "--workload", "filter-scene", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        assert proc.returncode != 0
        assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


if __name__ == "__main__":
    test_fails_without_sources()
    test_workloads()
    print("perfbench smoke test passed")
