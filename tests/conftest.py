import numpy as np
import pytest

from despeckle import L_MAX, cli, read_csv_rows
from despeckle.gamma import _dispersion_gap

FAST_SEED = 0


@pytest.fixture(scope="session")
def fast_run(tmp_path_factory):
    """One full --fast protocol, run twice: in-process (--threads 1) and with
    --threads 4, which forks min(4, usable CPUs) worker processes.

    Several acceptance checks share this: the CSVs must be byte-identical,
    and the in-process rows carry the ENL / Q / edge-variance medians.
    """
    outdir = tmp_path_factory.mktemp("fastrun")
    path1 = outdir / "fast_t1.csv"
    path4 = outdir / "fast_t4.csv"
    base = ["montecarlo", "--fast", "--seed", str(FAST_SEED)]
    assert cli.main(base + ["--threads", "1", "--out", str(path1)]) == 0
    assert cli.main(base + ["--threads", "4", "--out", str(path4)]) == 0
    return {"path1": path1, "path4": path4, "rows": read_csv_rows(path1)}


def median_of(rows, col, **match):
    """Median of a CSV column over the rows matching the given string fields."""
    picked = []
    for row in rows:
        if all(row[k] == v for k, v in match.items()):
            if row[col] != "NA":
                picked.append(float(row[col]))
    assert picked, f"no rows match {match}"
    return float(np.median(picked))


def stream(*key):
    """A generator seeded by the key's integers, one stream per key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def bisect_200(rhs):
    """The looks that solve ln L - digamma(L) = rhs, element-wise: solve_looks
    as first written, a fixed 200 bisection steps on arrays.  The loop stops
    early at the first step that moves no bound in any element: that step
    leaves the state the next one starts from unchanged, so every later step
    repeats it, and the result is exactly the 200-step one."""
    gap = _dispersion_gap
    rhs = np.asarray(rhs, dtype=np.float64)
    out = np.empty_like(rhs)
    at_low, at_high = rhs >= gap(1.0), rhs <= gap(L_MAX)
    out[at_low], out[at_high] = 1.0, L_MAX
    todo = ~(at_low | at_high)
    lo, hi, target = np.full(todo.sum(), 1.0), np.full(todo.sum(), L_MAX), rhs[todo]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        go_right = gap(mid) > target
        moved_lo, moved_hi = np.where(go_right, mid, lo), np.where(go_right, hi, mid)
        if np.array_equal(moved_lo, lo) and np.array_equal(moved_hi, hi):
            break
        lo, hi = moved_lo, moved_hi
    out[todo] = 0.5 * (lo + hi)
    return out
