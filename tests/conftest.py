import numpy as np
import pytest

from despeckle import cli, read_csv_rows

FAST_SEED = 0


@pytest.fixture(scope="session")
def fast_run(tmp_path_factory):
    """One full --fast protocol, run twice: in-process (--threads 1) and on 4
    forked worker processes (--threads 4).

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
