"""Monte Carlo protocol: phantom -> speckle -> filters -> metrics -> CSV.

Four canonical situations pair a look count with strip/background means:

    #1  L=1  strip 200  background 70
    #2  L=3  strip 195  background 55
    #3  L=5  strip 150  background 30
    #4  L=7  strip 170  background 35

Every (situation, replicate) owns an RNG stream keyed by
(master seed, situation id, replicate), so all filters of a replicate see
the same corrupted image and reruns are reproducible for any thread count.
Rows are sorted before writing, making the CSV byte-stable.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .divergence import KINDS, TestConfig
from .errors import DomainError, InvalidArgumentError
from .gamma import unit_speckle
from .lee import LeeSpec, lee_filter
# compute_report stays bound here, unread: perfbench's traced run rebinds it by name
from .metrics import MetricReport, Reference, compute_report
from .nmfilter import FilterSpec, filter_image
from .phantom import PhantomGeometry, default_geometry, render_phantom
from .raster import Raster


class Situation(NamedTuple):
    id: int
    looks: float
    strip_mean: float
    background_mean: float


SITUATIONS = {
    1: Situation(1, 1.0, 200.0, 70.0),
    2: Situation(2, 3.0, 195.0, 55.0),
    3: Situation(3, 5.0, 150.0, 30.0),
    4: Situation(4, 7.0, 170.0, 35.0),
}

FILTER_KINDS = ("input", "lee") + KINDS

CSV_COLUMNS = (
    "filter",
    "window",
    "level",
    "situation",
    "replicate",
    "enl",
    "line_contrast_error",
    "edge_gradient",
    "edge_variance",
    "q_mean",
    "q_std",
    "beta_rho",
)

DEFAULT_FILTERS = (
    ("input", None),
    ("lee", 5),
    ("lee", 7),
    ("hellinger", 5),
    ("hellinger", 7),
)


def make_phantom(geom: PhantomGeometry, sit: Situation) -> Raster:
    """Noiseless phantom for one situation: features bright, rest background."""
    return render_phantom(geom, sit.strip_mean, sit.background_mean)


def replicate_stream(master_seed: int, situation_id: int, replicate: int) -> np.random.Generator:
    """The RNG stream owned by one (situation, replicate) pair."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, situation_id, replicate)))
    )


def corrupt(phantom: Raster, sit: Situation, stream: np.random.Generator) -> Raster:
    """Multiply by unit-mean L-look speckle: each pixel ~ Gamma(L, L/value)."""
    if phantom.array.min() <= 0:
        raise DomainError("phantom must be strictly positive to corrupt")
    return Raster(phantom.array * unit_speckle(sit.looks, phantom.shape, stream))


@dataclass(frozen=True)
class RunPlan:
    situations: tuple = (1, 2, 3, 4)
    replicates: int = 100
    filters: tuple = DEFAULT_FILTERS
    levels: tuple = (0.2,)
    master_seed: int = 0
    size: int = 128
    dof: int = TestConfig.dof
    shared_looks: str = TestConfig.shared_looks
    renyi_order: float = TestConfig.renyi_order

    def __post_init__(self):
        if self.replicates < 1:
            raise InvalidArgumentError("replicates must be >= 1")
        for name, values in (("situation", self.situations),
                             ("filter", [tuple(f) for f in self.filters]),
                             ("significance level", self.levels)):
            if not values:
                raise InvalidArgumentError(f"at least one {name} is required")
            if len(set(values)) < len(values):
                raise InvalidArgumentError(f"each {name} may be given only once")
        for kind, window in self.filters:
            if kind not in FILTER_KINDS:
                raise InvalidArgumentError(f"unknown filter kind {kind!r}")
            if kind != "input" and window not in (5, 7):
                raise InvalidArgumentError(f"filter {kind!r} needs window 5 or 7")
        for level in self.levels:
            if not 0.0 < level < 1.0:
                raise InvalidArgumentError("levels must lie in (0, 1)")
        for sid in self.situations:
            if sid not in SITUATIONS:
                raise InvalidArgumentError(f"unknown situation {sid}")
        # a bad test setting fails here, not in a worker at the first filter
        for kind, _ in self.filters:
            if kind in KINDS:
                for level in self.levels:
                    self.test_config(kind, level)

    def test_config(self, kind: str, level: float) -> TestConfig:
        """The TestConfig of a region-test filter at one significance level."""
        return TestConfig(kind=kind, renyi_order=self.renyi_order, alpha=level, dof=self.dof,
                          shared_looks=self.shared_looks)


def fast_plan(master_seed: int = 0, **overrides) -> RunPlan:
    """The CI-sized profile: 64x64 phantom, 20 replicates."""
    overrides.setdefault("size", 64)
    overrides.setdefault("replicates", 20)
    return RunPlan(master_seed=master_seed, **overrides)


def _apply_filter(kind, window, corrupted, sit, level, plan):
    if kind == "input":
        return corrupted
    if kind == "lee":
        return lee_filter(corrupted, LeeSpec(window=window, nominal_looks=sit.looks))
    return filter_image(corrupted, FilterSpec(window=window, test=plan.test_config(kind, level)))


def _replicate_rows(plan, references, task):
    sid, rep = task
    sit = SITUATIONS[sid]
    reference = references[sid]
    corrupted = corrupt(reference.image, sit, replicate_stream(plan.master_seed, sid, rep))
    # only the region tests depend on the level; the others give one image
    images = {}
    for kind, window in plan.filters:
        for level in plan.levels if kind in KINDS else plan.levels[:1]:
            images[kind, window, level] = _apply_filter(kind, window, corrupted, sit, level, plan)
    reports = dict(zip(images, reference.reports(list(images.values()))))
    return [
        {
            "filter": kind,
            "window": window,
            "level": level,
            "situation": sid,
            "replicate": rep,
            "report": reports[kind, window, level if kind in KINDS else plan.levels[0]],
        }
        for kind, window in plan.filters
        for level in plan.levels
    ]


_worker_protocol = None  # (plan, references), set once in each pool worker


def _init_worker(plan, references):
    global _worker_protocol
    _worker_protocol = (plan, references)


def _worker_rows(task):
    return _replicate_rows(*_worker_protocol, task)


def run_protocol(plan: RunPlan, geom: PhantomGeometry | None = None, threads: int = 1) -> list:
    """Execute the plan and return unsorted result rows (dicts).

    Each situation's phantom is built once, as a metrics.Reference that keeps
    the phantom's side of the metrics, and each replicate scores all of its
    filtered images against it in one Reference.reports call.  Replicates are
    independent tasks; `threads` only controls how they are scheduled, never
    the numbers produced.  With one worker the tasks run in this process.
    With more, each of min(threads, tasks) workers is a process forked from
    this one (the "fork" start method, so POSIX only), handed the plan and the
    references once, and sent (situation, replicate) pairs; a worker's
    exception reaches the caller with its class and message.  Python 3.12 and
    later may warn (DeprecationWarning) that forking a process with live
    threads can deadlock: numpy's OpenBLAS starts native threads at import.
    """
    if geom is None:
        geom = default_geometry(plan.size)
    if geom.size != plan.size:
        raise InvalidArgumentError("geometry size does not match the plan")
    references = {sid: Reference(make_phantom(geom, SITUATIONS[sid]), geom)
                  for sid in plan.situations}
    tasks = [(sid, rep) for sid in plan.situations for rep in range(plan.replicates)]
    workers = min(threads, len(tasks))
    if workers <= 1:
        chunks = list(map(partial(_replicate_rows, plan, references), tasks))
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(plan, references)) as pool:
            chunks = list(pool.map(_worker_rows, tasks))
    return [row for chunk in chunks for row in chunk]


def _row_sort_key(row):
    return (
        row["filter"],
        "" if row["window"] is None else str(row["window"]),
        repr(float(row["level"])),
        row["situation"],
        row["replicate"],
    )


def _row_to_csv(row) -> str:
    report: MetricReport = row["report"]
    cells = [
        row["filter"],
        "NA" if row["window"] is None else str(row["window"]),
        repr(float(row["level"])),
        str(row["situation"]),
        str(row["replicate"]),
    ]
    for name in CSV_COLUMNS[5:]:
        value = getattr(report, name)
        cells.append("NA" if value is None else repr(float(value)))
    return ",".join(cells)


def write_csv(rows: list, path, comments: tuple = ()) -> None:
    """Sort rows deterministically and write them under the fixed header."""
    ordered = sorted(rows, key=_row_sort_key)
    with open(path, "w") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in ordered:
            fh.write(_row_to_csv(row) + "\n")


def read_csv_rows(path) -> list:
    """Parse a harness CSV back into dicts of strings (comments skipped)."""
    out = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            out.append(dict(zip(header, line.split(","))))
    return out
