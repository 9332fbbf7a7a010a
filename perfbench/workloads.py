"""The benchmark workloads: inputs, the CLI passes of one unit, and the checks.

Every unit runs the same ``despeckle`` command twice, once with
``--threads 1`` and once with ``--threads min(2, nproc)``; the two outputs
must be byte-identical.  Each unit derives its input seed from
(workload seed, unit index), except the first few *reference units*: their
inputs are those of the default seed whatever the workload seed, so every
run checks their outputs against the digests frozen at the seed commit, and
the science metrics (q_median, enl_median) read from them repeat exactly on
every run.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from despeckle import cli
from despeckle.divergence import run_test
from despeckle.gamma import mle
from despeckle.harness import (
    CSV_COLUMNS,
    SITUATIONS,
    corrupt,
    make_phantom,
    read_csv_rows,
    replicate_stream,
)
from despeckle.metrics import compute_report
from despeckle.nmfilter import FilterSpec
from despeckle.phantom import default_geometry
from despeckle.raster import Raster, extract, pad_mirror, read_raster, write_raster

DEFAULT_SEED = 0
THREADS_2 = min(2, len(os.sched_getaffinity(0)))
SITUATION_IDS = (1, 2, 3, 4)
ORACLE_PIXELS = 16
ORACLE_RTOL = 1e-9
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def run_cli(argv) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"despeckle {argv[0]} exited with code {rc}")


class Workload:
    """One workload; subclasses set the passes, the checks and the science."""

    name = ""
    headline = "1t"  # the pass whose time is replicates_per_s and unit_s_p50
    tasks = 0  # (situation, replicate) images per pass
    pixels = 0  # input pixels per pass
    reference_units = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.accepted = 0  # oracle tests accepted / run, for nmfilter.accept_rate
        self.tests = 0

    def setup(self):
        """Warm up both CLI commands; subclasses first write their inputs."""
        geom = default_geometry(64)
        sit = SITUATIONS[1]
        tiny = corrupt(make_phantom(geom, sit), sit, replicate_stream(self.seed, 1, 0))
        path = self._path("warm.raw")
        write_raster(Raster(tiny.array[:8, :8]), path, "raw")
        for threads in sorted({1, THREADS_2}):
            run_cli(["filter", "--in", path, "--out", self._path("warm-out.raw"),
                     "--threads", str(threads)])
            run_cli(["montecarlo", "--size", "64", "--replicates", "1", "--situations", "1",
                     "--filters", "input,lee:5", "--out", self._path("warm.csv"),
                     "--threads", str(threads)])

    def passes(self, unit):
        """[(label, argv, output path)] for one unit."""
        raise NotImplementedError

    def check(self, unit, outputs, record):
        """Check the outputs of one unit; record(name, ok, detail) per check."""
        raise NotImplementedError

    def science(self, outputs):
        """(q_mean values, enl values) of the main filter in a unit's output."""
        raise NotImplementedError

    def input_seed(self, unit):
        base = DEFAULT_SEED if unit < self.reference_units else self.seed
        return int(np.random.SeedSequence([base, unit]).generate_state(1)[0])

    def check_threads(self, outputs, record):
        with open(outputs["1t"], "rb") as a, open(outputs["2t"], "rb") as b:
            record("threads-identical", a.read() == b.read(), "1- vs 2-thread output bytes")

    def check_digest(self, unit, path, record):
        if unit >= self.reference_units:
            return
        with open(DIGESTS) as fh:
            frozen = json.load(fh)[self.name][unit]
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        record("digest", digest == frozen, f"sha256 {digest} against frozen {frozen}")

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _thread_passes(self, argv, suffix, unit):
        out = []
        for label, threads in (("1t", 1), ("2t", THREADS_2)):
            path = self._path(f"u{unit}-{label}{suffix}")
            out.append((label, argv + ["--out", path, "--threads", str(threads)], path))
        return out


class FilterScene(Workload):
    """`despeckle filter` with defaults on a 64x256 strip of the four situations.

    The strip puts the four 64x64 phantoms side by side, each corrupted at
    its own look count, so every row is 256 pixels wide.
    """

    name = "filter-scene"
    pool = 4  # distinct scenes; unit i filters scene i mod pool
    tile = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tasks = len(SITUATION_IDS)
        self.pixels = self.tasks * self.tile**2
        self.spec = FilterSpec()  # the CLI defaults: hellinger, 5x5, alpha 0.2, pooled

    def setup(self):
        self.geom = default_geometry(self.tile)
        self.phantoms = [make_phantom(self.geom, SITUATIONS[sid]) for sid in SITUATION_IDS]
        self.inputs = []
        for k in range(self.pool):
            seed = self.input_seed(k)
            t = [
                corrupt(ph, SITUATIONS[sid], replicate_stream(seed, sid, 0)).array
                for sid, ph in zip(SITUATION_IDS, self.phantoms)
            ]
            scene = Raster(np.hstack(t))
            path = self._path(f"scene{k}.raw")
            write_raster(scene, path, "raw")
            self.inputs.append((path, scene))
        super().setup()

    def passes(self, unit):
        path = self.inputs[unit % self.pool][0]
        return self._thread_passes(["filter", "--in", path], ".raw", unit)

    def check(self, unit, outputs, record):
        scene = self.inputs[unit % self.pool][1]
        self.check_threads(outputs, record)
        out = read_raster(outputs["1t"], "raw").array
        record("shape", out.shape == scene.shape, f"{out.shape} vs {scene.shape}")
        half = self.spec.window // 2
        padded = pad_mirror(scene, half)
        rng = np.random.default_rng([self.seed, unit])
        for r, c in zip(rng.integers(0, scene.height, ORACLE_PIXELS),
                        rng.integers(0, scene.width, ORACLE_PIXELS)):
            want = self._oracle(padded, r + half, c + half)
            got = out[r, c]
            record("oracle", abs(got - want) <= ORACLE_RTOL * abs(want),
                   f"pixel ({r},{c}): engine {got!r}, oracle {want!r}")
        self.check_digest(unit, outputs["1t"], record)

    def _oracle(self, padded, row, col):
        """Scalar filter value from the public API, one region test at a time."""
        masks = self.spec.masks
        samples = [extract(padded, (row, col), m) for m in masks]
        if mle(samples[0]).degenerate:
            return float(samples[0].mean())
        accepted = [True] + [not run_test(samples[0], s, self.spec.test).rejected
                             for s in samples[1:]]
        self.accepted += sum(accepted[1:])
        self.tests += len(accepted) - 1
        cells = sorted({off for m, ok in zip(masks, accepted) if ok for off in m.offsets})
        return float(np.mean([padded.array[row + dr, col + dc] for dr, dc in cells]))

    def science(self, outputs):
        out = read_raster(outputs["1t"], "raw").array
        tiles = np.hsplit(out, len(SITUATION_IDS))
        reports = [compute_report(ph, Raster(t), self.geom) for ph, t in zip(self.phantoms, tiles)]
        return [r.q_mean for r in reports], [r.enl for r in reports]


class Protocol(Workload):
    """`despeckle montecarlo`; the output is the CSV.

    With rotate=False every unit runs all four situations; with rotate=True
    unit i runs situation i mod 4 only, and the first four units are the
    reference units.
    """

    def __init__(self, seed, workdir, name, headline, size, replicates, flags, filters,
                 main_filter, rotate):
        super().__init__(seed, workdir)
        self.name = name
        self.headline = headline
        self.flags = ["--size", str(size), "--replicates", str(replicates)] + flags
        self.filters = filters
        self.main_filter = main_filter
        self.replicates = replicates
        self.rotate = rotate
        self.reference_units = len(SITUATION_IDS) if rotate else 1
        self.tasks = (1 if rotate else len(SITUATION_IDS)) * replicates
        self.pixels = self.tasks * size**2

    def situations(self, unit):
        return (SITUATION_IDS[unit % len(SITUATION_IDS)],) if self.rotate else SITUATION_IDS

    def passes(self, unit):
        argv = ["montecarlo", "--seed", str(self.input_seed(unit)),
                "--situations", ",".join(map(str, self.situations(unit)))] + self.flags
        return self._thread_passes(argv, ".csv", unit)

    def check(self, unit, outputs, record):
        self.check_threads(outputs, record)
        path = outputs[self.headline]
        with open(path) as fh:
            header = next(line.rstrip("\n") for line in fh if not line.startswith("#"))
        record("header", header == ",".join(CSV_COLUMNS), header)
        rows = read_csv_rows(path)
        record("row-count", len(rows) == self.tasks * len(self.filters),
               f"{len(rows)} rows for {self.tasks} tasks x {len(self.filters)} filters")
        keys = sorted((r["filter"], r["window"], int(r["situation"]), int(r["replicate"]))
                      for r in rows)
        want = sorted((kind, window, sid, rep) for kind, window in self.filters
                      for sid in self.situations(unit) for rep in range(self.replicates))
        record("row-keys", keys == want, "one row per (filter, situation, replicate)")
        try:
            for r in rows:
                for name in CSV_COLUMNS[5:]:
                    if r[name] != "NA":
                        float(r[name])
            ok = all(r["q_mean"] != "NA" and r["enl"] != "NA" for r in self._main_rows(rows))
            record("values", ok, "numeric cells; q_mean and enl present for the main filter")
        except ValueError as exc:
            record("values", False, str(exc))
        self.check_digest(unit, path, record)

    def _main_rows(self, rows):
        kind, window = self.main_filter
        return [r for r in rows if r["filter"] == kind and r["window"] == window]

    def science(self, outputs):
        rows = self._main_rows(read_csv_rows(outputs[self.headline]))
        return [_cell(r["q_mean"]) for r in rows], [_cell(r["enl"]) for r in rows]


def _cell(text):
    return None if text == "NA" else float(text)


LEE_FILTERS = [("input", "NA"), ("lee", "5"), ("lee", "7")]
FAST_FILTERS = LEE_FILTERS + [("hellinger", "5"), ("hellinger", "7")]


def make(name, seed, workdir):
    if name == "filter-scene":
        return FilterScene(seed, workdir)
    if name == "protocol-lee":
        # harness threads help here: 16 independent tasks per pass
        return Protocol(seed, workdir, name, "2t", 128, 4,
                        ["--filters", "input,lee:5,lee:7"], LEE_FILTERS, ("lee", "5"),
                        rotate=False)
    if name == "protocol-fast":
        # --fast defaults to 20 replicates, ~3 min per pass on a 2-core Xeon;
        # one (situation, replicate) task per unit takes ~2.5 s, so a run
        # gets several samples, and four consecutive units cover every situation
        return Protocol(seed, workdir, name, "1t", 64, 1, ["--fast"], FAST_FILTERS,
                        ("hellinger", "5"), rotate=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("filter-scene", "protocol-lee", "protocol-fast")
