import dataclasses
import hashlib
import os
import pickle
import re
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child_left, stream
from despeckle import (
    DegenerateRegionError,
    DespeckleError,
    DomainError,
    FormatError,
    InvalidArgumentError,
    PhantomGeometry,
    Raster,
    cli,
    default_geometry,
    enl,
    errors,
    forks,
    harness,
    metrics,
    read_geometry,
    render_phantom,
    unit_speckle,
    write_geometry,
)
from despeckle.divergence import KINDS
from despeckle.harness import (
    CSV_COLUMNS,
    DEFAULT_FILTERS,
    SITUATIONS,
    RunPlan,
    Situation,
    corrupt,
    fast_plan,
    make_phantom,
    read_csv_rows,
    replicate_stream,
    run_protocol,
    write_csv,
)
from despeckle.nmfilter import WINDOWS


def geom_with(**overrides):
    return dataclasses.replace(default_geometry(128), **overrides)


# ----------------------------------------------------------------- geometry


def test_default_geometries_validate():
    assert default_geometry(128).size == 128
    assert default_geometry(64).size == 64
    with pytest.raises(InvalidArgumentError):
        default_geometry(96)
    for size in (64.0, True):
        with pytest.raises(InvalidArgumentError, match="size must be an integer"):
            default_geometry(size)
    assert default_geometry(np.int64(64)) is default_geometry(64)


def test_geometry_rejects_out_of_bounds_block():
    with pytest.raises(InvalidArgumentError):
        geom_with(block=(8, 88, 40, 200))
    with pytest.raises(InvalidArgumentError):
        geom_with(block=(40, 88, 8, 120))  # empty row range


def test_geometry_rejects_block_without_edge_band_room():
    with pytest.raises(InvalidArgumentError):
        geom_with(block=(8, 2, 40, 30))


def test_geometry_rejects_border_hline():
    with pytest.raises(InvalidArgumentError):
        geom_with(hline=(0, 8, 120))
    with pytest.raises(InvalidArgumentError):
        geom_with(hline=(127, 8, 120))


def test_geometry_rejects_background_overlapping_feature():
    with pytest.raises(InvalidArgumentError):
        geom_with(background=(50, 6, 54, 30))  # crosses the horizontal line


def test_geometry_rejects_tiny_canvas():
    with pytest.raises(InvalidArgumentError):
        PhantomGeometry(
            size=8,
            block=(0, 4, 2, 6),
            hline=(3, 0, 4),
            vline=(0, 4, 6),
            diag=(4, 4, 2),
            points=(),
            background=(5, 0, 8, 3),
        )


def test_geometry_rejects_bad_points_and_diag():
    with pytest.raises(InvalidArgumentError):
        geom_with(points=((200, 8),))
    with pytest.raises(InvalidArgumentError):
        geom_with(diag=(64, 64, 1))
    with pytest.raises(InvalidArgumentError):
        geom_with(diag=(100, 100, 40))


BAD_GEOMETRY = (
    ({"hline": (52, 8, 200)}, "hline .* out of bounds"),
    ({"vline": (60, 60, 200)}, "vline .* out of bounds"),
    ({"background": (8, 8, 48, 200)}, "background .* out of bounds"),
    ({"background": (8, 8, 9, 11)}, "background region too small"),
)


@pytest.mark.parametrize("overrides,message", BAD_GEOMETRY)
def test_geometry_rejects_bad_lines_and_background(tmp_path, overrides, message):
    with pytest.raises(InvalidArgumentError, match=message):
        geom_with(**overrides)
    # the same layout in a file is a format error with the same message
    path = tmp_path / "geom.txt"
    write_geometry(default_geometry(128), path)
    key, values = next(iter(overrides.items()))
    old = " ".join(map(str, getattr(default_geometry(128), key)))
    new = " ".join(map(str, values))
    path.write_text(path.read_text().replace(f"{key} = {old}", f"{key} = {new}"))
    with pytest.raises(FormatError, match=f"geometry file: {message}"):
        read_geometry(path)


def test_feature_mask_and_accessors_agree():
    geom = default_geometry(128)
    mask = geom.feature_mask()
    assert mask.dtype == bool and mask.shape == (128, 128)
    assert mask[geom.block_slices()].all()
    assert mask[geom.hline_pixels()].all()
    assert mask[geom.vline_pixels()].all()
    assert mask[geom.diag_pixels()].all()
    for r, c in geom.points:
        assert mask[r, c]
    assert not mask[geom.background_slices()].any()
    assert geom.edge_column() == geom.block[1]


def test_render_values_and_counts():
    geom = default_geometry(64)
    img = render_phantom(geom, 195.0, 55.0)
    assert set(np.unique(img.array)) == {55.0, 195.0}
    assert (img.array == 195.0).sum() == geom.feature_mask().sum()


def test_render_rejects_nonpositive_levels():
    geom = default_geometry(64)
    with pytest.raises(InvalidArgumentError):
        render_phantom(geom, 0.0, 55.0)
    with pytest.raises(InvalidArgumentError):
        render_phantom(geom, 195.0, -1.0)


# ------------------------------------------------------------ geometry files


def test_geometry_file_round_trip(tmp_path):
    for size in (64, 128):
        geom = default_geometry(size)
        path = tmp_path / f"geom{size}.txt"
        write_geometry(geom, path)
        assert read_geometry(path) == geom


def test_geometry_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"

    bad.write_text("size = 128\n")
    with pytest.raises(FormatError):
        read_geometry(bad)

    bad.write_text("just some words\n")
    with pytest.raises(FormatError):
        read_geometry(bad)

    good = tmp_path / "good.txt"
    write_geometry(default_geometry(64), good)
    text = good.read_text().replace("block = 4 44 20 60", "block = a b c d")
    bad.write_text(text)
    with pytest.raises(FormatError):
        read_geometry(bad)

    text = good.read_text().replace("block = 4 44 20 60", "block = 4 44 20 600")
    bad.write_text(text)
    with pytest.raises(FormatError):
        read_geometry(bad)


def test_geometry_file_refuses_a_repeated_or_unknown_key(tmp_path):
    # a second block line replaced the first, and an unknown key was skipped
    path = tmp_path / "geom.txt"
    write_geometry(default_geometry(64), path)
    good = path.read_text()
    for extra, message in (("block = 6 40 22 56", "geometry line 9 repeats key 'block'"),
                           ("colour = red", "geometry line 9 has an unknown key 'colour'"),
                           ("points  = 36,4", "geometry line 9 repeats key 'points'")):
        path.write_text(good + extra + "\n")
        with pytest.raises(FormatError, match=message):
            read_geometry(path)


def test_geometry_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "geom.txt"
    path.write_bytes(b"size = 64\xff\xfe\n")
    with pytest.raises(FormatError, match="geometry"):
        read_geometry(path)
    write_geometry(default_geometry(64), path)
    path.write_bytes(path.read_bytes().replace(b"= 4 44", b"= 4\xff 44"))
    with pytest.raises(FormatError, match="geometry file: invalid literal"):
        read_geometry(path)


def test_geometry_file_ignores_comments_and_blank_lines(tmp_path):
    geom = default_geometry(64)
    path = tmp_path / "geom.txt"
    write_geometry(geom, path)
    decorated = "# header\n\n" + path.read_text().replace(
        "size = 64", "size = 64   # trailing note"
    )
    path.write_text(decorated)
    assert read_geometry(path) == geom


# ------------------------------------------------------- situations, speckle


def test_situation_table():
    assert SITUATIONS[1] == Situation(1, 1.0, 200.0, 70.0)
    assert SITUATIONS[2] == Situation(2, 3.0, 195.0, 55.0)
    assert SITUATIONS[3] == Situation(3, 5.0, 150.0, 30.0)
    assert SITUATIONS[4] == Situation(4, 7.0, 170.0, 35.0)


def test_make_phantom_uses_situation_means():
    geom = default_geometry(64)
    img = make_phantom(geom, SITUATIONS[2])
    assert set(np.unique(img.array)) == {55.0, 195.0}


def test_replicate_stream_determinism():
    a = replicate_stream(5, 2, 7).random(8)
    b = replicate_stream(5, 2, 7).random(8)
    c = replicate_stream(5, 2, 8).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_replicate_stream_refuses_a_key_that_is_not_a_count():
    # numpy's SeedSequence raised its own ValueError on a negative key
    for key in (-1, 1.5):
        for keys in ((key, 2, 7), (5, key, 7), (5, 2, key)):
            with pytest.raises(InvalidArgumentError, match="stream key"):
                replicate_stream(*keys)


def test_corrupt_rejects_nonpositive_phantom():
    arr = np.ones((16, 16))
    arr[3, 3] = 0.0
    with pytest.raises(DomainError):
        corrupt(Raster(arr), SITUATIONS[1], replicate_stream(0, 1, 0))


def test_corrupt_is_multiplicative_and_reproducible():
    geom = default_geometry(64)
    sit = SITUATIONS[3]
    ph = make_phantom(geom, sit)
    a = corrupt(ph, sit, replicate_stream(11, 3, 4))
    b = corrupt(ph, sit, replicate_stream(11, 3, 4))
    assert a == b
    ratio = a.array / ph.array
    assert ratio.min() > 0
    assert ratio.mean() == pytest.approx(1.0, abs=0.05)


def test_corrupted_background_mean_is_unbiased():
    # background of situation 2 at 64x64 has 400 pixels; the sample mean
    # should sit within 3 standard errors of the clean level
    geom = default_geometry(64)
    sit = SITUATIONS[2]
    ph = make_phantom(geom, sit)
    sigma = sit.background_mean / np.sqrt(sit.looks * 400)
    for rep in range(3):
        noisy = corrupt(ph, sit, replicate_stream(55, 2, rep))
        bg = noisy.array[geom.background_slices()]
        assert abs(bg.mean() - sit.background_mean) <= 3.0 * sigma


def test_background_enl_tracks_looks():
    geom = default_geometry(128)
    for sit in SITUATIONS.values():
        ph = make_phantom(geom, sit)
        noisy = corrupt(ph, sit, stream(82, int(sit.looks)))
        bg = noisy.array[geom.background_slices()]
        assert enl(bg) == pytest.approx(sit.looks, rel=0.15)


def test_huge_look_count_speckle_is_nearly_flat():
    y = unit_speckle(1e4, (64, 64), stream(9))
    assert np.abs(y - 1.0).max() <= 0.05


def test_corrupt_refuses_looks_outside_the_sampler_domain():
    phantom = Raster(np.full((4, 4), 100.0))
    for looks in (float("nan"), float("inf"), 0.5):
        with pytest.raises(InvalidArgumentError, match="looks"):
            corrupt(phantom, Situation(9, looks, 100.0, 50.0), stream(10))


# -------------------------------------------------------------------- plans


def test_run_plan_defaults():
    plan = RunPlan()
    assert plan.situations == (1, 2, 3, 4)
    assert plan.replicates == 100
    assert plan.filters == DEFAULT_FILTERS
    assert plan.levels == (0.2,)
    assert plan.geometry is default_geometry(128)
    assert (plan.dof, plan.shared_looks, plan.renyi_order) == (1, "pooled", 0.5)


def test_fast_plan_profile():
    plan = fast_plan(master_seed=3)
    assert (plan.geometry, plan.replicates, plan.master_seed) == (default_geometry(64), 20, 3)
    assert fast_plan(replicates=2).replicates == 2


def test_run_plan_validation():
    with pytest.raises(InvalidArgumentError):
        RunPlan(replicates=0)
    with pytest.raises(InvalidArgumentError):
        RunPlan(filters=())
    with pytest.raises(InvalidArgumentError):
        RunPlan(filters=(("boxcar", 5),))
    with pytest.raises(InvalidArgumentError):
        RunPlan(filters=(("hellinger", 3),))
    with pytest.raises(InvalidArgumentError):
        RunPlan(levels=(1.5,))
    with pytest.raises(InvalidArgumentError):
        RunPlan(levels=())
    with pytest.raises(InvalidArgumentError):
        RunPlan(situations=(9,))
    # an empty list ran nothing, and a repeated entry repeated its rows
    with pytest.raises(InvalidArgumentError, match="at least one situation"):
        RunPlan(situations=())
    with pytest.raises(InvalidArgumentError, match="each situation"):
        RunPlan(situations=(1, 2, 1))
    with pytest.raises(InvalidArgumentError, match="each filter"):
        RunPlan(filters=(("input", None), ("lee", 5), ("input", None)))
    with pytest.raises(InvalidArgumentError, match="each significance level"):
        RunPlan(levels=(0.2, 0.1, 0.2))
    RunPlan(filters=(("lee", 5), ("lee", 7)), levels=(0.2, 0.1))  # distinct entries
    # the test filters' settings fail at the plan, not at the first filter
    with pytest.raises(InvalidArgumentError, match="dof"):
        RunPlan(dof=3)
    with pytest.raises(InvalidArgumentError, match="shared_looks"):
        RunPlan(shared_looks="sample2")
    with pytest.raises(InvalidArgumentError, match="renyi_order"):
        RunPlan(filters=(("renyi", 5),), renyi_order=1.5)
    RunPlan(filters=(("hellinger", 5),), renyi_order=1.5)  # the order only matters to renyi
    # a count or window that is not an integer fails at the plan, not in run_protocol
    with pytest.raises(InvalidArgumentError, match="replicates must be an integer"):
        RunPlan(replicates=1.5)
    with pytest.raises(InvalidArgumentError, match="master_seed must be an integer"):
        RunPlan(master_seed=1.5)
    with pytest.raises(InvalidArgumentError, match="window must be an integer"):
        RunPlan(filters=(("lee", 5.0),))
    # the plan checks its windows through nm_masks, as FilterSpec does
    with pytest.raises(InvalidArgumentError, match="window must be one of"):
        RunPlan(filters=(("lee", 9),))
    with pytest.raises(InvalidArgumentError, match="dof must be an integer"):
        RunPlan(dof=2.0)
    with pytest.raises(InvalidArgumentError, match="situation must be an integer"):
        RunPlan(situations=(1.0,))
    RunPlan(replicates=np.int64(2), master_seed=np.int64(3), filters=(("lee", np.int64(5)),))
    # input takes no window, and every other filter needs one
    for window in (5, 9, 0):
        with pytest.raises(InvalidArgumentError,
                           match=f"^filter entry 'input:{window}': input takes no window$"):
            RunPlan(filters=(("input", None), ("input", window), ("lee", 5)))
    for kind in ("lee",) + KINDS:
        with pytest.raises(InvalidArgumentError, match=re.escape(
                f"filter entry '{kind}' needs a window: {kind}:N, N in WINDOWS {WINDOWS}")):
            RunPlan(filters=(("input", None), (kind, None)))


# ----------------------------------------------------------------- protocol


def tiny_plan():
    return fast_plan(
        master_seed=7,
        situations=(2,),
        replicates=2,
        filters=(("input", None), ("hellinger", 5)),
    )


def test_run_protocol_row_shape():
    plan = fast_plan(
        master_seed=1, situations=(2,), replicates=1, filters=(("input", None), ("lee", 5))
    )
    rows = run_protocol(plan)
    assert len(rows) == 2
    kinds = sorted(row["filter"] for row in rows)
    assert kinds == ["input", "lee"]
    for row in rows:
        assert row["situation"] == 2 and row["replicate"] == 0
        assert row["level"] == 0.2
        assert row["report"].enl is not None


def test_run_protocol_refuses_fewer_than_one_worker(monkeypatch):
    monkeypatch.setattr(harness, "render_phantom", None)  # refused before any phantom
    for threads in (0, -2):
        with pytest.raises(InvalidArgumentError, match="threads must be >= 1"):
            run_protocol(tiny_plan(), threads=threads)
    # these once reached the process pool, which raised TypeError
    for threads in (float("nan"), 1.5, True):
        with pytest.raises(InvalidArgumentError, match="threads must be an integer"):
            run_protocol(tiny_plan(), threads=threads)


def test_run_protocol_thread_count_is_invisible(tmp_path, monkeypatch):
    monkeypatch.setattr(forks, "_usable_cpus", lambda: 4)
    # tiny_plan has 2 tasks: 3 and 5 ask for more workers than tasks.  The 6
    # tasks of 2 situations x 3 replicates cut into blocks that cross from
    # situation 1 to 2 at 1 and 3 workers, and that do not at 2 and 4.
    crossing = dataclasses.replace(tiny_plan(), situations=(1, 2), replicates=3)
    for name, plan, counts in (("tiny", tiny_plan(), (1, 2, 3, 5)),
                               ("crossing", crossing, (1, 2, 3, 4))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            csvs = []
            for threads in counts:
                path = tmp_path / f"{name}-t{threads}.csv"
                write_csv(run_protocol(plan, threads=threads), path, comments=("seed = 7",))
                assert_no_child_left()
                csvs.append(path.read_bytes())
        assert csvs[1:] == csvs[:1] * 3, name


def test_run_protocol_caps_workers_at_the_usable_cpus(monkeypatch, tmp_path):
    # no process starts: the fork helper is a spy that records its worker
    # count and runs every contiguous run of tasks here
    sizes = []

    def in_process(fn, count, parts):
        sizes.append(parts)
        return [fn(count * p // parts, count * (p + 1) // parts) for p in range(parts)]

    plan = dataclasses.replace(tiny_plan(), situations=(1, 2, 3, 4), filters=(("input", None),))
    write_csv(run_protocol(plan), tmp_path / "t1.csv")
    monkeypatch.setattr(harness, "_forked_spans", in_process)
    monkeypatch.setattr(forks.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    write_csv(run_protocol(plan, threads=64), tmp_path / "t64.csv")
    monkeypatch.delattr(forks.os, "sched_getaffinity")
    monkeypatch.setattr(forks.os, "cpu_count", lambda: 3)
    write_csv(run_protocol(plan, threads=64), tmp_path / "t64-no-affinity.csv")
    assert sizes == [2, 3]
    for name in ("t64.csv", "t64-no-affinity.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "t1.csv").read_bytes()


@pytest.mark.parametrize("count,parts", [(count, parts) for count in range(1, 8)
                                         for parts in range(1, min(count, 3) + 1)])
def test_forked_spans_tile_the_range_one_run_per_process(count, parts):
    runs = forks._forked_spans(lambda start, stop: (start, stop, os.getpid()), count, parts)
    assert len(runs) == parts
    assert [start for start, _, _ in runs] == [0] + [stop for _, stop, _ in runs[:-1]]
    assert runs[-1][1] == count
    lengths = [stop - start for start, stop, _ in runs]
    assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1
    pids = [pid for _, _, pid in runs]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == parts
    assert_no_child_left()


@pytest.mark.parametrize("failure", [DomainError("the caller's share failed"), KeyboardInterrupt()])
def test_a_failing_callers_share_kills_the_running_children(failure):
    # the caller runs the run from 0 and raises; the child running the run
    # from 1 would sleep for a minute, and is killed and reaped instead
    def fn(start, stop):
        if start == 0:
            raise failure
        time.sleep(60)
        return start

    began = time.monotonic()
    with pytest.raises(type(failure)) as caught:
        forks._forked_spans(fn, 2, 2)
    assert caught.value is failure
    assert time.monotonic() - began < 30
    assert_no_child_left()


def test_a_child_that_sends_no_result_is_named_by_its_status(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real = harness._replicate_rows

    def exit_in_children(plan, references, task):
        if os.getpid() != parent:
            os._exit(3)
        return real(plan, references, task)

    monkeypatch.setattr(harness, "_replicate_rows", exit_in_children)
    monkeypatch.setattr(forks, "_usable_cpus", lambda: 2)
    plan = fast_plan(situations=(2, 3), replicates=1, filters=(("input", None),))
    with pytest.raises(DespeckleError, match="exited with status 3 and no result"):
        run_protocol(plan, threads=2)
    assert_no_child_left()
    argv = ["montecarlo", "--fast", "--situations", "2,3", "--replicates", "1",
            "--filters", "input", "--threads", "2", "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 1
    assert "status 3" in capsys.readouterr().err
    assert_no_child_left()


# Two levels: input and lee:5 give one image at both, hellinger:5 one at each.
MULTI_LEVEL_ARGS = ("--fast", "--seed", "0", "--replicates", "2", "--situations", "1,3",
                    "--levels", "0.2,0.01", "--filters", "input,lee:5,hellinger:5")
# frozen before the level loop shared the level-free reports
MULTI_LEVEL_SHA256 = "6d00286c0e3ae2fa89a17e1d3c01b7fd05b8cc4e3b17beb49675b3c115162cbe"


@pytest.mark.parametrize("threads", [1, 2])
def test_multi_level_csv_bytes_are_frozen(tmp_path, threads):
    path = tmp_path / "levels.csv"
    argv = ["montecarlo", *MULTI_LEVEL_ARGS, "--threads", str(threads), "--out", str(path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MULTI_LEVEL_SHA256


def test_each_distinct_filtered_image_is_reported_once(monkeypatch):
    real = metrics.Reference.reports
    reports = []

    def spy(reference, tests):
        reports.extend(real(reference, tests))
        return reports[-len(tests):]

    monkeypatch.setattr(metrics.Reference, "reports", spy)
    plan = fast_plan(situations=(1, 3), replicates=2, levels=(0.2, 0.01),
                     filters=(("input", None), ("lee", 5), ("hellinger", 5)))
    rows = run_protocol(plan)
    # per task: input once, lee:5 once, hellinger:5 once per level
    assert len(reports) == 4 * (1 + 1 + 2)
    assert len(rows) == 4 * 3 * 2
    assert {id(r) for r in reports} == {id(row["report"]) for row in rows}
    shared = {}
    for row in rows:
        shared.setdefault((row["filter"], row["situation"], row["replicate"]), []).append(
            row["report"])
    for (kind, _, _), (first, second) in shared.items():
        assert (first is second) == (kind != "hellinger"), kind


def test_each_phantom_is_prepared_once_per_situation(monkeypatch):
    # the phantom's side of Q (which windows vary) is built once per situation,
    # not once per report: 2 here, against 2 x 2 x 3 = 12 reports
    calls = []
    real = metrics.window_min

    def spy(a, size):
        calls.append(a.shape)
        return real(a, size)

    monkeypatch.setattr(metrics, "window_min", spy)
    plan = fast_plan(situations=(1, 2), replicates=2,
                     filters=(("input", None), ("lee", 5), ("hellinger", 5)))
    rows = run_protocol(plan)
    assert len(rows) == 12 and all(row["report"].q_mean is not None for row in rows)
    assert calls == [(64, 64)] * 2


def test_a_worker_holds_one_situations_reference_at_a_time(monkeypatch):
    # each Reference is built when the tasks reach its situation, after the
    # previous one is freed, and none outlives the run
    built, alive = [], []

    def factory(image, geom):
        alive.append(sum(ref() is not None for _, ref in built))
        reference = metrics.Reference(image, geom)
        built.append((image.array.min(), weakref.ref(reference)))
        return reference

    monkeypatch.setattr(harness, "Reference", factory)
    plan = dataclasses.replace(tiny_plan(), situations=(1, 2, 3, 4), filters=(("input", None),))
    rows = run_protocol(plan, threads=1)
    assert len(rows) == 4 * 2
    assert [background for background, _ in built] == [
        SITUATIONS[sid].background_mean for sid in (1, 2, 3, 4)]
    assert alive == [0, 0, 0, 0]
    assert all(ref() is None for _, ref in built)


def test_errors_pickle_with_class_and_message():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, DespeckleError)]
    assert len(classes) == 6
    for cls in classes:
        back = pickle.loads(pickle.dumps(cls("a message")))
        assert type(back) is cls and str(back) == "a message"


def test_worker_errors_reach_the_caller_unchanged(tmp_path, monkeypatch):
    real = metrics.Reference.reports
    failure = [DegenerateRegionError("situation 3 is degenerate")]
    parent = os.getpid()

    def failing(reference, tests):
        # forked workers inherit this patch; only they raise, so the
        # exception crosses the pipe
        if os.getpid() != parent and reference.image.array.min() == SITUATIONS[3].background_mean:
            raise failure[0]
        return real(reference, tests)

    monkeypatch.setattr(metrics.Reference, "reports", failing)
    monkeypatch.setattr(forks, "_usable_cpus", lambda: 2)
    plan = fast_plan(situations=(2, 3), replicates=2, filters=(("input", None),))
    with pytest.raises(DegenerateRegionError) as caught:
        run_protocol(plan, threads=2)
    assert type(caught.value) is DegenerateRegionError
    assert str(caught.value) == "situation 3 is degenerate"
    assert_no_child_left()
    argv = ["montecarlo", "--fast", "--situations", "2,3", "--replicates", "2",
            "--filters", "input", "--threads", "2", "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 1
    failure[0] = InvalidArgumentError("situation 3 is invalid")
    assert cli.main(argv) == 2
    assert_no_child_left()


def test_write_csv_sorts_and_read_round_trips(tmp_path):
    plan = tiny_plan()
    rows = run_protocol(plan)
    path = tmp_path / "out.csv"
    write_csv(rows[::-1], path, comments=("a comment",))
    text = path.read_text().splitlines()
    assert text[0] == "# a comment"
    assert text[1] == ",".join(CSV_COLUMNS)
    parsed = read_csv_rows(path)
    assert len(parsed) == len(rows)
    assert list(parsed[0].keys()) == list(CSV_COLUMNS)
    # sorted: the 'hellinger' rows precede 'input', replicates ascending
    assert [r["filter"] for r in parsed] == ["hellinger", "hellinger", "input", "input"]
    assert [r["replicate"] for r in parsed] == ["0", "1", "0", "1"]
    assert parsed[0]["window"] == "5" and parsed[2]["window"] == "NA"
    for row in parsed:
        assert float(row["enl"]) > 0


def test_csv_header_is_pinned():
    assert ",".join(CSV_COLUMNS) == (
        "filter,window,level,situation,replicate,"
        "enl,line_contrast_error,edge_gradient,edge_variance,q_mean,q_std,beta_rho"
    )


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    # the README's "Library use" example, run as written: it writes results.csv
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("\n## Library use\n"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    block = block[:block.index("\n```")]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert (tmp_path / "results.csv").stat().st_size > 0
    assert_no_child_left()
