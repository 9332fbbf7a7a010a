import argparse
import contextlib
import dataclasses
import io
import os
import shlex
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left
from despeckle import (
    METRIC_HEADER,
    FilterSpec,
    InvalidArgumentError,
    LeeSpec,
    Raster,
    RunPlan,
    cli,
    divergence,
    fast_plan,
    forks,
    harness,
    nmfilter,
    phantom,
    raster,
    read_raster,
    unit_speckle,
    write_raster,
)
from despeckle.harness import read_csv_rows


def run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def noisy_pair(tmp_path):
    """A 64x64 phantom and a speckled copy, both on disk in raw format."""
    ph = tmp_path / "ph.raw"
    noisy = tmp_path / "noisy.raw"
    assert run("phantom", "--size", "64", "--situation", "2", "--out", str(ph)) == 0
    assert (
        run("corrupt", "--in", str(ph), "--situation", "2", "--seed", "5", "--out", str(noisy))
        == 0
    )
    return ph, noisy


def test_phantom_writes_expected_values(tmp_path):
    out = tmp_path / "ph.txt"
    assert run("phantom", "--size", "64", "--situation", "3", "--format", "ascii",
               "--out", str(out)) == 0
    img = read_raster(out, "ascii")
    assert img.shape == (64, 64)
    assert set(np.unique(img.array)) == {30.0, 150.0}


def test_corrupt_is_seed_deterministic(tmp_path, noisy_pair):
    ph, noisy = noisy_pair
    again = tmp_path / "again.raw"
    assert run("corrupt", "--in", str(ph), "--situation", "2", "--seed", "5",
               "--out", str(again)) == 0
    assert again.read_bytes() == noisy.read_bytes()
    other = tmp_path / "other.raw"
    assert run("corrupt", "--in", str(ph), "--situation", "2", "--seed", "6",
               "--out", str(other)) == 0
    assert other.read_bytes() != noisy.read_bytes()


def test_seed_environment_variable(tmp_path, noisy_pair, monkeypatch):
    ph, noisy = noisy_pair
    out = tmp_path / "env.raw"
    monkeypatch.setenv("DESPECKLE_SEED", "5")
    assert run("corrupt", "--in", str(ph), "--situation", "2", "--out", str(out)) == 0
    assert out.read_bytes() == noisy.read_bytes()


def test_bad_seed_environment_variable_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("DESPECKLE_SEED", "abc")
    assert run("masks") == 2
    err = capsys.readouterr().err
    assert "DESPECKLE_SEED" in err and "Traceback" not in err


def test_parser_defaults_are_the_library_defaults(monkeypatch):
    monkeypatch.delenv("DESPECKLE_SEED", raising=False)
    parser = cli.build_parser()
    plain = parser.parse_args(["montecarlo", "--out", "x.csv"])
    assert cli._parse_montecarlo_plan(plain) == RunPlan()
    fast = parser.parse_args(["montecarlo", "--fast", "--out", "x.csv"])
    assert cli._parse_montecarlo_plan(fast) == fast_plan()

    args = parser.parse_args(["filter", "--in", "a.raw", "--out", "b.raw"])
    test = FilterSpec().test
    assert (args.kind, args.alpha, args.beta, args.dof, args.shared) == (
        test.kind, test.alpha, test.renyi_order, test.dof, test.shared_looks
    )
    assert args.window == FilterSpec().window == LeeSpec().window
    assert args.looks == LeeSpec().nominal_looks


def test_montecarlo_defaults_follow_the_plan(monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class OtherPlan(RunPlan):
        situations: tuple = (2, 3)
        filters: tuple = (("input", None), ("kl", 7))
        levels: tuple = (0.05, 0.1)
        dof: int = 2
        shared_looks: str = "sample1"
        renyi_order: float = 0.25

    monkeypatch.delenv("DESPECKLE_SEED", raising=False)
    monkeypatch.setattr(cli, "RunPlan", OtherPlan)
    args = cli.build_parser().parse_args(["montecarlo", "--out", "x.csv"])
    assert cli._parse_montecarlo_plan(args) == OtherPlan()


def test_filter_subcommand_variants(tmp_path, noisy_pair):
    ph, noisy = noisy_pair
    for name, extra in (
        ("h.raw", ("--filter", "hellinger", "--alpha", "0.2")),
        ("r.raw", ("--filter", "renyi", "--beta", "0.3")),
        ("k.raw", ("--filter", "kl", "--window", "7")),
        ("lee.raw", ("--filter", "lee", "--looks", "3")),
    ):
        out = tmp_path / name
        assert run("filter", "--in", str(noisy), "--out", str(out), *extra) == 0
        img = read_raster(out, "raw")
        assert img.shape == (64, 64)
        assert np.all(np.isfinite(img.array)) and img.array.min() >= 0


@pytest.mark.parametrize("peak", [1e308, 1.7e308])
@pytest.mark.parametrize("kind", ["lee", "hellinger", "kl", "renyi"])
def test_filter_takes_values_near_the_float_maximum(tmp_path, capsys, kind, peak):
    arr = np.ones((8, 8))
    arr[3, 4] = peak
    src, out = tmp_path / "big.raw", tmp_path / "out.raw"
    write_raster(Raster(arr), src, "raw")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("filter", "--in", str(src), "--out", str(out), "--filter", kind) == 0
    assert capsys.readouterr().err == ""
    filtered = read_raster(out, "raw").array
    assert np.all(np.isfinite(filtered)) and filtered.max() <= peak


def test_filter_threads_flag_keeps_output(tmp_path, noisy_pair):
    # a 64x64 image is too small for row bands: every count runs in this process
    _, noisy = noisy_pair
    outputs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}.raw"
        assert run("filter", "--in", str(noisy), "--out", str(out), "--threads", threads) == 0
        outputs.append(out.read_bytes())
    assert outputs[1:] == outputs[:1] * 2


@pytest.fixture()
def fork_calls(monkeypatch):
    """The os.fork calls of the fork layer, which still fork, on two usable CPUs."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(forks, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(forks.os, "fork", counted)
    return calls


@pytest.mark.parametrize("window", ["5", "7"])
def test_filter_threads_give_the_same_bytes_on_forked_bands(tmp_path, monkeypatch, fork_calls,
                                                            window):
    # an odd height, zeros, a zero block and a 2^600 stripe, split into two
    # row bands of 18 and 19 rows
    arr = 100.0 * unit_speckle(2.0, (37, 50), np.random.default_rng(8))
    arr.flat[::13] = 0.0
    arr[20:27, 3:11] = 0.0
    arr[17:19, 30:] *= 2.0**600
    src = tmp_path / "in.raw"
    write_raster(Raster(arr), src, "raw")
    monkeypatch.setattr(nmfilter, "BAND_PIXELS", 100)
    for kind in divergence.KINDS + ("lee",):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{kind}-{threads}.raw"
            assert run("filter", "--in", str(src), "--out", str(out), "--filter", kind,
                       "--window", window, "--threads", threads) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], kind
    assert len(fork_calls) == len(divergence.KINDS)  # lee stays in one process
    assert_no_child_left()


def test_filter_threads_fork_only_for_a_large_image(tmp_path, fork_calls):
    # the 64x256 strip perfbench filters stays in this process at --threads 2;
    # an image of 2 * BAND_PIXELS pixels forks one child
    for shape, expected in (((64, 256), 0), ((64, 2 * nmfilter.BAND_PIXELS // 64), 1)):
        src, out = tmp_path / "in.raw", tmp_path / "out.raw"
        write_raster(Raster(100.0 * unit_speckle(3.0, shape, np.random.default_rng(9))), src, "raw")
        fork_calls.clear()
        assert run("filter", "--in", str(src), "--out", str(out), "--threads", "2") == 0
        assert len(fork_calls) == expected, shape
    assert_no_child_left()


def test_evaluate_prints_header_and_row(tmp_path, noisy_pair, capsys):
    ph, noisy = noisy_pair
    assert run("evaluate", "--ref", str(ph), "--test", str(noisy),
               "--geometry-size", "64") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# despeckle evaluate")
    assert lines[1] == METRIC_HEADER
    cells = lines[2].split(",")
    assert len(cells) == len(METRIC_HEADER.split(","))
    assert all(cell == "NA" or np.isfinite(float(cell)) for cell in cells)
    assert float(cells[0]) > 0  # background ENL


def test_evaluate_with_geometry_file(tmp_path, noisy_pair, capsys):
    from despeckle import default_geometry, write_geometry

    ph, noisy = noisy_pair
    gfile = tmp_path / "geom.txt"
    write_geometry(default_geometry(64), gfile)
    assert run("evaluate", "--ref", str(ph), "--test", str(noisy),
               "--geometry", str(gfile)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split(",")[1] != "NA"  # line contrast computed


def test_evaluate_rejects_a_geometry_of_another_size(noisy_pair, capsys):
    ph, noisy = noisy_pair  # 64x64 images
    assert run("evaluate", "--ref", str(ph), "--test", str(noisy),
               "--geometry-size", "128") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "geometry size 128" in captured.err and "Traceback" not in captured.err


@pytest.fixture()
def geometry_64(tmp_path):
    """The committed 64 layout, written as a geometry file."""
    path = tmp_path / "g64.txt"
    phantom.write_geometry(phantom.default_geometry(64), path)
    return path


def test_layout_flags_are_one_choice(tmp_path, noisy_pair, geometry_64, capsys):
    # a size flag beside a geometry file was ignored, or refused only by
    # montecarlo and only when the sizes differed
    ph, noisy = noisy_pair
    out, g = tmp_path / "out", str(geometry_64)
    evaluate = ("evaluate", "--ref", str(ph), "--test", str(noisy), "--geometry", g)
    for argv in (("phantom", "--geometry", g, "--size", "128", "--out", str(out)),
                 ("phantom", "--size", "64", "--geometry", g, "--out", str(out)),
                 evaluate + ("--geometry-size", "128"), evaluate + ("--geometry-size", "64"),
                 ("montecarlo", "--fast", "--geometry", g, "--size", "64", "--out", str(out))):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and "not allowed with argument" in captured.err, argv
        assert captured.out == "" and not out.exists(), argv


def test_a_geometry_file_sets_the_size(tmp_path, geometry_64):
    by_size, by_file = tmp_path / "size.raw", tmp_path / "file.raw"
    assert run("phantom", "--size", "64", "--out", str(by_size)) == 0
    assert run("phantom", "--geometry", str(geometry_64), "--out", str(by_file)) == 0
    assert by_file.read_bytes() == by_size.read_bytes()
    # montecarlo refused a geometry file of 64 unless --size 64 repeated it
    flags = ("montecarlo", "--seed", "2", "--replicates", "1", "--situations", "2",
             "--filters", "input,lee:5")
    by_size, by_file = tmp_path / "size.csv", tmp_path / "file.csv"
    assert run(*flags, "--size", "64", "--out", str(by_size)) == 0
    assert run(*flags, "--geometry", str(geometry_64), "--out", str(by_file)) == 0
    assert read_csv_rows(by_file) == read_csv_rows(by_size)


def test_a_geometry_file_that_is_not_utf8_exits_1(tmp_path, noisy_pair, geometry_64, capsys):
    # it ended in the internal-error guard
    ph, noisy = noisy_pair
    bad, out = tmp_path / "bad.txt", tmp_path / "out"
    bad.write_bytes(geometry_64.read_bytes().replace(b"size = 64", b"size = 64\xff\xfe"))
    for argv in (("phantom", "--geometry", str(bad), "--out", str(out)),
                 ("evaluate", "--ref", str(ph), "--test", str(noisy), "--geometry", str(bad)),
                 ("montecarlo", "--fast", "--geometry", str(bad), "--out", str(out))):
        assert run(*argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("despeckle: geometry file: invalid literal"), argv
        assert captured.out == "" and not out.exists(), argv


def test_evaluate_images_too_small_for_q(tmp_path, capsys):
    # no 8x8 window fits a 5x5 pair: Q is NA, the run still succeeds
    rng = np.random.default_rng(11)
    ref, test = tmp_path / "ref.raw", tmp_path / "test.raw"
    write_raster(Raster(rng.uniform(50.0, 150.0, (5, 5))), ref, "raw")
    write_raster(Raster(rng.uniform(50.0, 150.0, (5, 5))), test, "raw")
    assert run("evaluate", "--ref", str(ref), "--test", str(test)) == 0
    cells = dict(zip(METRIC_HEADER.split(","), capsys.readouterr().out.splitlines()[2].split(",")))
    assert cells["q_mean"] == cells["q_std"] == "NA"
    for name in ("enl", "beta_rho", "mae", "mse", "nmse", "dcon"):
        assert np.isfinite(float(cells[name])), name


def test_cold_start_imports_no_scipy(tmp_path):
    # a fresh interpreter filters a raster and runs a one-task protocol
    # without loading scipy, whose import would take most of its start-up,
    # or a process-pool library, which no path uses
    raw = tmp_path / "in.raw"
    write_raster(Raster(unit_speckle(4.0, (8, 8), np.random.default_rng(0))), str(raw), "raw")
    filter_args = ["filter", "--in", str(raw), "--out", str(tmp_path / "out.raw")]
    protocol_args = ["montecarlo", "--size", "64", "--replicates", "1", "--situations", "1",
                     "--threads", "1", "--out", str(tmp_path / "mc.csv")]
    script = (
        "import sys\n"
        "from despeckle import cli\n"
        f"assert cli.main({filter_args!r}) == 0\n"
        f"assert cli.main({protocol_args!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]


def test_parser_choices_are_the_library_sets():
    # every set a flag offers is read from the module that owns it, and that
    # module accepts exactly the set: a set written twice could drift apart
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, flag):
        action = next(a for a in commands[command]._actions if flag in a.option_strings)
        return tuple(action.choices)

    def accepted(call, value):
        try:
            call(value)
        except InvalidArgumentError:
            return False
        return True

    assert choices("filter", "--window") == choices("masks", "--window") == nmfilter.WINDOWS
    for spec in (lambda w: FilterSpec(window=w), lambda w: RunPlan(filters=(("lee", w),)),
                 lambda w: RunPlan(filters=(("kl", w),))):
        assert [w for w in range(12) if accepted(spec, w)] == list(nmfilter.WINDOWS)
    for command in ("filter", "montecarlo"):
        assert choices(command, "--dof") == divergence.DOFS
        assert choices(command, "--shared") == divergence.SHARED_LOOKS
    for check in (lambda d: divergence.TestConfig(dof=d),
                  lambda d: divergence.chi2_survival(1.0, d),
                  lambda d: divergence.chi2_critical(0.5, d)):
        assert [d for d in range(-1, 5) if accepted(check, d)] == list(divergence.DOFS)
    assert [s for s in ("pooled", "sample1", "sample2", "")
            if accepted(lambda s: divergence.TestConfig(shared_looks=s), s)] == list(
        divergence.SHARED_LOOKS)
    sizes = (choices("phantom", "--size"), choices("evaluate", "--geometry-size"),
             choices("montecarlo", "--size"))
    assert sizes == (phantom.SIZES,) * 3 and list(phantom.SIZES) == sorted(phantom.SIZES)
    assert [n for n in range(16, 257, 16) if accepted(phantom.default_geometry, n)] == list(
        phantom.SIZES)
    assert all(phantom.default_geometry(n).size == n for n in phantom.SIZES)
    assert choices("filter", "--filter") == divergence.KINDS + ("lee",)
    assert set(harness.FILTER_KINDS) == {"input", "lee", *divergence.KINDS}
    for command in ("phantom", "corrupt"):
        assert choices(command, "--situation") == tuple(sorted(harness.SITUATIONS))
    for command in ("phantom", "corrupt", "filter", "evaluate"):
        assert choices(command, "--format") == raster.FORMATS


def test_masks_subcommand(capsys):
    assert run("masks", "--window", "7") == 0
    out = capsys.readouterr().out
    assert "window 7x7" in out
    for rid in range(1, 10):
        assert f"region {rid} " in out


def test_montecarlo_repeatable_and_commented(tmp_path):
    args = ("montecarlo", "--fast", "--seed", "3", "--replicates", "2",
            "--situations", "2", "--filters", "input,hellinger:5")
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    assert run(*args, "--threads", "1", "--out", str(p1)) == 0
    assert run(*args, "--threads", "2", "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes()

    first = p1.read_text().splitlines()[0]
    assert first.startswith("# despeckle montecarlo --seed 3 --size 64 --replicates 2")
    assert "--threads" not in first and "--out" not in first

    rows = read_csv_rows(p1)
    assert len(rows) == 4  # 2 replicates x 2 filters x 1 level
    assert sorted({r["filter"] for r in rows}) == ["hellinger", "input"]


@pytest.mark.parametrize("flags", [
    ("--situations", "1,4", "--replicates", "1"),
    ("--situations", "2", "--replicates", "2", "--levels", "0.2,0.01"),
    ("--situations", "3", "--replicates", "1", "--dof", "2", "--shared", "sample1",
     "--beta", "0.3", "--filters", "input,renyi:5,kl:7"),
    ("--situations", "1,2", "--replicates", "2", "--geometry", "moved block.txt"),
], ids=["defaults", "levels", "test-flags", "geometry"])
def test_the_echoed_command_reproduces_the_csv(tmp_path, monkeypatch, flags):
    # the echo named --size alone, so a run on a geometry file with a moved
    # block echoed a command that reran on the committed layout
    monkeypatch.chdir(tmp_path)
    geom = dataclasses.replace(phantom.default_geometry(64), block=(6, 40, 22, 56))
    phantom.write_geometry(geom, "moved block.txt")
    assert run("montecarlo", "--fast", "--seed", "4", *flags, "--out", "first.csv") == 0
    echo = (tmp_path / "first.csv").read_text().splitlines()[0]
    assert echo.startswith("# despeckle montecarlo ")
    assert ("--size" in echo) != ("--geometry" in flags)
    assert run(*shlex.split(echo[2:])[1:], "--out", "again.csv") == 0
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def test_montecarlo_respects_levels_and_size(tmp_path):
    out = tmp_path / "mc.csv"
    assert run("montecarlo", "--fast", "--seed", "1", "--replicates", "1",
               "--situations", "1", "--filters", "input", "--levels", "0.1,0.2",
               "--out", str(out)) == 0
    rows = read_csv_rows(out)
    assert [r["level"] for r in rows] == ["0.1", "0.2"]


def test_montecarlo_refuses_an_empty_or_repeated_list(tmp_path, capsys):
    # an empty list wrote a header-only CSV and a repeated one duplicate rows
    out = tmp_path / "mc.csv"
    base = ("montecarlo", "--fast", "--seed", "1", "--replicates", "1", "--out", str(out))
    for flags, message in (
        (("--situations", ",", "--filters", "input"), "at least one situation"),
        (("--situations", "1,1", "--filters", "input"), "each situation"),
        (("--situations", "1", "--filters", "input,input"), "each filter"),
        (("--situations", "1", "--filters", "input", "--levels", "0.2,0.2"),
         "each significance level"),
    ):
        assert run(*base, *flags) == 2, flags
        assert message in capsys.readouterr().err, flags
        assert not out.exists()


def test_montecarlo_refuses_a_window_on_input_and_a_missing_one(tmp_path, capsys):
    # input:5 and input:9 wrote more identical input rows, windows 5 and 9;
    # lee without a window failed with "window must be an integer, got None"
    out = tmp_path / "mc.csv"
    base = ("montecarlo", "--fast", "--replicates", "1", "--situations", "1", "--out", str(out))
    for filters, message in (
        ("input,input:5,input:9,lee:5", "filter entry 'input:5': input takes no window"),
        ("input:9", "filter entry 'input:9': input takes no window"),
        ("lee", "filter entry 'lee' needs a window: lee:N, N in WINDOWS (5, 7)"),
        ("input,hellinger", "filter entry 'hellinger' needs a window: hellinger:N,"),
        ("kl,lee:5", "filter entry 'kl' needs a window"),
        ("renyi:5,renyi", "filter entry 'renyi' needs a window"),
    ):
        assert run(*base, "--filters", filters) == 2, filters
        assert f"despeckle: {message}" in capsys.readouterr().err, filters
        assert not out.exists()


def test_usage_errors_exit_2(tmp_path, noisy_pair, monkeypatch, capsys):
    ph, noisy = noisy_pair
    with pytest.raises(SystemExit) as err:
        run("filter", "--in", str(noisy), "--out", str(tmp_path / "x.raw"), "--bogus")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run("filter", "--in", str(noisy), "--out", str(tmp_path / "x.raw"), "--window", "6")
    assert err.value.code == 2

    missing = run("filter", "--in", str(tmp_path / "nope.raw"), "--out", str(tmp_path / "x.raw"))
    assert missing == 2
    bad_alpha = run("filter", "--in", str(noisy), "--out", str(tmp_path / "x.raw"),
                    "--alpha", "1.5")
    assert bad_alpha == 2
    for threads in ("0", "-2"):
        assert run("filter", "--in", str(noisy), "--out", str(tmp_path / "x.raw"),
                   "--threads", threads) == 2
        assert not (tmp_path / "x.raw").exists()
        assert run("montecarlo", "--fast", "--threads", threads,
                   "--out", str(tmp_path / "x.csv")) == 2
        assert not (tmp_path / "x.csv").exists()
    bad_situation = run("montecarlo", "--fast", "--situations", "7",
                        "--out", str(tmp_path / "x.csv"))
    assert bad_situation == 2
    # a malformed entry of a list flag is refused, not an internal error
    capsys.readouterr()
    for flag, value, entry in (("--situations", "1,x", "x"), ("--levels", "abc", "abc"),
                               ("--filters", "lee:abc", "lee:abc"),
                               ("--filters", "lee:5:7", "lee:5:7")):
        assert run("montecarlo", "--fast", flag, value, "--out", str(tmp_path / "x.csv")) == 2
        assert f"despeckle: {flag}: malformed entry {entry!r}" in capsys.readouterr().err
    # a negative seed or replicate index is refused where it enters
    assert run("montecarlo", "--fast", "--seed", "-1", "--out", str(tmp_path / "x.csv")) == 2
    for flag in ("--seed", "--replicate"):
        assert run("corrupt", "--in", str(ph), "--out", str(tmp_path / "c.raw"),
                   flag, "-1") == 2
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "c.raw").exists()
    monkeypatch.setenv("DESPECKLE_SEED", "-3")
    assert run("montecarlo", "--fast", "--out", str(tmp_path / "x.csv")) == 2
    monkeypatch.delenv("DESPECKLE_SEED")
    with pytest.raises(InvalidArgumentError, match="master_seed"):
        fast_plan(master_seed=-1)
    # a bad test setting is refused before any phantom is rendered
    monkeypatch.setattr(harness, "render_phantom", None)
    bad_beta = run("montecarlo", "--fast", "--filters", "renyi:5", "--beta", "1.5",
                   "--out", str(tmp_path / "x.csv"))
    assert bad_beta == 2
    # an order so small that 1 - beta rounds to 1 made the Renyi rate nan
    assert run("filter", "--in", str(noisy), "--out", str(tmp_path / "x.raw"),
               "--filter", "renyi", "--beta", "1e-320") == 2
    assert not (tmp_path / "x.raw").exists()


def test_an_out_in_a_missing_directory_is_refused_before_any_work(tmp_path, noisy_pair,
                                                                  monkeypatch, capsys):
    # montecarlo --seed 0 once ran the whole protocol before write_csv failed
    calls = []

    def spy(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before --out was checked")
        return refuse

    for name in ("run_protocol", "read_raster", "filter_image", "lee_filter"):
        monkeypatch.setattr(cli, name, spy(name))
    out = tmp_path / "missing"
    capsys.readouterr()
    assert run("montecarlo", "--fast", "--out", str(out / "x.csv")) == 2
    assert f"no directory {str(out)!r}" in capsys.readouterr().err
    for kind in ("hellinger", "lee"):
        assert run("filter", "--in", str(noisy_pair[1]), "--filter", kind,
                   "--out", str(out / "x.raw")) == 2
    assert calls == [] and not out.exists()


def test_usage_error_prints_usage(tmp_path, capsys):
    assert run("filter", "--in", str(tmp_path / "nope.raw"),
               "--out", str(tmp_path / "x.raw")) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "despeckle:" in err


def test_runtime_errors_exit_1(tmp_path, capsys):
    # a malformed raster is a runtime error in every format, not a usage error
    junk = tmp_path / "junk.raw"
    junk.write_bytes(b"not a raster at all")
    empty_raw = tmp_path / "empty.raw"
    empty_raw.write_bytes(struct.pack("<4sIII", b"SPKL", 0, 4, 1))
    empty_pgm = tmp_path / "empty.pgm"
    empty_pgm.write_bytes(b"P5\n0 4\n65535\n")
    for path, fmt in ((junk, "raw"), (empty_raw, "raw"), (empty_pgm, "pgm")):
        assert run("filter", "--in", str(path), "--format", fmt,
                   "--out", str(tmp_path / "x.out")) == 1
        err = capsys.readouterr().err
        assert "despeckle:" in err and "usage:" not in err


# ---------------------------------------------- the exit-code contract, drawn
#
# Half the drawn calls are usable: each of their flags takes one of its usable
# values and each input file is a whole speckled raster, so the success paths
# run often.  The other half draw every value, usable or not.

HUGE = str(10**30)
NUMBERS = ("0", "1", "-1", "nan", "inf", "-inf", "1e308", "1e-320", HUGE, "-" + HUGE)
# drawn for --replicates and --threads: never more than 2 replicates or workers
SMALL_COUNTS = ("0", "1", "2", "-1", "nan", "inf", "1e308", "1e-320", "-" + HUGE)
USABLE_COUNTS = ("1", "2")
# a bad DESPECKLE_SEED fails every call, so most calls leave it unset
ENV_SEEDS = (None,) * 8 + ("", "0", "-1", "nan", "1e3", " 5 ", "0x10", HUGE, "-" + HUGE, "\u0663")
USABLE_ENV_SEEDS = (None, "0", " 5 ", "\u0663")
# list entries: good ones repeated, so a drawn list often holds no bad one
USABLE_FILTERS = ("input", "lee:5", "hellinger:5", "kl:7", "renyi:5")
FILTER_ENTRIES = USABLE_FILTERS * 3 + (
    "lee:3", "bogus", "hellinger", "lee:x", "lee:5:7", "kl:" + HUGE, "")
USABLE_LEVELS = ("0.2", "0.01")
LEVEL_ENTRIES = USABLE_LEVELS * 4 + ("0", "1", "-1", "nan", "inf", "1e-320", "1e308", "x", "")
USABLE_SITUATIONS = ("1", "2", "3", "4")
SITUATION_ENTRIES = USABLE_SITUATIONS * 2 + ("0", "5", "-1", "x", "", HUGE)


def draw_raster_file(data, directory, name, usable, like=None):
    """A raster on disk for an input flag, its format and side: 3x3, 8x8 or
    64x64, speckled or all zero, whole or truncated, in a drawn format, or a
    path with no file (side None).  A usable one is a whole speckled 8x8 or
    64x64 raster, of the (format, side) like when given."""
    path = os.path.join(directory, name)
    if usable:
        content = "speckle"
        fmt, side = like or (data.draw(st.sampled_from(("raw", "ascii", "pgm"))),
                             data.draw(st.sampled_from((8, 64))))
    else:
        fmt = data.draw(st.sampled_from(("raw", "ascii", "pgm")))
        content = data.draw(st.sampled_from(("speckle", "speckle", "zero", "truncated", "missing")))
        side = None if content == "missing" else data.draw(st.sampled_from((8, 64, 3)))
    if side is not None:
        values = 100.0 * unit_speckle(2.0, (side, side), np.random.default_rng(side))
        write_raster(Raster(values if content != "zero" else 0.0 * values), path, fmt)
        if content == "truncated":
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)
    return path, fmt, side


# geometry files: the committed layouts, then the three faults a file can hold
GEOMETRY_EDITS = {"64": None, "128": None, "malformed": (b"block =", b"block"),
                  "repeated key": (b"size = 64\n", b"size = 64\nsize = 64\n"),
                  "not utf-8": (b"size = 64", b"size = 64\xff\xfe"), "missing": None}


def draw_layout(data, directory, usable, size_flag, sizes, usable_sizes):
    """A command's layout flags: its size flag, a geometry file, both (a usage
    error) or neither.  The file holds the 64 or 128 layout, a malformed line,
    a repeated key or a byte that is not UTF-8, or is missing; a usable call
    gives at most one flag, and a file only of the 64 layout."""
    picked = data.draw(st.sampled_from(("neither", "size", "file", "both")[:3 if usable else 4]))
    argv = []
    if picked in ("size", "both"):
        argv += [size_flag, data.draw(st.sampled_from(usable_sizes if usable else sizes))]
    if picked in ("file", "both"):
        path = os.path.join(directory, "geometry.txt")
        content = "64" if usable else data.draw(st.sampled_from(tuple(GEOMETRY_EDITS)))
        if content != "missing":
            phantom.write_geometry(phantom.default_geometry(128 if content == "128" else 64), path)
            if GEOMETRY_EDITS[content]:
                with open(path, "rb") as fh:
                    text = fh.read().replace(*GEOMETRY_EDITS[content])
                with open(path, "wb") as fh:
                    fh.write(text)
        argv += ["--geometry", path]
    return argv


def draw_flags(data, usable, choices):
    """Up to two of the (flag, values, usable values) choices, each given one
    drawn value; the others keep their defaults, so a drawn call often gets
    past validation."""
    picked = data.draw(st.lists(st.sampled_from(choices), max_size=2, unique_by=lambda c: c[0]))
    return [arg for flag, values, good in picked
            for arg in (flag, data.draw(st.sampled_from(good if usable else values)))]


def draw_list(data, usable, entries, good):
    """One or two entries joined by commas; a usable list repeats none."""
    pool = st.sampled_from(good if usable else entries)
    return ",".join(data.draw(st.lists(pool, min_size=1, max_size=2, unique=usable)))


def draw_command(data, directory, usable, command):
    """A command line of the despeckle subcommand and the output file it
    names, if any."""
    out = os.path.join(directory, "out")
    fmt = ("--format", ("raw", "ascii", "pgm"), ("raw", "ascii", "pgm"))
    situation = ("--situation", NUMBERS + ("4",), ("1", "4"))
    window = ("--window", NUMBERS + ("5", "7"), ("5", "7"))
    if command == "phantom":
        argv = ["--out", out] + draw_flags(data, usable, [situation, fmt])
        argv += draw_layout(data, directory, usable, "--size", NUMBERS + ("64",), ("64",))
    elif command == "corrupt":
        infile, infmt, _ = draw_raster_file(data, directory, "in", usable)
        argv = ["--in", infile, "--out", out, "--format", infmt] + draw_flags(data, usable, [
            situation, ("--seed", NUMBERS, ("0", "1")), ("--replicate", NUMBERS, ("0", "1"))])
    elif command == "filter":
        infile, infmt, _ = draw_raster_file(data, directory, "in", usable)
        kind = data.draw(st.sampled_from(("hellinger", "kl", "renyi", "lee")))
        argv = ["--in", infile, "--out", out, "--format", infmt, "--filter", kind]
        argv += draw_flags(data, usable, [
            window, ("--alpha", NUMBERS + ("0.2",), ("0.2",)),
            ("--beta", NUMBERS + ("0.5",), ("0.5",)), ("--looks", NUMBERS + ("3",), ("1", "3")),
            ("--dof", NUMBERS + ("2",), ("1", "2")),
            ("--shared", ("pooled", "sample1"), ("pooled", "sample1")),
            ("--threads", SMALL_COUNTS, USABLE_COUNTS)])
    elif command == "evaluate":
        # a usable test image has the reference's format and size
        ref, reffmt, side = draw_raster_file(data, directory, "ref", usable)
        test, _, _ = draw_raster_file(data, directory, "test", usable, like=(reffmt, side))
        argv = ["--ref", ref, "--test", test, "--format", reffmt]
        argv += draw_layout(data, directory, usable, "--geometry-size", NUMBERS + ("64", "128"),
                            ("64",))
        out = None
    elif command == "montecarlo":
        # the list flags and --replicates are always given: their defaults
        # run every situation and filter, 20 replicates each
        replicates = ("1", "2") * 3 + SMALL_COUNTS
        argv = ["--fast", "--out", out,
                "--replicates", data.draw(st.sampled_from(USABLE_COUNTS if usable else replicates)),
                "--situations", draw_list(data, usable, SITUATION_ENTRIES, USABLE_SITUATIONS),
                "--filters", draw_list(data, usable, FILTER_ENTRIES, USABLE_FILTERS)]
        levels = draw_list(data, usable, LEVEL_ENTRIES, USABLE_LEVELS)
        argv += draw_flags(data, usable, [
            ("--levels", (levels,), (levels,)), ("--seed", NUMBERS, ("0", "1")),
            ("--dof", NUMBERS + ("2",), ("1", "2")), ("--beta", NUMBERS + ("0.5",), ("0.5",)),
            ("--threads", SMALL_COUNTS, USABLE_COUNTS)])
        argv += draw_layout(data, directory, usable, "--size", NUMBERS + ("64",), ("64",))
    else:
        argv = draw_flags(data, usable, [window])
        out = None
    return [command] + argv, out


def check_command_line(data, command):
    """Draw a command line of the subcommand and run it: it ends in a defined
    exit code, never in the internal-error guard (a RuntimeWarning raises
    under this suite's warning filter), and a usage error leaves no output
    file behind."""
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        usable = data.draw(st.booleans())
        argv, out = draw_command(data, directory, usable, command)
        seed = data.draw(st.sampled_from(USABLE_ENV_SEEDS if usable else ENV_SEEDS))
        if seed is None:
            mp.delenv("DESPECKLE_SEED", raising=False)
        else:
            mp.setenv("DESPECKLE_SEED", seed)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, seed, err.getvalue())
        assert "internal error" not in err.getvalue(), (argv, seed, err.getvalue())
        if code == 2 and out is not None:
            assert not os.path.exists(out), (argv, seed)


COMMANDS = ("phantom", "corrupt", "filter", "evaluate", "montecarlo", "masks")


def test_every_command_line_exits_0_1_or_2():
    # each subcommand gets its own run of 34 drawn calls (204 in all).  Drawn
    # within one run of 200, the subcommand came out montecarlo 60-92 times
    # and masks 9-20, even when drawn first: Hypothesis mutates each call
    # whose draws repeat a strategy (montecarlo's lists) into up to 5 more.
    for command in COMMANDS:
        @settings(max_examples=34, deadline=None)
        @given(data=st.data())
        def check(data):
            check_command_line(data, command)

        check()
