import dataclasses
import struct
import warnings

import numpy as np
import pytest

from despeckle import (
    METRIC_HEADER,
    FilterSpec,
    LeeSpec,
    Raster,
    RunPlan,
    cli,
    fast_plan,
    harness,
    read_raster,
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
    _, noisy = noisy_pair
    a = tmp_path / "a.raw"
    b = tmp_path / "b.raw"
    assert run("filter", "--in", str(noisy), "--out", str(a), "--threads", "1") == 0
    assert run("filter", "--in", str(noisy), "--out", str(b), "--threads", "3") == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_usage_errors_exit_2(tmp_path, noisy_pair, monkeypatch):
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
    bad_situation = run("montecarlo", "--fast", "--situations", "7",
                        "--out", str(tmp_path / "x.csv"))
    assert bad_situation == 2
    # a bad test setting is refused before any phantom is rendered
    monkeypatch.setattr(harness, "render_phantom", None)
    bad_beta = run("montecarlo", "--fast", "--filters", "renyi:5", "--beta", "1.5",
                   "--out", str(tmp_path / "x.csv"))
    assert bad_beta == 2


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
