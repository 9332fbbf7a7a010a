import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from conftest import assert_no_child_left, bisect_200, stream
from despeckle import (
    FilterSpec,
    GammaParams,
    InvalidArgumentError,
    OutOfBoundsError,
    Raster,
    TestConfig,
    enl,
    filter_image,
    filter_pixel,
    mask_table_text,
    mle,
    nm_masks,
    pad_mirror,
    run_test,
    sample,
    unit_speckle,
)
from despeckle import divergence, forks, nmfilter
from despeckle.divergence import (
    KINDS,
    sidak_level,
    statistic_array,
)
from despeckle.gamma import solve_looks
from despeckle.harness import SITUATIONS, corrupt, make_phantom, replicate_stream
from despeckle.nmfilter import BLOCK_PIXELS
from despeckle.phantom import default_geometry


def rot90cw(offsets):
    return {(c, -r) for r, c in offsets}


# -------------------------------------------------------------------- masks


def test_masks_window5_central_block():
    masks = nm_masks(5)
    assert masks[0].region_id == 1
    assert set(masks[0].offsets) == {(r, c) for r in (-1, 0, 1) for c in (-1, 0, 1)}


def test_masks_cardinalities():
    for window, central, peripheral in ((5, 9, 7), (7, 25, 12)):
        masks = nm_masks(window)
        assert len(masks) == 9
        assert len(masks[0].offsets) == central
        for m in masks[1:]:
            assert len(m.offsets) == peripheral
            assert len(set(m.offsets)) == peripheral


def test_masks_cover_window_and_stay_inside():
    for window in (5, 7):
        half = window // 2
        covered = set()
        for m in nm_masks(window):
            for r, c in m.offsets:
                assert abs(r) <= half and abs(c) <= half
            covered.update(m.offsets)
        assert len(covered) == window * window


def test_masks_rotation_structure():
    for window in (5, 7):
        masks = {m.region_id: set(m.offsets) for m in nm_masks(window)}
        # ids: 2 N, 3 NE, 4 E, 5 SE, 6 S, 7 SW, 8 W, 9 NW
        assert rot90cw(masks[2]) == masks[4]
        assert rot90cw(masks[4]) == masks[6]
        assert rot90cw(masks[6]) == masks[8]
        assert rot90cw(masks[3]) == masks[5]
        assert rot90cw(masks[5]) == masks[7]
        assert rot90cw(masks[7]) == masks[9]


def test_masks_oriented_regions_contain_center_pixel():
    # each oriented region includes the filtered pixel itself, like the
    # central block does, so the regions overlap by construction
    for window in (5, 7):
        for m in nm_masks(window):
            assert (0, 0) in m.offsets


def test_masks_invalid_window():
    with pytest.raises(InvalidArgumentError):
        nm_masks(3)
    with pytest.raises(InvalidArgumentError):
        nm_masks(9)
    # nm_masks is the one window check: the mask lookup, its dump and the spec
    # refuse a float or a bool window alike
    for window in (5.0, True):
        for refuses in (nm_masks, mask_table_text, lambda w: FilterSpec(window=w)):
            with pytest.raises(InvalidArgumentError, match="window must be an integer"):
                refuses(window)
    assert nm_masks(np.int64(7)) is nm_masks(7)


def test_mask_table_text_lists_all_regions():
    text = mask_table_text(5)
    for rid in range(1, 10):
        assert f"region {rid} " in text
    assert "window 5x5" in text
    assert len(mask_table_text(7).splitlines()) > len(text.splitlines())


def test_filter_spec_validation():
    FilterSpec(window=7)
    FilterSpec(window=np.int64(5))
    with pytest.raises(InvalidArgumentError, match="integer"):
        FilterSpec(window=5.0)
    with pytest.raises(InvalidArgumentError):
        FilterSpec(window=4)
    with pytest.raises(TypeError):  # the series length is fixed, not a setting
        FilterSpec(window=5, test=TestConfig(num_tests=4))


def test_filter_spec_masks_follow_the_window():
    assert FilterSpec(window=7).masks == nm_masks(7)
    assert dataclasses.replace(FilterSpec(window=5), window=7).masks == nm_masks(7)
    with pytest.raises(TypeError):
        FilterSpec(window=5, masks=nm_masks(5))


def test_geometry_is_built_once_and_read_only():
    for window in (5, 7):
        assert nm_masks(window) is nm_masks(window) is FilterSpec(window=window).masks
        masks, arrays = nmfilter._GEOMETRY[window]
        assert masks is nm_masks(window)
        assert all(not a.flags.writeable for a in arrays)


# ------------------------------------------------------------------- filter


def test_filter_constant_image():
    img = Raster(np.full((12, 12), 40.0))
    out = filter_image(img, FilterSpec(window=5))
    assert np.array_equal(out.array, img.array)


def test_filter_pixel_matches_filter_image():
    # the second image holds a constant 6x5 block, whose pixels have constant
    # central blocks at both windows: a one-centre engine call summed their
    # logs in numpy's pairwise order and could land on the other side of 0
    rng = stream(101)
    speckled = 150.0 * unit_speckle(3.0, (14, 11), rng)
    constant = speckled.copy()
    constant[4:10, 3:8] = 1.7 * np.pi
    for img in (Raster(speckled), Raster(constant)):
        for window in (5, 7):
            spec = FilterSpec(window=window, test=TestConfig(alpha=0.2))
            half = window // 2
            padded = pad_mirror(img, half)
            whole = filter_image(img, spec)
            for r in range(img.height):
                for c in range(img.width):
                    assert filter_pixel(padded, (r + half, c + half), spec) == whole.array[r, c]


def test_filter_pixel_border_check():
    spec = FilterSpec(window=5)
    img = Raster(np.ones((9, 9)))
    with pytest.raises(OutOfBoundsError):
        filter_pixel(img, (1, 5), spec)
    with pytest.raises(OutOfBoundsError):
        filter_pixel(img, (5, 7), spec)
    with pytest.raises(InvalidArgumentError, match="integer"):
        filter_pixel(img, (5.0, 5), spec)
    assert filter_pixel(img, (np.int64(4), np.int64(4)), spec) == 1.0


def test_filter_image_undersized():
    with pytest.raises(InvalidArgumentError):
        filter_image(Raster(np.ones((4, 12))), FilterSpec(window=5))


def test_filter_output_within_window_range():
    rng = stream(102)
    img = Raster(100.0 * unit_speckle(1.0, (20, 20), rng))
    out = filter_image(img, FilterSpec(window=5))
    padded = pad_mirror(img, 2).array
    wins = sliding_window_view(padded, (5, 5)).reshape(20, 20, -1)
    assert np.all(out.array >= wins.min(axis=2) - 1e-12)
    assert np.all(out.array <= wins.max(axis=2) + 1e-12)


def test_filter_row_blocks_agree_with_filter_pixel():
    # 70 rows of 128 span several engine blocks, the last one short
    rng = stream(106)
    img = Raster(150.0 * unit_speckle(3.0, (70, 128), rng))
    rows_per_block = max(1, BLOCK_PIXELS // img.width)
    assert img.height > 2 * rows_per_block
    assert img.array.size % (rows_per_block * img.width) != 0
    spec = FilterSpec(window=5)
    out = filter_image(img, spec).array
    padded = pad_mirror(img, 2)
    last = img.height // rows_per_block * rows_per_block  # first row of the short block
    for r in (0, rows_per_block - 1, rows_per_block, 2 * rows_per_block, last, img.height - 1):
        for c in (0, 64, img.width - 1):
            assert filter_pixel(padded, (r + 2, c + 2), spec) == out[r, c]


def band_case(seed: int, width: int, blocks: int):
    """A seeded image of blocks + 1 engine blocks, the last one short, and a
    row band [a, b) of it.  It holds zeros, a zero block, a constant block,
    whose central blocks decide on the sign of a rounding error, and a stripe
    scaled by 2^600 and one by 2^-600 beside windows in range."""
    rng = np.random.default_rng(seed)
    rows = BLOCK_PIXELS // width
    height = blocks * rows + int(rng.integers(1, rows))
    arr = 100.0 * unit_speckle(2.0, (height, width), rng)
    arr[rng.random(arr.shape) < rng.choice([0.0, 0.01, 0.2])] = 0.0
    for value in (0.0, rng.uniform(1e-3, 1e3)):
        (r0, r1), (c0, c1) = (np.sort(rng.choice(n + 1, 2, replace=False)) for n in arr.shape)
        arr[r0:r1, c0:c1] = value
    for scale in (2.0**600, 2.0**-600):
        top = rng.integers(height)
        arr[top:top + rng.integers(1, 4), rng.integers(width):] *= scale
    a, b = np.sort(rng.choice(height + 1, 2, replace=False))
    return Raster(arr), int(a), int(b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(64, 160), blocks=st.integers(1, 2),
       window=st.sampled_from((5, 7)), kind=st.sampled_from(KINDS),
       shared_looks=st.sampled_from(("pooled", "sample1")))
# two cases where a range shift taken once per engine block, not per window,
# changes hundreds of pixels
@example(seed=115, width=100, blocks=1, window=5, kind="hellinger", shared_looks="pooled")
@example(seed=241, width=128, blocks=2, window=7, kind="kl", shared_looks="sample1")
def test_row_band_filtered_alone_gives_filter_image_bits(seed, width, blocks, window, kind,
                                                         shared_looks):
    # Each pixel depends on its window alone, so a row band [a, b) filtered on
    # its own, as filter_image of its padded rows, gives those rows of the
    # whole image's output bit for bit, though its engine blocks start
    # elsewhere.
    img, a, b = band_case(seed, width, blocks)
    spec = FilterSpec(window=window, test=TestConfig(kind=kind, shared_looks=shared_looks))
    half = window // 2
    band = Raster(pad_mirror(img, half).array[a:b + 2 * half])
    alone = filter_image(band, spec).array[half:-half, half:-half]
    assert alone.tobytes() == filter_image(img, spec).array[a:b].tobytes()


@pytest.mark.parametrize("window", [5, 7])
def test_alternating_calls_equal_fresh_calls(window):
    # a call reuses its arrays across its blocks; calls that alternate between
    # images of other widths and kinds must each give what a call on its own
    # gives
    rng = stream(107, window)
    wide = 150.0 * unit_speckle(3.0, (40, 128), rng)
    wide[::7, ::5] = 0.0
    narrow = 90.0 * unit_speckle(1.0, (53, 41), rng)
    narrow[:, 20:] *= 2.0**700
    images = [Raster(wide), Raster(narrow)]
    specs = [FilterSpec(window=window, test=TestConfig(kind=kind)) for kind in KINDS]
    fresh = {(i, kind): filter_image(img, spec).array
             for i, img in enumerate(images) for kind, spec in zip(KINDS, specs)}
    for kind, spec in zip(KINDS, specs):
        for i, img in enumerate(images):
            got = filter_image(img, spec).array
            assert np.array_equal(got, fresh[i, kind]), (kind, i)


def test_filter_pixel_runs_the_block_function(monkeypatch):
    calls = []
    block = nmfilter._filter_block

    def spy(padded, first, last, *args):
        calls.append((padded.shape, first, last))
        return block(padded, first, last, *args)

    monkeypatch.setattr(nmfilter, "_filter_block", spy)
    img = Raster(40.0 * unit_speckle(2.0, (12, 12), stream(109)))
    value = filter_pixel(pad_mirror(img, 3), (6, 8), FilterSpec(window=7))
    # one block: the 7x7 window as an image, mirror-padded, all seven rows
    assert calls == [((13, 13), 0, 7)]
    calls.clear()
    assert value == filter_image(img, FilterSpec(window=7)).array[3, 5]
    assert {c[1:] for c in calls} == {(0, 12)}


def test_filter_determinism():
    rng = stream(104)
    img = Raster(55.0 * unit_speckle(1.0, (16, 16), rng))
    spec = FilterSpec(window=7)
    assert filter_image(img, spec) == filter_image(img, spec)


def test_filter_handles_zero_pixels():
    rng = stream(105)
    arr = 80.0 * unit_speckle(2.0, (12, 12), rng)
    arr[5, 5] = 0.0
    arr[2, 9] = 0.0
    img = Raster(arr)
    spec = FilterSpec(window=5)
    out = filter_image(img, spec)
    assert np.all(np.isfinite(out.array))
    assert np.all(out.array >= 0)
    # filter_pixel must agree with filter_image on windows holding the zeros
    padded = pad_mirror(img, 2)
    assert filter_pixel(padded, (7, 7), spec) == out.array[5, 5]
    assert filter_pixel(padded, (5, 6), spec) == out.array[3, 4]


# Frozen from the row-at-a-time engine that preceded the row-block engine;
# the cases with a variant were frozen from the row-block engine with its
# per-region loop.  Like perfbench/digests.json, they hold for the numpy and
# scipy builds they were made with (numpy 2.4.6, scipy 1.17.1); other builds
# may round differently and need new digests.
FILTER_DIGESTS = {
    ("hellinger", 5, ""): "ef9b634bb8d1ca19a9b1b9e32ba0e7476c774f0f476ae30463f5588fb3a1e084",
    ("hellinger", 7, ""): "cf22c75b3afe77cdc3818379d9f3d42e84bd3d481029c4b43033a6c48c190020",
    ("kl", 5, ""): "15796c1efd3e2d6af9939fa9365c3032bb1a2dae15d1b14b7a90a6793ab99b6f",
    ("kl", 7, ""): "86368c5fbf9fae6d3fcf1346a3bcef956cc9b8e95083c4597cc9bfea925d66dd",
    ("renyi", 5, ""): "724527cdd6ca8eb17ca6cb574935c7ebffcd0f6e15cd225248c914fd62b11ab5",
    ("renyi", 7, ""): "dbb118c3228c37ade0946a4b9e78331fee2e9a5703f319dd0068fc1aff8a82f8",
    ("hellinger", 5, "sample1"):
        "9dd8c09fcf71649954026e053e9d830799edd5fa637c4415e41aaa736d8839ee",
    ("kl", 7, "dof2"): "f412097e666499df24c1cf6da0e8c5f1ae06c2e3248b7f5f00527b1931a281d5",
    ("renyi", 5, "zeros"): "8ca2a61cdd62b9d7212b20eb4cfdc3e4cb43ced321e2e3bd56e4b0ccecb429b1",
    ("hellinger", 7, "zeros-sample1-dof2"):
        "4c43a1bbb9010d40e602929dc4293324dc5e8c10ab02404876b0ebadff850fff",
    # Frozen from the engine that evaluated the dispersion gap of every test.
    # Each holds thresholds at or below 1, above L_MAX and in the screen's
    # band (gamma.looks_below) at another level or order, or at 2^600 and
    # 2^-600, where the range rule scales every window.
    ("hellinger", 5, "alpha01"):
        "82d99dff8f78468904bca9d5d26dcb24d728972ec80492e884df516a974c84c8",
    ("kl", 7, "alpha01"): "229d55d4a038a4acc45f804cc01ab1198d989c6b379d8f988cc7c5d6e63c657e",
    ("renyi", 7, "order09"):
        "f1786d7032e4923fe34ad748ba6327695231b1d519632f944143e6c53a972604",
    ("hellinger", 5, "up600"): "0b77d9236e700c7067f5a24c8039261dbc4ead734bd7c141e4c5b45afe7ccdc8",
    ("hellinger", 5, "down600"):
        "760e6db7173baaa611fa8a034cef6621f1fd18d4e3ac0a20c263f3f081a4c985",
}


def situation_strip():
    """A 32x128 strip: the middle 32x32 of each speckled 64x64 situation
    (block edge, lines, diagonal, points), side by side."""
    geom = default_geometry(64)
    tiles = []
    for sid in sorted(SITUATIONS):
        sit = SITUATIONS[sid]
        noisy = corrupt(make_phantom(geom, sit), sit, replicate_stream(7, sid, 0)).array
        tiles.append(noisy[16:48, 16:48])
    return Raster(np.hstack(tiles))


def zero_strip():
    """The situation strip with every 23rd pixel zero and an 8x12 zero block,
    which holds whole 5x5 and 7x7 windows without a positive value."""
    arr = situation_strip().array.copy()
    arr.flat[::23] = 0.0
    arr[8:16, 40:52] = 0.0
    return Raster(arr)


def digest_case(kind, window, variant):
    """The image and spec of one FILTER_DIGESTS case."""
    if "zeros" in variant:
        img = zero_strip()
    else:
        img = situation_strip()
        assert img.shape == (32, 128) and img.array.min() > 0  # zero-free
    # up600 and down600 scale the strip by 2^600 and 2^-600
    scale = {"up600": 600, "down600": -600}.get(variant, 0)
    img = Raster(np.ldexp(img.array, scale))
    cfg = TestConfig(
        kind=kind,
        shared_looks="sample1" if "sample1" in variant else "pooled",
        dof=2 if "dof2" in variant else 1,
        alpha=0.01 if "alpha01" in variant else 0.2,
        renyi_order=0.9 if "order09" in variant else 0.5,
    )
    return img, FilterSpec(window=window, test=cfg)


DIGEST_CASES = [pytest.param(*key, id="-".join(str(k) for k in key if k))
                for key in sorted(FILTER_DIGESTS)]


@pytest.mark.parametrize("kind,window,variant", DIGEST_CASES)
def test_filter_output_matches_frozen_digest(kind, window, variant):
    out = filter_image(*digest_case(kind, window, variant))
    assert hashlib.sha256(out.array.tobytes()).hexdigest() == FILTER_DIGESTS[kind, window, variant]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind,window,variant", DIGEST_CASES)
def test_row_bands_match_frozen_digest(monkeypatch, kind, window, variant, workers):
    # the 32x128 strip split into `workers` row bands, one per process
    monkeypatch.setattr(nmfilter, "BAND_PIXELS", 64)
    monkeypatch.setattr(forks, "_usable_cpus", lambda: 3)
    calls = []
    real = nmfilter._forked_spans

    def spy(fn, count, parts):
        calls.append(parts)
        return real(fn, count, parts)

    monkeypatch.setattr(nmfilter, "_forked_spans", spy)
    out = filter_image(*digest_case(kind, window, variant), threads=workers)
    assert calls == [workers]
    assert hashlib.sha256(out.array.tobytes()).hexdigest() == FILTER_DIGESTS[kind, window, variant]
    assert_no_child_left()


@pytest.mark.parametrize("shared_looks", ["pooled", "sample1"])
def test_filter_decides_without_solving_looks(monkeypatch, shared_looks):
    # the engine decides every region test from its looks threshold: it never
    # solves for the looks nor computes a statistic, and its bytes are those
    # frozen from the engine that did both
    def forbidden(*args, **kwargs):
        raise AssertionError("the filter engine must not call this")

    for name in ("solve_looks", "hellinger_stat_array", "kl_stat_array", "renyi_stat_array"):
        monkeypatch.setattr(nmfilter, name, forbidden)
    variant = "sample1" if shared_looks == "sample1" else ""
    cfg = TestConfig(shared_looks=shared_looks)
    out = filter_image(situation_strip(), FilterSpec(window=5, test=cfg))
    assert hashlib.sha256(out.array.tobytes()).hexdigest() == FILTER_DIGESTS["hellinger", 5, variant]


def test_traced_names_stay_bound():
    # perfbench traces these names in nmfilter, which the engine never calls
    assert nmfilter.solve_looks is solve_looks
    for name in ("hellinger_stat_array", "kl_stat_array", "renyi_stat_array"):
        assert getattr(nmfilter, name) is getattr(divergence, name)


def _solved_decisions(w, cfg, central, gathers):
    """The region tests as first written: solve for the shared looks, compute
    the statistic, and compare its chi-square p-value with the Sidak level."""
    m1, ni = central.size, gathers.shape[1]
    mean1 = w[:, central].mean(axis=1)
    mean_i = w[:, gathers].sum(axis=2) / ni
    rhs1 = np.log(mean1) - np.log(w[:, central]).sum(axis=1) / m1
    if cfg.shared_looks == "pooled":
        pooled = np.concatenate([np.repeat(w[:, None, central], 8, axis=1), w[:, gathers]], axis=2)
        rhs = np.log(pooled.sum(axis=2) / (m1 + ni)) - np.log(pooled).sum(axis=2) / (m1 + ni)
        shared = bisect_200(rhs)
    else:
        shared = bisect_200(rhs1)[:, None]
    stat = statistic_array(cfg.kind, mean1[:, None], mean_i, m1, ni, shared, cfg.renyi_order)
    return special.gammaincc(cfg.dof / 2.0, stat / 2.0) > sidak_level(cfg.alpha, 8)


def gamma_windows(rng, count, cells):
    """Speckled windows whose cells are brightened up to 8x at random, each
    window with its own share of bright cells, so tests both pass and fail."""
    looks = rng.choice([1.0, 3.0, 8.0], (count, 1))
    level = 100.0 * np.exp(rng.uniform(-3.0, 3.0, (count, 1)))
    side = rng.random((count, cells)) < rng.uniform(0.0, 1.0, (count, 1))
    contrast = np.exp(rng.uniform(0.0, np.log(8.0), (count, 1)))
    return level * np.where(side, contrast, 1.0) * rng.gamma(looks, 1.0 / looks, (count, cells))


@pytest.mark.parametrize("window", [5, 7])
def test_region_decisions_equal_the_solved_tests(window):
    # 3 kinds x 2 dof x 2 shared_looks x 2,200 windows x 8 regions: 211k
    # (centre, region) decisions per window size
    rng = stream(108, window)
    spec = FilterSpec(window=window)
    central, gathers, _ = nmfilter._GEOMETRY[window][1]
    buffers = nmfilter._Buffers(window, 2200)
    for kind in KINDS:
        for dof in (1, 2):
            for shared_looks in ("pooled", "sample1"):
                cfg = TestConfig(kind=kind, dof=dof, shared_looks=shared_looks)
                w = gamma_windows(rng, 2200, window * window)
                z = np.ascontiguousarray(w.T)  # the engine's (cells, centres) layout
                _, accepted = nmfilter._region_tests(z, np.log(z), cfg, central, gathers, buffers)
                want = _solved_decisions(w, cfg, central, gathers)
                assert np.array_equal(accepted[1:].T, want), (kind, dof, shared_looks)
                assert accepted[0].all()
                assert want.any() and not want.all()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("window", [5, 7])
def test_warm_block_allocates_no_region_arrays(window, kind):
    # a block on a worker's warm arrays keeps every (8, centres) step in them:
    # its peak allocation stays below three such float arrays (384 KiB at
    # 2,048 centres), where an engine that allocated its steps took ~1.2 MiB;
    # on the zero strip shift_zeros works in them too (it allocated ~0.5-1 MiB),
    # also when the warm-up block held no zero
    spec = FilterSpec(window=window, test=TestConfig(kind=kind))
    rows = BLOCK_PIXELS // 128
    plain, zeros = (pad_mirror(strip, window // 2).array
                    for strip in (situation_strip(), zero_strip()))
    assert not (plain == 0.0).any()
    for warm, measured in ((plain, plain), (zeros, zeros), (plain, zeros)):
        assert (measured[rows:2 * rows + window - 1] == 0.0).any() == (measured is zeros)
        buffers = nmfilter._Buffers(window, BLOCK_PIXELS)
        nmfilter._filter_block(warm, 0, rows, spec, buffers)
        tracemalloc.start()
        try:
            nmfilter._filter_block(measured, rows, 2 * rows, spec, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * BLOCK_PIXELS * 8, (warm is zeros, measured is zeros, peak)


@pytest.mark.parametrize("window", [5, 7])
def test_zero_stand_in_never_rounds_to_zero(window):
    # ZERO_SHIFT times the subnormal 1e-320 rounds to 0; the stand-in is
    # floored at the smallest subnormal, so every log stays finite
    arr = np.ones((7, 7))
    arr[3, 3], arr[2, 4] = 0.0, 1e-320
    out = filter_image(Raster(arr), FilterSpec(window=window)).array
    assert np.all((0.0 <= out) & (out <= 1.0))
    fit = mle(arr)
    assert fit.zero_shifted and not fit.degenerate
    assert fit.params.mean == float(arr.mean())


@pytest.mark.parametrize("window", [5, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_zero_floor_holds_under_a_raising_error_state(kind, window):
    # the stand-in's floor is the smallest subnormal as a constant, so nothing
    # signals underflow: an all-zero raster filters to zeros and zeros beside a
    # 1 fit with every floating-point error raising
    spec = FilterSpec(window=window, test=TestConfig(kind=kind))
    with np.errstate(all="raise"):
        out = filter_image(Raster(np.zeros((64, 64))), spec).array
        fit = mle(np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(out, np.zeros((64, 64)))
    assert fit.zero_shifted and not fit.degenerate


def differing_share(a, b):
    """Share of pixels where two outputs differ by more than 1e-9 relative."""
    return float(np.mean(np.abs(a - b) > 1e-9 * np.abs(b)))


@pytest.mark.parametrize("window", [5, 7])
@pytest.mark.parametrize("kind", ["hellinger", "kl"])
def test_filter_is_rotation_and_scale_equivariant(kind, window):
    # Rotating the masks a quarter turn maps the region set onto itself, and
    # scaling by 2^k scales every sum exactly; only the summation order and
    # the rounding of the logs change, which may flip a test decision at a
    # tie.  Bound: at most 0.1 % of the pixels differ by more than 1e-9
    # relative.  At k = +-600 every window lies beyond [2^-500, 2^500] and
    # is filtered at a power of two of its own, with no over- or underflow.
    img = situation_strip()
    spec = FilterSpec(window=window, test=TestConfig(kind=kind))
    out = filter_image(img, spec).array
    rotated = filter_image(Raster(np.rot90(img.array)), spec).array
    assert differing_share(rotated, np.rot90(out)) <= 1e-3
    for k in (-600, -3, 5, 600):
        scaled = filter_image(Raster(2.0**k * img.array), spec).array
        assert differing_share(scaled, 2.0**k * out) <= 1e-3


@pytest.mark.parametrize("window", [5, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_filter_takes_windows_spanning_the_float_range(kind, window):
    # A peak near the float maximum over a dim speckled floor: ~2^1030
    # between the values of one window.  Only the windows holding the peak
    # are scaled, a KL rate past the float range rejects its region, and the
    # other windows keep the bytes of the floor filtered alone.
    floor = 0.25 * unit_speckle(3.0, (14, 14), stream(110))
    arr = floor.copy()
    arr[6, 7] = 1.7e308
    img = Raster(arr)
    spec = FilterSpec(window=window, test=TestConfig(kind=kind))
    out = filter_image(img, spec).array
    half = window // 2
    wins = sliding_window_view(pad_mirror(img, half).array, (window, window))
    wins = wins.reshape(14, 14, -1)
    assert np.all((wins.min(axis=2) <= out) & (out <= wins.max(axis=2)))
    far = wins.max(axis=2) < 1.0
    assert far.sum() > 100
    assert np.array_equal(out[far], filter_image(Raster(floor), spec).array[far])
    padded = pad_mirror(img, half)
    assert filter_pixel(padded, (6 + half, 7 + half), spec) == out[6, 7]


@pytest.mark.parametrize("window", [5, 7])
def test_scaling_that_carries_a_value_to_zero_shifts_it(window):
    # beside 1e308 the range rule's 2^-524 carries 1e-300 and 3e-310 to 0:
    # the tests see those cells as shifted zeros, without a warning, just as
    # if the raster held 0 there
    arr = np.full((9, 9), 1e308)
    arr[4, 4], arr[2, 6] = 1e-300, 3e-310
    zeroed = arr.copy()
    zeroed[4, 4] = zeroed[2, 6] = 0.0
    spec = FilterSpec(window=window)
    out = filter_image(Raster(arr), spec).array
    assert np.array_equal(out, filter_image(Raster(zeroed), spec).array)
    assert np.all(np.isfinite(out) & (out >= 0.8e308))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(7, 16), st.integers(7, 16)),
    window=st.sampled_from((5, 7)),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from((0.0, 0.05, 0.3, 0.9)),
    block=st.tuples(*[st.integers(0, 16)] * 4),
)
def test_filter_defined_on_zeros_and_no_data(shape, window, kind, seed, zero_share, block):
    # zero pixels and zero (no-data) blocks: a defined, bounded result, no error
    rng = np.random.default_rng(seed)
    arr = 100.0 * unit_speckle(2.0, shape, rng)
    arr[rng.random(shape) < zero_share] = 0.0
    r0, c0, r1, c1 = block
    arr[r0:r1, c0:c1] = 0.0
    img = Raster(arr)
    spec = FilterSpec(window=window, test=TestConfig(kind=kind))
    out = filter_image(img, spec).array
    assert np.all(np.isfinite(out))

    half = window // 2
    padded = pad_mirror(img, half)
    wins = sliding_window_view(padded.array, (window, window)).reshape(*shape, -1)
    lo, hi = wins.min(axis=2), wins.max(axis=2)
    assert np.all(out >= lo * (1 - 1e-12)) and np.all(out <= hi * (1 + 1e-12))
    assert np.all(out[hi == 0.0] == 0.0)
    zero_windows = np.argwhere(lo == 0.0)
    for r, c in zero_windows[:: max(1, len(zero_windows) // 8)]:
        assert filter_pixel(padded, (r + half, c + half), spec) == out[r, c]


@settings(max_examples=40, deadline=None)
@given(
    value=st.floats(1e-6, 1e6),
    shape=st.tuples(st.integers(7, 12), st.integers(7, 12)),
    window=st.sampled_from((5, 7)),
    kind=st.sampled_from(KINDS),
)
def test_filter_constant_image_is_fixed_point(value, shape, window, kind):
    spec = FilterSpec(window=window, test=TestConfig(kind=kind))
    out = filter_image(Raster(np.full(shape, value)), spec).array
    assert np.all(np.abs(out - value) <= 1e-15 * value)


def test_extreme_separation_keeps_central_block_only():
    # oriented regions reach into a basin 1000x brighter, so every test
    # rejects and the output collapses to the central-block mean
    spec = FilterSpec(window=5, test=TestConfig(alpha=0.2))
    hits = 0
    trials = 200
    for s in range(trials):
        rng = stream(30, 1000, s)
        arr = 1e5 * unit_speckle(3.0, (5, 5), rng)
        arr[1:4, 1:4] = 100.0 * unit_speckle(3.0, (3, 3), rng)
        img = Raster(arr)
        value = filter_pixel(img, (2, 2), spec)
        if value == pytest.approx(arr[1:4, 1:4].mean(), abs=1e-12):
            hits += 1
    assert hits / trials >= 0.99


def test_all_eight_tests_reject_at_tenfold_separation():
    cfg = TestConfig(alpha=0.2)
    all_rejected = 0
    trials = 200
    for s in range(trials):
        rng = stream(31, s)
        s1 = sample(GammaParams(3.0, 100.0), 9, rng)
        outcomes = [
            run_test(s1, sample(GammaParams(3.0, 1000.0), 7, rng), cfg) for _ in range(8)
        ]
        all_rejected += all(o.rejected for o in outcomes)
    assert all_rejected / trials >= 0.99


def test_homogeneous_window_accepts_most_regions():
    # at a 1% series level nearly all eight neighbours of a homogeneous
    # window pass, so the average pools essentially the whole window
    cfg = TestConfig(alpha=0.01)
    masks = nm_masks(5)
    counts = []
    for s in range(200):
        rng = stream(4, s)
        arr = 195.0 * unit_speckle(3.0, (5, 5), rng)
        samples = [
            arr[2 + np.array([r for r, c in m.offsets]), 2 + np.array([c for r, c in m.offsets])]
            for m in masks
        ]
        counts.append(
            sum(0 if run_test(samples[0], samples[i], cfg).rejected else 1 for i in range(1, 9))
        )
    assert np.mean(counts) >= 7.0


def test_filter_raises_enl_on_homogeneous_images():
    spec = FilterSpec(window=5, test=TestConfig(alpha=0.2))
    for looks in (1.0, 3.0, 5.0, 7.0):
        for s in range(20):
            rng = stream(6, int(looks), s)
            img = Raster(150.0 * unit_speckle(looks, (64, 64), rng))
            out = filter_image(img, spec)
            assert enl(out.array) >= 3.0 * enl(img.array)
