import tracemalloc

import numpy as np
import pytest

from oct_align.core import OctVolume
from oct_align.errors import DimensionError
from oct_align.resample import resample_axial


def test_zero_displacement_is_bit_identical(rng):
    data = rng.normal(size=(3, 5, 8)).astype(np.float32)
    v = OctVolume(data)
    out = resample_axial(v, np.zeros(3))
    assert np.array_equal(out.data, v.data)
    assert out.data.tobytes() == v.data.tobytes()


def test_integer_shift_is_exact_row_shift_with_replicate_fill(rng):
    data = rng.normal(size=(2, 4, 8))
    out = resample_axial(data, np.array([1.0, 0.0]))
    # output row r reads input row r+1; the last row replicates
    assert np.array_equal(out[0, :, :-1], data[0, :, 1:])
    assert np.array_equal(out[0, :, -1], data[0, :, -1])
    assert np.array_equal(out[1], data[1])

    out = resample_axial(data, np.array([-2.0, 0.0]))
    assert np.array_equal(out[0, :, 2:], data[0, :, :-2])
    assert np.array_equal(out[0, :, 0], data[0, :, 0])
    assert np.array_equal(out[0, :, 1], data[0, :, 0])


def test_half_pixel_shift_on_ramp(rng):
    # I(r) = r: sampling at r + 0.5 returns r + 0.5 away from the border
    ramp = np.tile(np.arange(16.0), (2, 3, 1))
    out = resample_axial(ramp, np.array([0.5, 0.5]))
    assert np.allclose(out[..., :-1], ramp[..., :-1] + 0.5, atol=1e-12)


def test_linearity_exact_fractional_dyadic(rng):
    # integer-valued images, power-of-two coefficients, half-integer shift:
    # every intermediate value is exactly representable, so equality is bitwise
    a = rng.integers(0, 512, size=(2, 4, 10)).astype(np.float64)
    b = rng.integers(0, 512, size=(2, 4, 10)).astype(np.float64)
    d = np.array([1.5, -2.5])
    lhs = resample_axial(2.0 * a + 0.5 * b, d)
    rhs = 2.0 * resample_axial(a, d) + 0.5 * resample_axial(b, d)
    assert np.array_equal(lhs, rhs)


def test_linearity_exact_integer_shift_any_coefficients(rng):
    a = rng.normal(size=(2, 4, 10))
    b = rng.normal(size=(2, 4, 10))
    alpha, beta = 0.3721, -1.77
    d = np.array([3.0, -1.0])
    lhs = resample_axial(alpha * a + beta * b, d)
    rhs = alpha * resample_axial(a, d) + beta * resample_axial(b, d)
    assert np.array_equal(lhs, rhs)


def test_linearity_close_in_general(rng):
    a = rng.normal(size=(2, 4, 10))
    b = rng.normal(size=(2, 4, 10))
    d = np.array([0.37, -1.21])
    lhs = resample_axial(1.3 * a - 0.7 * b, d)
    rhs = 1.3 * resample_axial(a, d) - 0.7 * resample_axial(b, d)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_forward_backward_identity_away_from_boundary(rng):
    # ramp (interpolated exactly) plus a cosine whose curvature is small at
    # the pixel scale; double interpolation error is bounded by half the
    # per-pixel curvature, comfortably below 1e-5 here
    rows = np.arange(64.0)
    img = (0.5 * rows + np.cos(2 * np.pi * rows / 2048.0))[None, None, :] * np.ones(
        (2, 4, 1)
    )
    d = np.array([2.3, -1.7])
    back = resample_axial(resample_axial(img, d), -d)
    band = int(np.ceil(np.abs(d).max()))
    assert np.abs(back - img)[..., band:-band].max() < 1e-5


def test_length_mismatch_rejected(rng):
    data = rng.normal(size=(3, 4, 8))
    with pytest.raises(DimensionError):
        resample_axial(data, np.zeros(2))


def test_rescaled_shift_composes_across_scales():
    # shifting a 2x-downsampled smooth image by d/2 approximates the
    # downsampled full-resolution shift (tolerance measured on this family)
    rows = np.arange(64.0)
    img = (np.cos(2 * np.pi * rows / 64.0) + 0.5 * np.cos(2 * np.pi * rows / 21.0))[
        None, None, :
    ] * np.ones((2, 3, 1))
    d = np.array([3.0, -2.4])
    full = resample_axial(img, d)[..., ::2]
    coarse = resample_axial(img[..., ::2], d / 2.0)
    band = 3
    # bound measured on this image family (0.027 worst case), frozen with margin
    assert np.abs(full - coarse)[..., band:-band].max() < 0.04


def test_per_a_scan_shifts_match_per_column_loop(rng):
    data = rng.normal(size=(2, 3, 12))
    shifts = rng.uniform(-2, 2, size=(2, 3))
    out = resample_axial(data, shifts)
    for b in range(2):
        for a in range(3):
            single = resample_axial(
                np.tile(data[b, a], (2, 1, 1)), np.array([shifts[b, a], 0.0])
            )
            assert np.allclose(out[b, a], single[0, 0], atol=1e-12)


def per_a_scan_whole_volume(data, shifts):
    """Reference: one float64 copy of the volume and whole-volume index and
    weight arrays, gathered in one step."""
    data = np.asarray(data, dtype=np.float64)
    n_r = data.shape[2]
    pos = np.arange(n_r, dtype=np.float64) + np.asarray(shifts, dtype=np.float64)[..., None]
    lo = np.floor(pos).astype(np.int64)
    w = pos - lo
    lo, hi = np.clip(lo, 0, n_r - 1), np.clip(lo + 1, 0, n_r - 1)
    return (np.take_along_axis(data, lo, axis=2) * (1.0 - w)
            + np.take_along_axis(data, hi, axis=2) * w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_per_a_scan_shifts_equal_the_whole_volume_formula(rng, dtype):
    data = rng.normal(50.0, 20.0, size=(5, 40, 192)).astype(dtype)
    shifts = rng.uniform(-30, 30, size=(5, 40))
    shifts[0] = np.round(shifts[0])  # integer shifts gather without interpolating
    out = resample_axial(data, shifts)
    assert out.dtype == np.float64
    assert np.array_equal(out, per_a_scan_whole_volume(data, shifts))


@pytest.mark.parametrize("as_volume", [False, True])
def test_repeated_columns_equal_per_b_scan_shifts_bitwise(rng, as_volume):
    data = rng.normal(50.0, 20.0, size=(6, 16, 40)).astype(np.float32)
    d = rng.uniform(-8, 8, size=6)
    d[2] = 0.0  # an all-zero B-scan is copied in both forms
    vol = OctVolume(data) if as_volume else data
    per_b = resample_axial(vol, d)
    per_a = resample_axial(vol, np.repeat(d[:, None], 16, axis=1))
    if as_volume:
        per_b, per_a = per_b.data, per_a.data
    assert per_a.tobytes() == per_b.tobytes()


@pytest.mark.parametrize("per_a_scan", [False, True])
def test_volume_comes_back_float32_rounded_from_float64(rng, per_a_scan):
    data = rng.normal(50.0, 20.0, size=(4, 8, 24)).astype(np.float32)
    d = rng.uniform(-5, 5, size=(4, 8) if per_a_scan else 4)
    out = resample_axial(OctVolume(data, spacing=(1.0, 2.0, 3.0)), d)
    assert out.data.dtype == np.float32 and out.spacing == (1.0, 2.0, 3.0)
    # the same rounding as casting the float64 result of the plain array
    assert np.array_equal(out.data, resample_axial(data, d).astype(np.float32))


@pytest.mark.parametrize("per_a_scan", [False, True])
def test_no_whole_volume_float64_copy(rng, per_a_scan):
    # float32 output plus one B-scan's temporaries: a whole-volume float64
    # copy alone would add 2x the volume's bytes
    vol = OctVolume(rng.normal(size=(32, 64, 96)).astype(np.float32))
    d = rng.uniform(-5, 5, size=(32, 64) if per_a_scan else 32)
    tracemalloc.start()
    try:
        resample_axial(vol, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * vol.data.nbytes


@pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 1), (3, 2), (3, 4), (3, 3, 1)])
def test_shift_shape_guard(rng, shape):
    # the volume is 3x3 (N_B x N_A); only (3,) and (3, 3) are accepted
    data = rng.normal(size=(3, 3, 4))
    assert resample_axial(data, np.zeros((3, 3))).shape == data.shape
    with pytest.raises(DimensionError):
        resample_axial(data, np.zeros(shape))
