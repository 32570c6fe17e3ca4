import numpy as np
import pytest

from oct_align.core import OctVolume
from oct_align.errors import DimensionError
from oct_align.resample import resample_axial, resample_columns


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


def test_resample_columns_matches_per_column_loop(rng):
    data = rng.normal(size=(2, 3, 12))
    shifts = rng.uniform(-2, 2, size=(2, 3))
    out = resample_columns(data, shifts)
    for b in range(2):
        for a in range(3):
            single = resample_axial(
                np.tile(data[b, a], (2, 1, 1)), np.array([shifts[b, a], 0.0])
            )
            assert np.allclose(out[b, a], single[0, 0], atol=1e-12)


def test_resample_columns_shape_guard(rng):
    with pytest.raises(DimensionError):
        resample_columns(rng.normal(size=(2, 3, 4)), np.zeros((2, 4)))
