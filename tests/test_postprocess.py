import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d, median_filter

from oct_align.core import OctVolume, SurfaceSet
from oct_align.errors import ValidationError
from oct_align.postprocess import (
    BM_MEDIAN_SIZE,
    BM_SIGMA,
    crop_rows,
    estimate_bm_rows,
    fix_surface_order,
    flatten_to_bm,
)
from oct_align.resample import resample_axial
from oct_align.synth import PhantomSpec, generate_phantom


def bubble_passes(pos):
    """Reference ordering fix: adjacent-pair swap passes over the surface
    axis until a pass swaps nothing (at most L - 1 passes)."""
    pos = pos.copy()
    n_s = pos.shape[0]
    for _ in range(max(n_s - 1, 0)):
        swapped = False
        for l in range(n_s - 1):
            bad = pos[l] > pos[l + 1]
            if bad.any():
                upper = np.where(bad, pos[l + 1], pos[l])
                lower = np.where(bad, pos[l], pos[l + 1])
                pos[l], pos[l + 1] = upper, lower
                swapped = True
        if not swapped:
            break
    return pos


def bm_rows_from_float64_copy(volume):
    """Reference BM estimate that smooths a whole float64 copy of the volume."""
    smoothed = gaussian_filter1d(volume.data.astype(np.float64), sigma=BM_SIGMA, axis=2,
                                 mode="nearest")
    grad = np.gradient(smoothed, axis=2)
    half = volume.n_r // 2
    rows0 = half + np.argmin(grad[:, :, half:], axis=2)
    return median_filter(rows0.astype(np.float64), size=BM_MEDIAN_SIZE, mode="nearest") + 1.0


class TestFixSurfaceOrder:
    def test_already_ordered_unchanged(self, rng):
        pos = np.sort(rng.uniform(1, 20, size=(4, 3, 5)), axis=0)
        s = SurfaceSet(pos)
        fixed = fix_surface_order(s)
        assert np.array_equal(fixed.positions, pos)

    def test_simple_column(self):
        pos = np.array([3.0, 1.0, 2.0]).reshape(3, 1, 1)
        fixed = fix_surface_order(SurfaceSet(pos))
        assert np.array_equal(fixed.positions.ravel(), [1.0, 2.0, 3.0])

    def test_matches_per_column_sort(self, rng):
        pos = rng.uniform(1, 30, size=(5, 4, 6))
        fixed = fix_surface_order(SurfaceSet(pos))
        assert np.array_equal(fixed.positions, np.sort(pos, axis=0))
        fixed.require_ordered()

    def test_matches_bubble_passes_with_ties(self, rng):
        for _ in range(200):
            shape = tuple(int(rng.integers(1, n)) for n in (7, 4, 5))
            # few distinct values, so most A-scans hold ties
            pos = rng.integers(1, 5, size=shape) + rng.choice([0.0, 0.5], size=shape)
            fixed = fix_surface_order(SurfaceSet(pos))
            assert np.array_equal(fixed.positions, bubble_passes(pos))

    def test_idempotent_and_value_preserving(self, rng):
        pos = rng.uniform(1, 30, size=(5, 3, 4))
        once = fix_surface_order(SurfaceSet(pos))
        twice = fix_surface_order(once)
        assert np.array_equal(once.positions, twice.positions)
        # each A-scan keeps the same multiset of values
        assert np.array_equal(
            np.sort(once.positions, axis=0), np.sort(pos, axis=0)
        )


def two_band_volume(n_b=6, n_a=24, n_r=64, bottom=44.0, wavy=False):
    """Bright band ending at a known bottom boundary, dark elsewhere.

    The optional waviness is smooth in (b, a), like a real membrane, so the
    estimator's median filter only removes outliers.
    """
    rows = np.arange(1, n_r + 1, dtype=np.float64)
    bottom_map = np.full((n_b, n_a), bottom)
    if wavy:
        bb = np.arange(n_b)[:, None]
        aa = np.arange(n_a)[None, :]
        bottom_map = bottom_map + np.round(
            3.0 * np.cos(2 * np.pi * aa / n_a) * np.cos(2 * np.pi * bb / n_b)
        )
    top_map = bottom_map - 22.0
    img = np.where(
        (rows[None, None, :] >= top_map[..., None])
        & (rows[None, None, :] <= bottom_map[..., None]),
        0.8,
        0.05,
    )
    return OctVolume(img), bottom_map


class TestFlatten:
    def test_bm_estimate_close_to_known_boundary(self):
        vol, bottom = two_band_volume(wavy=True)
        est = estimate_bm_rows(vol)
        frac_close = (np.abs(est - bottom) <= 2.0).mean()
        assert frac_close >= 0.95

    @pytest.mark.parametrize("dims", [(24, 64, 96), (5, 40, 192), (49, 256, 192)])
    def test_bm_estimate_equals_the_float64_copy_version(self, dims):
        n_b, n_a, n_r = dims
        vol, _ = generate_phantom(PhantomSpec(n_b=n_b, n_a=n_a, n_r=n_r, seed=4))
        assert np.array_equal(estimate_bm_rows(vol), bm_rows_from_float64_copy(vol))

    @pytest.mark.parametrize("n_r", [2, 3, 17, 18, 19])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bm_estimate_equals_the_float64_copy_version_on_few_rows(self, rng, n_r, dtype):
        # below and around 2 * (kernel radius 8 + 1) rows, where the smoothed
        # row range starts at row 0 or just past it
        for _ in range(3):
            vol = OctVolume(rng.random((3, 6, n_r)).astype(dtype))
            assert np.array_equal(estimate_bm_rows(vol), bm_rows_from_float64_copy(vol))

    def test_already_flat_phantom_constant_shift_map(self):
        vol, bottom = two_band_volume()
        _, shifts = flatten_to_bm(vol)
        assert np.ptp(shifts) <= 1.0

    def test_flatten_places_bm_on_target(self):
        vol, _ = two_band_volume(wavy=True)
        flat, _ = flatten_to_bm(vol)
        est = estimate_bm_rows(flat)
        assert np.abs(est - round(0.75 * vol.n_r)).mean() < 1.5

    def test_unflatten_restores_within_interpolation_tolerance(self):
        vol, _ = two_band_volume(wavy=True)
        flat, shifts = flatten_to_bm(vol)
        back = resample_axial(flat.data, -shifts)  # undoes the returned shift map
        band = int(np.ceil(np.abs(shifts).max())) + 1
        err = np.abs(back - vol.data)[:, :, band:-band]
        # piecewise-constant content: double interpolation bounded by half a jump
        assert err.max() <= 0.5 * 0.75 + 1e-6

    def test_integer_shifts_restore_exactly(self):
        vol, _ = two_band_volume()
        flat, shifts = flatten_to_bm(vol)
        assert np.allclose(shifts, np.round(shifts))  # flat input, integer map
        back = resample_axial(flat.data, -shifts)  # undoes the returned shift map
        band = int(np.abs(shifts).max()) + 1
        assert np.array_equal(back[:, :, band:-band], vol.data[:, :, band:-band])

    def test_phantom_flattening_targets_last_surface(self):
        spec = PhantomSpec(seed=3, speckle_sigma=0.0, noise_sigma=0.0,
                           vessel_count=0)
        vol, surf = generate_phantom(spec)
        _, shifts = flatten_to_bm(vol)
        bm = shifts + round(0.75 * vol.n_r)
        err = np.abs(bm - surf.positions[-1])
        assert np.median(err) <= 2.0


class TestCropRows:
    def test_full_range_identity(self, rng):
        vol, surf = generate_phantom(PhantomSpec(seed=1))
        v2, s2 = crop_rows(vol, surf, (1, vol.n_r))
        assert np.array_equal(v2.data, vol.data)
        assert np.array_equal(s2.positions, surf.positions)

    @pytest.mark.parametrize("n_surfaces", [0, 1])
    def test_rebasing(self, n_surfaces):
        data = np.zeros((2, 3, 12))
        vol = OctVolume(data)
        surf = SurfaceSet(np.full((n_surfaces, 2, 3), 5.0))
        v2, s2 = crop_rows(vol, surf, (3, 10))
        assert v2.n_r == 8
        assert s2.positions.shape == (n_surfaces, 2, 3)
        assert (s2.positions == 3.0).all()

    def test_surface_outside_crop_rejected(self):
        vol = OctVolume(np.zeros((2, 3, 12)))
        surf = SurfaceSet(np.full((1, 2, 3), 5.0))
        with pytest.raises(ValidationError, match="outside crop"):
            crop_rows(vol, surf, (6, 10))

    def test_bad_range_rejected(self):
        vol = OctVolume(np.zeros((2, 3, 12)))
        with pytest.raises(ValidationError):
            crop_rows(vol, None, (0, 10))
        with pytest.raises(ValidationError):
            crop_rows(vol, None, (8, 4))

    def test_uncrop_round_trips_surfaces_exactly(self, rng):
        vol, surf = generate_phantom(PhantomSpec(seed=2))
        lo = int(np.floor(surf.positions.min())) - 2
        hi = int(np.ceil(surf.positions.max())) + 2
        v2, s2 = crop_rows(vol, surf, (lo, hi))
        # re-basing by an integer is exact: adding lo - 1 back restores every row
        assert np.array_equal(s2.positions + (lo - 1), surf.positions)
        assert np.array_equal(v2.data, vol.data[:, :, lo - 1:hi])
