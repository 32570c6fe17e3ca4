import numpy as np
import pytest

from oct_align.align import apply_axial_correction, optimize_alignment
from oct_align.core import (
    EmptyBandWarning,
    OctVolume,
    SurfaceSet,
    first_best,
    most_frequent_int,
    search_order,
)
from oct_align.errors import ConfigError, DimensionError
from oct_align.metrics import motion_error
from oct_align.synth import (
    MotionSpec,
    PhantomSpec,
    apply_motion,
    generate_phantom,
    shift_transverse,
    simulate_motion,
)
from oct_align.transverse import (
    TRANSVERSE_RADIUS,
    _pair_mse,
    align_transverse,
    mean_projection,
)


def projection_mse(proj_a, proj_b, t):
    """Brute-force reference: MSE between strip a and strip b shifted by
    +t columns, over the overlap."""
    n_a = proj_a.shape[0]
    if t >= 0:
        x, y = proj_a[t:], proj_b[: n_a - t]
    else:
        x, y = proj_a[: n_a + t], proj_b[-t:]
    diff = x - y
    return float((diff * diff).mean())


def reference_mse(proj, radius):
    """``projection_mse`` of every adjacent pair at every shift, (N_B - 1, 2R + 1)."""
    return np.array([[projection_mse(proj[b], proj[b + 1], t)
                      for t in range(-radius, radius + 1)]
                     for b in range(proj.shape[0] - 1)])


def reference_shifts(proj, radius):
    """Per-pair search: the first lowest ``projection_mse`` in ``search_order``."""
    return [min(search_order(radius), key=lambda t: projection_mse(proj[b], proj[b + 1], t))
            for b in range(proj.shape[0] - 1)]


def best_shift(proj_a, proj_b, radius):
    """The shift ``align_transverse`` picks for the pair (a, b)."""
    return int(first_best(-_pair_mse(np.stack([proj_a, proj_b]), radius), radius)[0])


def corrected_phantom(seed, motion_seed, **spec):
    """A phantom corrupted by protocol motion and corrected axially with its
    own surfaces, as the pipeline hands it to transverse matching."""
    vol, surf = generate_phantom(PhantomSpec(seed=seed, **spec))
    cvol, csurf, motion = simulate_motion(vol, surf, seed=motion_seed)
    v_ax, s_ax = apply_axial_correction(cvol, csurf, optimize_alignment(cvol, csurf))
    return v_ax, s_ax, motion


class TestMeanProjection:
    def test_constant_intensity_inside_retina(self):
        data = np.full((2, 4, 12), 0.1)
        band = np.full((2, 4), 0.7)
        rows = np.arange(1, 13)
        inside = (rows >= 4) & (rows <= 9)
        data[:, :, inside] = band[..., None]
        vol = OctVolume(data)
        surf = SurfaceSet(np.stack([np.full((2, 4), 4.0), np.full((2, 4), 9.0)]))
        proj = mean_projection(vol, surf)
        assert np.allclose(proj, 0.7, atol=1e-7)

    def test_ramp_band_mean(self):
        # band rows 5..8 of I(r) = r average to 6.5
        data = np.tile(np.arange(1.0, 13.0), (2, 3, 1))
        vol = OctVolume(data)
        surf = SurfaceSet(np.stack([np.full((2, 3), 5.0), np.full((2, 3), 8.0)]))
        assert np.allclose(mean_projection(vol, surf), 6.5, atol=1e-6)

    def test_matches_brute_force_means(self, rng):
        data = rng.uniform(0, 1, size=(3, 5, 16))
        lo = rng.uniform(2, 6, size=(3, 5))
        hi = lo + rng.uniform(1, 6, size=(3, 5))
        vol = OctVolume(data)
        surf = SurfaceSet(np.stack([lo, hi]))
        proj = mean_projection(vol, surf)
        for b in range(3):
            for a in range(5):
                rows = [
                    r for r in range(1, 17)
                    if np.ceil(lo[b, a]) <= r <= np.floor(hi[b, a])
                ]
                expect = np.mean([data[b, a, r - 1] for r in rows])
                assert np.isclose(proj[b, a], expect, atol=1e-7)

    def test_bands_from_the_first_to_the_last_row_equal_the_padded_cumsum(self, rng):
        # bands that start at row 1 read the sum through row 0 (0.0) and
        # bands that end at row R read the sum through the last row; the
        # reference is the cumulative sum of a float64 copy behind one
        # leading zero, bit for bit
        n_b, n_a, n_r = 3, 6, 16
        vol = OctVolume(rng.uniform(0, 1, size=(n_b, n_a, n_r)))
        lo = rng.integers(1, 5, size=(n_b, n_a)).astype(float)
        hi = rng.integers(n_r - 3, n_r + 1, size=(n_b, n_a)).astype(float)
        lo[0], hi[1] = 1.0, float(n_r)
        hi[2, :3] = n_r + 0.7  # clipped to R
        proj = mean_projection(vol, SurfaceSet(np.stack([lo, hi])))
        data = vol.data.astype(np.float64)
        csum = np.concatenate([np.zeros((n_b, n_a, 1)), np.cumsum(data, axis=2)], axis=2)
        lo_c = np.clip(np.ceil(lo).astype(np.int64), 1, n_r)
        hi_c = np.clip(np.floor(hi).astype(np.int64), 0, n_r)
        sums = (np.take_along_axis(csum, hi_c[..., None], axis=2)
                - np.take_along_axis(csum, (lo_c - 1)[..., None], axis=2))[..., 0]
        assert (lo_c == 1).any() and (hi_c == n_r).any()
        assert np.array_equal(proj, sums / (hi_c - lo_c + 1))

    def test_empty_band_flagged_and_zero(self):
        data = np.tile(np.arange(32.0).reshape(1, 4, 8), (2, 1, 1))
        vol = OctVolume(data)
        # band (3.6, 3.9) contains no integer rows; band (9.5, 12) lies wholly
        # below the last row 8, so it must not read row 8
        for first, last in ((3.6, 3.9), (9.5, 12.0)):
            surf = SurfaceSet(np.stack([np.full((2, 4), first), np.full((2, 4), last)]))
            with pytest.warns(EmptyBandWarning, match="8 A-scans"):
                proj = mean_projection(vol, surf)
            assert (proj == 0).all()

    def test_without_surfaces_whole_column(self, rng):
        data = rng.uniform(size=(2, 3, 8))
        vol = OctVolume(data)
        assert np.allclose(mean_projection(vol, None), data.mean(axis=2))

    @pytest.mark.parametrize("dims", [(24, 64, 96), (5, 40, 192), (2, 3, 9000)])
    def test_without_surfaces_equals_the_float64_copy_mean(self, rng, dims):
        vol = OctVolume(rng.normal(50.0, 20.0, size=dims))
        want = vol.data.astype(np.float64).mean(axis=2)
        assert np.array_equal(mean_projection(vol, None), want)


class TestPairMse:
    @pytest.mark.parametrize("layer_mask", [True, False])
    @pytest.mark.parametrize("n_a, radius", [(64, TRANSVERSE_RADIUS), (256, 30), (256, 255)])
    def test_equals_the_brute_force_mse_for_every_pair_and_shift(self, n_a, radius, layer_mask):
        # a 256-A-scan strip is the clinical width; radius N_A - 1 leaves one
        # overlapping column at the outermost shifts
        v_ax, s_ax, _ = corrected_phantom(3, 4, n_b=6 if n_a == 256 else 24, n_a=n_a)
        proj = mean_projection(v_ax, s_ax if layer_mask else None)
        mse = _pair_mse(proj, radius)
        assert mse.shape == (proj.shape[0] - 1, 2 * radius + 1)
        np.testing.assert_allclose(mse, reference_mse(proj, radius), rtol=1e-15, atol=0)


class TestBestShift:
    """The pick of one pair: ``first_best`` over the negated ``_pair_mse``."""

    def test_single_bright_column_recovered_exactly(self):
        base = np.full(40, 0.2)
        p = base.copy()
        p[12] = 1.0
        q = base.copy()
        q[16] = 1.0  # content moved +4 columns
        assert best_shift(p, q, radius=10) == -4

    def test_returned_shift_minimizes_mse_over_the_window(self, rng):
        for _ in range(20):
            p = rng.uniform(size=30)
            q = rng.uniform(size=30)
            t = best_shift(p, q, radius=8)
            best = projection_mse(p, q, t)
            for s in range(-8, 9):
                assert best <= projection_mse(p, q, s) + 1e-15

    def test_tie_prefers_smaller_magnitude(self):
        p = np.zeros(10)
        q = np.zeros(10)
        assert best_shift(p, q, radius=5) == 0


class TestAlignTransverse:
    @pytest.mark.parametrize("layer_mask", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 5, 18, 23])
    def test_equals_the_per_pair_search(self, seed, layer_mask):
        v_ax, s_ax, _ = corrected_phantom(seed, seed + 1)
        proj = mean_projection(v_ax, s_ax if layer_mask else None)
        est = np.concatenate(([0], -np.cumsum(reference_shifts(proj, TRANSVERSE_RADIUS))))
        d = align_transverse(v_ax, s_ax, layer_mask=layer_mask)
        assert np.array_equal(d.transverse, est - most_frequent_int(est))

    def test_default_radius_follows_a_jump_of_two_amplitudes(self):
        # phantom 18 as `oct-align phantom --seed 18 --corrupt` draws it:
        # adjacent groups differ by 29 columns, which a radius of 15 cannot
        # reach (it recovered with an error of 19.5 px)
        v_ax, s_ax, motion = corrected_phantom(18, 19)
        assert np.abs(np.diff(motion.transverse)).max() == 29
        assert TRANSVERSE_RADIUS == 30
        for layer_mask in (True, False):
            d = align_transverse(v_ax, s_ax, layer_mask=layer_mask)
            assert motion_error(d, motion)[1] == 0.0

    def test_identical_projections_give_zero(self):
        vol, surf = generate_phantom(PhantomSpec(seed=0, noise_sigma=0.0,
                                                 speckle_sigma=0.0))
        d = align_transverse(vol, surf)
        assert (d.transverse == 0).all()

    def test_grouped_corruption_recovered(self):
        vol, surf = generate_phantom(PhantomSpec(seed=1))
        tr = np.zeros(vol.n_b, dtype=np.int64)
        tr[8:15] = 9
        tr[15:] = -5
        motion = MotionSpec(np.zeros(vol.n_b), tr, (0, 8, 15))
        cvol, csurf = apply_motion(vol, surf, motion)
        d = align_transverse(cvol, csurf, radius=15)
        assert motion_error(d, motion)[1] == 0.0

    def test_radius_must_be_below_na(self):
        vol, surf = generate_phantom(PhantomSpec(seed=0))
        with pytest.raises(ConfigError):
            align_transverse(vol, surf, radius=vol.n_a)

    def test_a_bare_array_is_rejected(self):
        # as optimize_alignment rejects it: a DimensionError, not an
        # AttributeError on n_b
        vol, surf = generate_phantom(PhantomSpec(n_b=4, n_a=24, n_r=48, seed=0))
        with pytest.raises(DimensionError, match="OctVolume"):
            align_transverse(vol.data, surf)

    def test_retina_mask_helps_with_background_noise(self):
        # noise added outside the retinal band only: the masked projection
        # is untouched while the unmasked one degrades
        wins = 0
        for seed in range(20):
            spec = PhantomSpec(seed=seed, speckle_sigma=0.0, noise_sigma=0.0,
                               vessel_count=4, vessel_drift_px=1.5)
            vol, surf = generate_phantom(spec)
            rng = np.random.default_rng(500 + seed)
            tr = np.zeros(vol.n_b, dtype=np.int64)
            cuts = np.sort(rng.choice(np.arange(1, vol.n_b), 2, replace=False))
            tr[cuts[0]:cuts[1]] = rng.integers(-12, 13)
            tr[cuts[1]:] = rng.integers(-12, 13)
            motion = MotionSpec(np.zeros(vol.n_b), tr, (0, int(cuts[0]), int(cuts[1])))
            cvol, csurf = apply_motion(vol, surf, motion)

            data = cvol.data.astype(np.float64)
            rows = np.arange(1, vol.n_r + 1)
            outside = (
                (rows[None, None, :] < csurf.positions[0][..., None])
                | (rows[None, None, :] > csurf.positions[-1][..., None])
            )
            noisy = data + outside * rng.normal(0, 0.3, data.shape)
            noisy_vol = cvol.with_data(np.clip(noisy, 0, 1))

            e_masked = motion_error(
                align_transverse(noisy_vol, csurf, radius=24), motion
            )[1]
            e_full = motion_error(
                align_transverse(noisy_vol, csurf, radius=24, layer_mask=False), motion
            )[1]
            wins += e_masked <= e_full
        assert wins >= 15

    def test_correction_round_trip_up_to_gauge(self):
        vol, surf = generate_phantom(PhantomSpec(seed=2))
        tr = np.zeros(vol.n_b, dtype=np.int64)
        tr[10:] = 6
        motion = MotionSpec(np.zeros(vol.n_b), tr, (0, 10))
        cvol, csurf = apply_motion(vol, surf, motion)
        d = align_transverse(cvol, csurf, radius=15)
        v2 = shift_transverse(cvol.data, -d.transverse)  # shift content back
        # the gauge constant is unknowable; the residual must be uniform
        resid = tr - d.transverse
        assert np.ptp(resid) == 0
        c = int(resid[0])
        expected, _ = apply_motion(
            vol, surf, MotionSpec(np.zeros(vol.n_b), np.full(vol.n_b, c), (0,))
        )
        margin = 6 + abs(c)
        inner = slice(margin, vol.n_a - margin)
        assert np.allclose(v2[:, inner, :], expected.data[:, inner, :], atol=1e-6)
