import numpy as np
import pytest

from oct_align.core import surfaces_to_labels
from oct_align.errors import ValidationError
from oct_align.resample import resample_axial
from oct_align.synth import (
    MotionSpec,
    PhantomSpec,
    apply_motion,
    generate_phantom,
    invert_motion,
    sample_motion,
    shift_surfaces_transverse,
    shift_transverse,
    simulate_motion,
)


class TestPhantomSpec:
    def test_defaults_valid(self):
        spec = PhantomSpec()
        assert len(spec.thicknesses()) == spec.n_layers
        assert len(spec.intensities()) == spec.n_layers

    def test_stack_exceeding_rows_rejected(self):
        with pytest.raises(ValidationError):
            PhantomSpec(n_r=32, band_thickness_px=(12.0, 12.0, 12.0))

    def test_nonpositive_thickness_rejected(self):
        with pytest.raises(ValidationError):
            PhantomSpec(band_thickness_px=(10.0, -1.0, 10.0))


class TestGeneratePhantom:
    def test_deterministic_bit_identical(self):
        spec = PhantomSpec(seed=3)
        v1, s1 = generate_phantom(spec)
        v2, s2 = generate_phantom(spec)
        assert v1.data.tobytes() == v2.data.tobytes()
        assert np.array_equal(s1.positions, s2.positions)

    def test_noiseless_phantom_is_piecewise_constant_on_label_bands(self):
        spec = PhantomSpec(
            n_layers=3, vessel_count=0, speckle_sigma=0.0, noise_sigma=0.0, seed=1
        )
        vol, surf = generate_phantom(spec)
        labels = surfaces_to_labels(surf, spec.n_r).labels
        lut = np.array(
            [spec.background_intensity, *spec.intensities(), spec.background_intensity],
            dtype=np.float32,
        )
        assert np.array_equal(vol.data, lut[labels])

    def test_surfaces_ordered_and_in_range(self):
        vol, surf = generate_phantom(PhantomSpec(seed=5))
        assert surf.is_ordered()
        assert surf.positions.min() >= 1.0
        assert surf.positions.max() <= vol.n_r

    def test_per_b_scan_mean_is_constant(self):
        # a motion-free phantom carries no per-B-scan axial offset
        _, surf = generate_phantom(PhantomSpec(seed=2))
        means = surf.positions.mean(axis=(0, 2))
        assert np.ptp(means) < 1e-9

    def test_mean_gradient_below_generator_bound(self):
        spec = PhantomSpec(n_layers=3, seed=4)
        _, surf = generate_phantom(spec)
        pos = surf.positions
        # bound from the generator's own amplitudes: cosine fields change by
        # at most amp * 2*pi*f/N per step, the dip by depth/width * exp(-1/2)
        cos_slope = 2 * np.pi * spec.bump_max_cycles * (1 / spec.n_a + 1 / spec.n_b)
        thick = max(spec.thicknesses())
        bound = (
            spec.bump_amplitude_px * cos_slope
            + spec.n_layers * thick * spec.thickness_wobble * cos_slope
            + spec.fovea_depth_px
            * np.exp(-0.5)
            / (spec.fovea_width_frac * min(spec.n_a, spec.n_b))
        )
        for l in range(pos.shape[0]):
            da = np.abs(np.diff(pos[l], axis=1)).mean()
            db = np.abs(np.diff(pos[l], axis=0)).mean()
            assert max(da, db) < bound


class TestMotionSpec:
    def test_protocol_sampler_bounds(self, rng):
        for seed in range(10):
            m = sample_motion(np.random.default_rng(seed), n_b=24)
            assert np.abs(m.axial_truth).max() <= 15.0
            assert np.abs(m.transverse_truth).max() <= 15
            assert 3 <= len(m.group_boundaries) <= 5

    def test_group_constancy_enforced(self):
        with pytest.raises(ValidationError):
            MotionSpec(np.zeros(4), np.array([1, 2, 2, 2]), (0, 2))

    def test_amplitude_cap_enforced(self):
        with pytest.raises(ValidationError):
            MotionSpec(np.array([0.0, 16.0]), np.zeros(2, dtype=np.int64), (0,))

    def test_zero_helper(self):
        m = MotionSpec.zero(6)
        assert m.n_b == 6
        assert (m.axial_truth == 0).all()


class TestApplyMotion:
    def test_zero_motion_is_identity(self):
        vol, surf = generate_phantom(PhantomSpec(seed=0))
        v2, s2 = apply_motion(vol, surf, MotionSpec.zero(vol.n_b))
        assert np.array_equal(v2.data, vol.data)
        assert np.array_equal(s2.positions, surf.positions)

    def test_axial_shift_adds_to_surface_rows(self):
        vol, surf = generate_phantom(PhantomSpec(seed=0))
        ax = np.zeros(vol.n_b)
        ax[3] = 3.0
        motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
        _, s2 = apply_motion(vol, surf, motion)
        assert np.allclose(s2.positions[:, 3, :], surf.positions[:, 3, :] + 3.0)
        others = np.arange(vol.n_b) != 3
        assert np.array_equal(s2.positions[:, others, :], surf.positions[:, others, :])

    def test_axial_only_corruption_identity(self, rng):
        # corrupted rows minus the truth give back the original surfaces
        vol, surf = generate_phantom(PhantomSpec(seed=1))
        ax = rng.uniform(-15, 15, vol.n_b)
        motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
        _, s2 = apply_motion(vol, surf, motion)
        assert np.allclose(
            s2.positions - ax[None, :, None], surf.positions, atol=1e-12
        )

    def test_motion_out_of_margin_rejected(self):
        vol, surf = generate_phantom(PhantomSpec(seed=0, top_margin_frac=0.17))
        ax = np.full(vol.n_b, -15.0)
        with pytest.raises(ValidationError):
            apply_motion(vol, surf, MotionSpec(ax, np.zeros(vol.n_b, np.int64), (0,)))


class TestInverseCorrection:
    def test_surfaces_restore_exactly_in_valid_columns(self):
        vol, surf = generate_phantom(PhantomSpec(seed=6))
        cvol, csurf, motion = simulate_motion(vol, surf, seed=11)
        _, s_back = invert_motion(cvol, csurf, motion)
        margin = int(np.abs(motion.transverse_truth).max())
        n_a = vol.n_a
        inner = slice(margin, n_a - margin)
        assert np.allclose(
            s_back.positions[:, :, inner], surf.positions[:, :, inner], atol=1e-12
        )

    def test_ramp_volume_restores_exactly_interior(self, rng):
        # linear interpolation is exact on ramps, so corrupt + perfect
        # inverse is identity away from the replicate bands
        ramp = np.tile(np.arange(64.0), (8, 16, 1)) / 64.0
        from oct_align.core import OctVolume, SurfaceSet

        vol = OctVolume(ramp)
        surf = SurfaceSet(np.full((1, 8, 16), 32.0))
        ax = rng.uniform(-10, 10, 8)
        motion = MotionSpec(ax, np.zeros(8, dtype=np.int64), (0,))
        cvol, _ = apply_motion(vol, surf, motion)
        v_back, _ = invert_motion(cvol, SurfaceSet(np.full((1, 8, 16), 32.0)), motion)
        band = int(np.ceil(np.abs(ax).max())) + 1
        err = np.abs(v_back.data - vol.data)[:, :, band:-band]
        assert err.max() < 1e-6

    def test_phantom_volume_restores_within_jump_bound(self):
        # piecewise-constant content: double interpolation error is bounded
        # by half the largest intensity jump
        spec = PhantomSpec(seed=7, speckle_sigma=0.0, noise_sigma=0.0)
        vol, surf = generate_phantom(spec)
        cvol, csurf, motion = simulate_motion(vol, surf, seed=13)
        v_back, _ = invert_motion(cvol, csurf, motion)
        band = int(np.ceil(np.abs(motion.axial_truth).max())) + 1
        margin = int(np.abs(motion.transverse_truth).max())
        err = np.abs(v_back.data.astype(np.float64) - vol.data)[
            :, margin:vol.n_a - margin, band:-band
        ]
        levels = np.array([spec.background_intensity, *spec.intensities()])
        max_jump = np.abs(np.diff(levels)).max()
        assert err.max() <= 0.5 * max_jump + 1e-9


def test_shift_transverse_replicates_edges(rng):
    data = rng.normal(size=(2, 5, 3))
    out = shift_transverse(data, np.array([2, 0]))
    assert np.array_equal(out[0, 2:], data[0, :-2])
    assert np.array_equal(out[0, 0], data[0, 0])
    assert np.array_equal(out[0, 1], data[0, 0])
    assert np.array_equal(out[1], data[1])

    # the gather against a per-B-scan loop, for volumes (b, a, r) and
    # surfaces (l, b, a); shifts include both signs and |t| >= N_A
    n_a = 5
    t = np.array([3, -2, 0, n_a, -n_a - 4, 1])
    vol = rng.normal(size=(t.size, n_a, 4))
    pos = rng.uniform(1, 50, size=(3, t.size, n_a))
    ref_vol = np.empty_like(vol)
    ref_pos = np.empty_like(pos)
    for b in range(t.size):
        src = np.clip(np.arange(n_a) - t[b], 0, n_a - 1)
        ref_vol[b] = vol[b, src]
        ref_pos[:, b] = pos[:, b, src]
    assert np.array_equal(shift_transverse(vol, t), ref_vol)
    assert np.array_equal(shift_surfaces_transverse(pos, t), ref_pos)


def test_simulate_motion_is_seed_deterministic():
    vol, surf = generate_phantom(PhantomSpec(seed=0))
    a = simulate_motion(vol, surf, seed=5)
    b = simulate_motion(vol, surf, seed=5)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[2].axial_truth, b[2].axial_truth)
