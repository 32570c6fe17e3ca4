import dataclasses

import numpy as np
import pytest

from oct_align.core import DisplacementField, SurfaceSet, surfaces_to_labels
from oct_align.errors import DimensionError, ValidationError
from oct_align.resample import resample_axial
from oct_align.synth import (
    BACKGROUND_INTENSITY,
    BAND_INTENSITY,
    BAND_ROWS_FRAC,
    BUMP_AMPLITUDE_PX,
    BUMP_MAX_CYCLES,
    FOVEA_DEPTH_PX,
    FOVEA_WIDTH_FRAC,
    THICKNESS_WOBBLE,
    MotionSpec,
    PhantomSpec,
    apply_motion,
    generate_phantom,
    sample_motion,
    shift_surfaces_transverse,
    shift_transverse,
    simulate_motion,
)


def invert_motion(volume, surfaces, motion):
    """Perfect inverse correction using the ground truth: undo the
    transverse roll, then resample by the axial truth."""
    data = shift_transverse(volume.data.astype(np.float64), -motion.transverse)
    data = resample_axial(data, motion.axial)
    pos = surfaces.positions - motion.axial[None, :, None]
    unrolled = shift_surfaces_transverse(pos, -motion.transverse)
    return volume.with_data(data), SurfaceSet(unrolled)


class TestPhantomSpec:
    def test_defaults_valid(self):
        spec = PhantomSpec()
        _, surf = generate_phantom(spec)
        assert surf.n_surfaces == spec.n_layers + 1

    def test_stack_exceeding_rows_rejected(self):
        with pytest.raises(ValidationError):
            PhantomSpec(n_r=32)

    def test_dims_beyond_one_addressable_volume_rejected(self):
        # n_b * n_a * n_r float64 values must fit np.intp bytes; checked
        # before anything is allocated
        with pytest.raises(ValidationError, match="too large"):
            PhantomSpec(n_b=10**20)
        with pytest.raises(ValidationError, match="too large"):
            PhantomSpec(n_b=2**20, n_a=2**20, n_r=2**20)

    @pytest.mark.parametrize("key, value", [
        ("vessel_count", -1), ("vessel_drift_px", -0.5), ("speckle_sigma", -0.1),
        ("noise_sigma", -0.03), ("seed", -1),
    ])
    def test_negative_values_rejected(self, key, value):
        # each once meant "none" or narrowed a margin without a word
        with pytest.raises(ValidationError, match=key):
            PhantomSpec(**{key: value})


    @pytest.mark.parametrize("n_a", [64, 256])
    def test_more_vessels_than_columns_rejected(self, n_a):
        PhantomSpec(n_a=n_a, vessel_count=n_a)
        with pytest.raises(ValidationError, match="vessel_count"):
            PhantomSpec(n_a=n_a, vessel_count=n_a + 1)

    @pytest.mark.parametrize("drift", [28.5, 1e300, float("inf"), float("nan")])
    def test_drift_leaving_no_start_column_rejected(self, drift):
        # at N_A = 64 a margin of ceil(drift) + 2 leaves a start column
        # while 64 - 2 - margin > margin, that is up to a drift of 28
        PhantomSpec(vessel_drift_px=28.0)
        with pytest.raises(ValidationError, match="vessel_drift_px"):
            PhantomSpec(vessel_drift_px=drift)
        PhantomSpec(vessel_drift_px=drift, vessel_count=0)  # no vessel to place

    def test_every_vessel_lies_inside_the_volume(self):
        # the widest drift a default-size spec takes keeps each shadow clear
        # of the last column
        spec = PhantomSpec(vessel_drift_px=28.0, speckle_sigma=0.0, noise_sigma=0.0)
        vol, _ = generate_phantom(spec)
        flat, _ = generate_phantom(dataclasses.replace(spec, vessel_count=0))
        shadowed = vol.data != flat.data
        assert shadowed.any() and not shadowed[:, -1, :].any()


class TestGeneratePhantom:
    def test_deterministic_bit_identical(self):
        spec = PhantomSpec(seed=3)
        v1, s1 = generate_phantom(spec)
        v2, s2 = generate_phantom(spec)
        assert v1.data.tobytes() == v2.data.tobytes()
        assert np.array_equal(s1.positions, s2.positions)

    def test_noiseless_phantom_is_piecewise_constant_on_label_bands(self):
        for n_layers in (3, 7):  # 7 bands cycle the 6 levels
            spec = PhantomSpec(n_layers=n_layers, vessel_count=0, speckle_sigma=0.0,
                               noise_sigma=0.0, seed=1)
            vol, surf = generate_phantom(spec)
            labels = surfaces_to_labels(surf, spec.n_r).labels
            bands = (BAND_INTENSITY * 2)[:n_layers]
            lut = np.array([BACKGROUND_INTENSITY, *bands, BACKGROUND_INTENSITY],
                           dtype=np.float32)
            assert np.array_equal(vol.data, lut[labels])

    def test_surfaces_ordered_and_in_range(self):
        vol, surf = generate_phantom(PhantomSpec(seed=5))
        surf.require_ordered()
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
        cos_slope = 2 * np.pi * BUMP_MAX_CYCLES * (1 / spec.n_a + 1 / spec.n_b)
        thick = BAND_ROWS_FRAC * spec.n_r / spec.n_layers
        bound = (
            BUMP_AMPLITUDE_PX * cos_slope
            + spec.n_layers * thick * THICKNESS_WOBBLE * cos_slope
            + FOVEA_DEPTH_PX * np.exp(-0.5) / (FOVEA_WIDTH_FRAC * min(spec.n_a, spec.n_b))
        )
        for l in range(pos.shape[0]):
            da = np.abs(np.diff(pos[l], axis=1)).mean()
            db = np.abs(np.diff(pos[l], axis=0)).mean()
            assert max(da, db) < bound


class TestMotionSpec:
    def test_protocol_sampler_bounds(self, rng):
        for seed in range(10):
            m = sample_motion(np.random.default_rng(seed), n_b=24)
            assert isinstance(m, DisplacementField)
            plain = m.as_displacement()
            assert type(plain) is DisplacementField
            assert np.array_equal(plain.axial, m.axial)
            assert np.array_equal(plain.transverse, m.transverse)
            assert np.abs(m.axial).max() <= 15.0
            assert np.abs(m.transverse).max() <= 15
            assert 3 <= len(m.group_boundaries) <= 5

    @pytest.mark.parametrize("n_b", [1, 2])
    def test_protocol_sampler_on_one_or_two_b_scans(self, n_b):
        m = sample_motion(np.random.default_rng(5), n_b=n_b)
        # 3 to 5 groups, capped at N_B: one group per B-scan
        assert m.group_boundaries == tuple(range(n_b))
        rng = np.random.default_rng(5)
        assert np.array_equal(m.axial, rng.uniform(-15.0, 15.0, n_b))
        if n_b == 1:  # no cut is drawn: the shift is the draw after the group count
            rng.integers(3, 6)
            assert np.array_equal(m.transverse, rng.integers(-15, 16, 1))

    def test_group_constancy_enforced(self):
        with pytest.raises(ValidationError):
            MotionSpec(np.zeros(4), np.array([1, 2, 2, 2]), (0, 2))

    def test_amplitude_cap_enforced(self):
        with pytest.raises(ValidationError):
            MotionSpec(np.array([0.0, 16.0]), np.zeros(2, dtype=np.int64), (0,))
        # and, as for any DisplacementField, whole-pixel transverse shifts of
        # the axial vector's length
        with pytest.raises(ValidationError):
            MotionSpec(np.zeros(2), np.array([0.5, 0.5]), (0,))
        with pytest.raises(DimensionError):
            MotionSpec(np.zeros(3), np.zeros(2, dtype=np.int64), (0,))


class TestApplyMotion:
    def test_zero_motion_is_identity(self):
        vol, surf = generate_phantom(PhantomSpec(seed=0))
        zero = MotionSpec(np.zeros(vol.n_b), np.zeros(vol.n_b, dtype=np.int64), (0,))
        v2, s2 = apply_motion(vol, surf, zero)
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
        margin = int(np.abs(motion.transverse).max())
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
        band = int(np.ceil(np.abs(motion.axial).max())) + 1
        margin = int(np.abs(motion.transverse).max())
        err = np.abs(v_back.data.astype(np.float64) - vol.data)[
            :, margin:vol.n_a - margin, band:-band
        ]
        levels = np.array([BACKGROUND_INTENSITY, *BAND_INTENSITY[:spec.n_layers]])
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
    assert np.array_equal(a[2].axial, b[2].axial)


def test_simulate_motion_rejects_a_negative_seed():
    vol, surf = generate_phantom(PhantomSpec(seed=0))
    with pytest.raises(ValidationError, match="seed"):
        simulate_motion(vol, surf, seed=-5)
