import numpy as np
import pytest

from oct_align.align import (
    AlignConfig,
    apply_axial_correction,
    global_ncc,
    local_ncc_map,
    optimize_alignment,
    solve_from_surfaces,
    surface_alignment_loss,
    template_match_align,
)
from oct_align.core import OctVolume, SurfaceSet
from oct_align.errors import DimensionError, ValidationError
from oct_align.losses import grad_alignment
from oct_align.metrics import motion_error
from oct_align.synth import MotionSpec, PhantomSpec, apply_motion, generate_phantom


def brute_force_alignment_loss(pos, d):
    total = 0.0
    n_s, n_b, n_a = pos.shape
    for l in range(n_s):
        for b in range(n_b - 1):
            for a in range(n_a):
                total += (
                    (pos[l, b, a] - d[b]) - (pos[l, b + 1, a] - d[b + 1])
                ) ** 2
    return total


class TestSurfaceAlignmentLoss:
    def test_flat_identical_surfaces_zero(self):
        pos = np.full((1, 3, 4), 7.0)
        assert surface_alignment_loss(pos, np.zeros(3)) == 0.0

    def test_displacement_cancels_offset(self):
        # r = (5, 8) with d = (0, 3): the gap is explained by the motion
        pos = np.array([[[5.0], [8.0]]])
        assert surface_alignment_loss(pos, np.array([0.0, 3.0])) == 0.0

    def test_matches_brute_force(self, rng):
        pos = rng.uniform(1, 30, size=(2, 3, 4))
        d = rng.uniform(-5, 5, size=3)
        got = surface_alignment_loss(pos, d)
        assert np.isclose(got, brute_force_alignment_loss(pos, d), rtol=1e-12)

    def test_gauge_invariance_exact_on_dyadic_values(self, rng):
        # quarters plus an exactly representable constant: no rounding, so
        # the invariance is bitwise
        pos = rng.integers(4, 120, size=(2, 4, 5)) / 4.0
        d = rng.integers(-40, 40, size=4) / 4.0
        base = surface_alignment_loss(pos, d)
        assert surface_alignment_loss(pos, d + 2.5) == base
        assert surface_alignment_loss(pos, d - 7.0) == base

    def test_length_mismatch(self, rng):
        with pytest.raises(DimensionError):
            surface_alignment_loss(rng.uniform(1, 5, (1, 3, 2)), np.zeros(4))


class TestLocalNcc:
    def test_identical_textured_pair_scores_one_per_pixel(self, rng):
        img = rng.normal(size=(16, 16))
        score = local_ncc_map(img, img, window=5)
        assert score.shape == (12, 12)
        assert np.allclose(score, 1.0, atol=1e-9)

    def test_constant_image_contributes_zero(self, rng):
        a = np.ones((12, 12))
        b = rng.normal(size=(12, 12))
        assert local_ncc_map(a, b, window=3).sum() == 0.0

    def test_matches_brute_force_windowed_computation(self, rng):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8)) + 0.4 * a
        n = 3
        got = local_ncc_map(a, b, window=n)
        expect = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                wa = a[i:i + n, j:j + n].ravel()
                wb = b[i:i + n, j:j + n].ravel()
                ca = wa - wa.mean()
                cb = wb - wb.mean()
                va, vb = (ca * ca).sum(), (cb * cb).sum()
                if va / n**2 < 1e-5 or vb / n**2 < 1e-5:
                    continue
                expect[i, j] = (ca * cb).sum() ** 2 / (va * vb)
        assert np.allclose(got, expect, rtol=1e-8, atol=1e-12)

    def test_affine_intensity_invariance(self, rng):
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        base = local_ncc_map(a, b, window=5)
        scaled = local_ncc_map(3.0 * a + 2.0, b, window=5)
        assert np.allclose(base, scaled, rtol=1e-8, atol=1e-10)


class TestSolveFromSurfaces:
    def test_aligned_surfaces_give_zero(self):
        pos = np.full((2, 4, 3), 9.0)
        d = solve_from_surfaces(SurfaceSet(pos))
        assert np.allclose(d.axial, 0.0, atol=1e-12)

    def test_recovers_axial_truth_exactly(self, rng):
        vol, surf = generate_phantom(PhantomSpec(seed=1))
        ax = rng.uniform(-15, 15, vol.n_b)
        motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
        _, csurf = apply_motion(vol, surf, motion)
        d = solve_from_surfaces(csurf)
        est = d.axial - d.axial.mean()
        tru = ax - ax.mean()
        assert np.abs(est - tru).max() < 1e-9

    def test_beats_random_perturbations(self, rng):
        pos = rng.uniform(5, 40, size=(2, 5, 6))
        s = SurfaceSet(pos)
        d = solve_from_surfaces(s).axial
        best = surface_alignment_loss(pos, d)
        tru = rng.uniform(-3, 3, 5)
        assert best <= surface_alignment_loss(pos, tru) + 1e-9
        for _ in range(1000):
            assert best <= surface_alignment_loss(pos, d + rng.normal(0, 0.5, 5)) + 1e-9

    def test_solution_zeroes_the_gradient(self, rng):
        pos = rng.uniform(5, 40, size=(3, 6, 4))
        d = solve_from_surfaces(SurfaceSet(pos)).axial
        g = grad_alignment(pos, d)
        assert np.abs(g).max() < 1e-8

    def test_needs_two_b_scans(self):
        with pytest.raises(DimensionError):
            solve_from_surfaces(SurfaceSet(np.full((1, 1, 4), 5.0)))

    def test_needs_a_surface(self):
        with pytest.raises(ValidationError):
            solve_from_surfaces(SurfaceSet(np.zeros((0, 4, 3))))


class TestOptimizeAlignment:
    def test_motion_free_phantom_is_a_fixed_point(self):
        vol, surf = generate_phantom(PhantomSpec(seed=2))
        d = optimize_alignment(vol, surf)
        assert np.abs(d.axial).max() <= 0.5

    def test_objective_monotone_across_sweeps(self):
        vol, surf = generate_phantom(PhantomSpec(seed=3))
        from oct_align.synth import simulate_motion

        cvol, csurf, _ = simulate_motion(vol, surf, seed=21)
        trace = []
        optimize_alignment(cvol, csurf, trace=trace)
        assert len(trace) >= 2
        diffs = np.diff(trace)
        assert (diffs <= 1e-9 * (1 + np.abs(trace[:-1]))).all()

    def test_unsupervised_mode_runs_and_recovers(self):
        vol, surf = generate_phantom(PhantomSpec(seed=4))
        from oct_align.synth import simulate_motion

        cvol, _, motion = simulate_motion(vol, surf, seed=31)
        d = optimize_alignment(cvol, None)
        err = motion_error(d, motion)[0]
        assert err < 5.0

    def test_surfaces_volume_mismatch(self):
        vol, _ = generate_phantom(PhantomSpec(seed=0))
        with pytest.raises(DimensionError):
            optimize_alignment(vol, SurfaceSet(np.full((1, 5, 4), 3.0)))


class TestTemplateMatch:
    def test_identical_b_scans_give_zero(self, rng):
        img = rng.normal(size=(12, 20))
        vol = OctVolume(np.stack([img, img, img]))
        d = template_match_align(vol)
        assert np.allclose(d.axial, 0.0)

    def test_integer_corruption_recovered_exactly(self, rng):
        spec = PhantomSpec(seed=8, speckle_sigma=0.0, noise_sigma=0.0)
        vol, surf = generate_phantom(spec)
        ax = rng.integers(-10, 11, vol.n_b).astype(float)
        motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
        cvol, _ = apply_motion(vol, surf, motion)
        d = template_match_align(cvol)
        est = d.axial - d.axial.mean()
        tru = ax - ax.mean()
        assert np.abs(est - tru).max() < 1e-9

    def test_matches_exhaustive_shift_grid(self, rng):
        # the sequential estimate must pick the argmax over the shift grid
        spec = PhantomSpec(seed=9)
        vol, _ = generate_phantom(spec)
        cfg = AlignConfig(search_radius=6)
        d = template_match_align(vol, cfg)
        data = vol.data.astype(np.float64)
        from oct_align.resample import _interp_rows

        dd = d.axial - d.axial[0] + 0.0
        # reconstruct the chain decision for b = 1 (the chain searches 2x radius)
        best_v, best_s = -np.inf, None
        for s in range(-12, 13):
            v = global_ncc(data[0], _interp_rows(data[1], float(s)))
            if v > best_v:
                best_v, best_s = v, s
        assert np.isclose(dd[1] - dd[0], best_s)


class TestNccPairedComparison:
    def test_template_not_better_than_supervised_on_most_seeds(self, suite):
        report, _ = suite
        worse_or_equal = sum(
            1
            for row in report["per_phantom"]
            if row["axial_template_mean_px"] >= row["axial_supervised_mean_px"]
        )
        assert worse_or_equal >= 15


def test_apply_axial_correction_consistency(rng):
    vol, surf = generate_phantom(PhantomSpec(seed=1))
    ax = rng.uniform(-5, 5, vol.n_b)
    motion = MotionSpec(ax, np.zeros(vol.n_b, np.int64), (0,))
    cvol, csurf = apply_motion(vol, surf, motion)
    d = solve_from_surfaces(csurf)
    v2, s2 = apply_axial_correction(cvol, csurf, d)
    # corrected surfaces equal the originals up to the removed global shift
    resid = s2.positions - surf.positions
    assert np.ptp(resid) < 1e-9


def test_global_ncc_basics(rng):
    img = rng.normal(size=(10, 12))
    assert np.isclose(global_ncc(img, img), 1.0)
    assert global_ncc(np.ones((4, 4)), img[:4, :4]) == 0.0
    assert np.isclose(global_ncc(img, 2.5 * img + 1.0), 1.0)
